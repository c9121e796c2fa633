"""Figure-regeneration benchmark: one workload, one process, ``jobs=1``.

Run from the repository root::

    python3 perfbench/run.py --workload fig08-cold --seed 0 --seconds 20 --trace 0

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (``{name: {"value": v, "unit": u}}``).
Everything else goes to stderr. ``bench.py`` says what is measured and
``README.md`` why.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv: Optional[List[str]] = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"[perfbench] no repro sources under {SRC}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import bench

    return bench.main(argv)


if __name__ == "__main__":
    sys.exit(main())
