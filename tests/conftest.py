"""Fixtures shared across test modules."""

from pathlib import Path

import pytest

from repro.analysis.core import run_analysis

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def src_findings():
    """Every default-rule (R1-R17) finding for ``src``, analyzed once.

    Whole-tree analysis is the slowest step in the suite; the project rules
    (R8-R12) are part of the default set, so tests that assert on either
    share this one result and filter it by rule code.
    """
    return run_analysis([REPO_ROOT / "src"], root=REPO_ROOT)
