"""The repo's own source must satisfy its fidelity linter.

This is the same check the ``lint-analysis`` CI job runs; keeping it in the
tier-1 suite means a new violation fails locally before it reaches CI.
"""

from pathlib import Path

from repro.analysis.baseline import load_baseline, split_by_baseline

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "analysis-baseline.json"


def test_src_is_clean_modulo_baseline(src_findings):
    accepted = load_baseline(BASELINE)
    new, _ = split_by_baseline(src_findings, accepted)
    assert new == [], "\n".join(f.format() for f in new)


def test_checked_in_baseline_is_empty():
    """The refactor landed with zero accepted debt; keep it that way.

    If a finding genuinely cannot be fixed, prefer a targeted
    ``# repro: ignore[CODE]`` over re-growing the baseline.
    """
    assert load_baseline(BASELINE) == set()


def test_baseline_entries_would_be_recognized():
    """Every baseline entry must use the rule|path|line format."""
    for entry in load_baseline(BASELINE):
        parts = entry.split("|", 2)
        assert len(parts) == 3, entry
        assert parts[0].startswith("R"), entry
