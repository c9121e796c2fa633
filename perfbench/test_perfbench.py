"""The benchmark's own tests: tiny-scale runs and the output check.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import run  # noqa: E402

from repro.experiments.prefetch import PrefetchRunResult  # noqa: E402
from repro.experiments.runner import ResultCache  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def _tiny(capsys: pytest.CaptureFixture[str], workload: str, trace: int,
          seed: int = 3) -> dict:
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0", "--trace", str(trace), "--tiny"])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric_with_its_unit(capsys, workload, trace):
    result = _tiny(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    reported = {name: entry["unit"]
                for name, entry in result["metrics"].items()}
    assert reported == {entry["name"]: entry["unit"] for entry in declared}
    if trace:
        assert result["metrics"]["failed_ratio"]["value"] == 0
        assert (ROOT / ".perfbench" / "spans"
                / f"{workload}-seed3.jsonl").is_file()
    else:
        for name in reported:
            assert result["metrics"][name]["value"] > 0, name


def test_perturbed_cached_result_fails_the_output_check(capsys, monkeypatch):
    """A stored result that differs from what the task computes is caught."""
    put = ResultCache.put

    def perturbed_put(self, key, value):
        if isinstance(value, PrefetchRunResult):
            value = dataclasses.replace(value, ipc=value.ipc * (1 + 1e-9))
        put(self, key, value)

    monkeypatch.setattr(ResultCache, "put", perturbed_put)
    result = _tiny(capsys, "fig08-cold", trace=0)
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_changed_figure_output_fails_the_output_check(capsys, monkeypatch):
    """Repetitions that disagree on the figure output are caught."""
    import bench

    make = bench.make_workload
    calls = []

    def drifting(name, tiny=False):
        base = make(name, tiny)

        def figure(seed):
            result = base.figure(seed)
            calls.append(seed)
            if len(calls) == 2:
                result["all"]["bandit"] += 1e-12
            return result

        return dataclasses.replace(base, figure=figure)

    monkeypatch.setattr(bench, "make_workload", drifting)
    result = _tiny(capsys, "fig08-cold", trace=0)
    assert result["correct"] is False
    assert result["failed"] >= 1


@dataclasses.dataclass
class _Named:
    name: str


def test_recorded_digest_mismatch_is_a_failure():
    rerun = ("d" * 64, 0, [])
    attempted, problems = check.output_check(
        _Named(WORKLOADS[0]), check.DEFAULT_SEED, ["d" * 64], [{}], rerun,
        compare_recorded=True)
    assert attempted == 2
    assert len(problems) == 1 and "recorded" in problems[0]


def test_recorded_digests_cover_every_workload():
    assert set(json.loads(check.DIGESTS.read_text())) == set(WORKLOADS)


def test_incomplete_checkout_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
