"""Output check: digests of the figure output and the repo's own oracle.

Runs after the timed region and is never timed. It counts one operation
per comparison and one failure per mismatch or exception:

- every repetition's figure output (result plus table) and simulated
  counts equal the first repetition's;
- at the default seed, the figure output's digest equals the one recorded
  in ``digests.json``;
- the figure re-runs from the last repetition's (warm) result cache and
  must reproduce the same output; a sample of its tasks is re-executed
  under ``REPRO_SANITIZE=1``, which replays each compiled-kernel run on the
  object path too and raises on the first divergence, and the re-executed
  result must equal the cached one. Lane batches re-run a few of their
  lanes as a sub-batch on the kernel the timed run used (sanitized against
  the per-lane object path) and on the per-lane scalar runners.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from spans import rebound
from workloads import Workload

from repro.core_model.lane_kernel import LANE_KERNEL_ENV
from repro.core_model.sanitizer import SANITIZE_ENV
from repro.experiments import runner
from repro.experiments.runner import Task

DIGESTS = Path(__file__).resolve().parent / "digests.json"

#: The seed the recorded digests were taken at (``--seed`` default).
DEFAULT_SEED = 0


def digest(result: Any, table: str) -> str:
    """SHA-256 of the figure result (floats at full precision) and table."""
    text = json.dumps(result, sort_keys=True) + "\n" + table
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def recorded_digest(name: str) -> Optional[str]:
    return json.loads(DIGESTS.read_text()).get(name)


@contextmanager
def environment(**values: str) -> Iterator[None]:
    saved = {name: os.environ.get(name) for name in values}
    os.environ.update(values)
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def lane_picks(count: int) -> List[int]:
    """The lanes of a batch the oracle re-runs: first, middle and last."""
    return sorted({0, count // 2, count - 1})


def oracle_mismatch(task: Task, cached: Any) -> Optional[str]:
    """Re-execute ``task`` under the oracle; describe any disagreement."""
    label = task.label or task.fn.__name__
    if task.fn.__name__ != "lane_batch_task":
        with environment(**{SANITIZE_ENV: "1"}):
            value = task.fn(**task.kwargs)
        return None if value == cached else f"{label}: result differs"
    picks = lane_picks(len(task.kwargs["lanes"]))
    kwargs = dict(task.kwargs,
                  lanes=tuple(task.kwargs["lanes"][i] for i in picks))
    expected = [cached["results"][i] for i in picks]
    with environment(**{SANITIZE_ENV: "1",
                        LANE_KERNEL_ENV: cached["lane_kernel"]}):
        batch = task.fn(**kwargs)["results"]
    with environment(**{LANE_KERNEL_ENV: "scalar"}):
        scalar = task.fn(**kwargs)["results"]
    if batch != expected:
        return f"{label}: lanes {picks} differ from a sanitized sub-batch"
    if scalar != expected:
        return f"{label}: lanes {picks} differ from the scalar runners"
    return None


def sampled_rerun(workload: Workload, seed: int) -> Tuple[str, int, List[str]]:
    """Re-run the figure (served by the active, warm result cache).

    Returns the output digest, the number of oracle comparisons made and
    the mismatches found. Call inside the last repetition's context.
    """
    original = runner.run_parallel
    problems: List[str] = []
    checked = 0

    def sampling(tasks: Sequence[Task], *args: Any, **kwargs: Any) -> List[Any]:
        nonlocal checked
        results = original(tasks, *args, **kwargs)
        for index, (task, value) in enumerate(zip(tasks, results)):
            if not workload.sample(index, task):
                continue
            checked += 1
            try:
                problem = oracle_mismatch(task, value)
            except Exception as error:  # a divergence or a crash: a failure
                problem = f"{task.label}: {type(error).__name__}: {error}"
            if problem:
                problems.append(problem)
        return results

    with rebound(original, sampling):
        result = workload.figure(seed)
    return digest(result, workload.table(result)), checked, problems


def output_check(workload: Workload, seed: int, digests: Sequence[str],
                 counts: Sequence[Dict[str, float]],
                 rerun: Tuple[str, int, List[str]],
                 compare_recorded: bool) -> Tuple[int, List[str]]:
    """All comparisons of one run: ``(operations attempted, failures)``."""
    attempted = 0
    problems: List[str] = []
    for index in range(1, len(digests)):
        attempted += 2
        if digests[index] != digests[0]:
            problems.append(f"repetition {index}: figure output changed")
        if counts[index] != counts[0]:
            problems.append(f"repetition {index}: simulated counts changed")
    rerun_digest, checked, oracle_problems = rerun
    attempted += 1 + checked
    if digests and rerun_digest != digests[0]:
        problems.append("figure output from the warm result cache differs")
    problems.extend(oracle_problems)
    if compare_recorded and seed == DEFAULT_SEED and digests:
        attempted += 1
        expected = recorded_digest(workload.name)
        if digests[0] != expected:
            problems.append(
                f"digest {digests[0]} != recorded {expected} at seed {seed}")
    return attempted, problems
