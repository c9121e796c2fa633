"""Set-up, timed region, metrics and result line of one benchmark run.

Set-up measures a fresh interpreter importing the figure code and builds
the workload's compiled traces into an empty on-disk store; each part runs
``SETUP_REPEATS`` times and ``setup_s`` is the sum of the two medians. The
last trace store is kept for the timed region.

The timed region then repeats until ``--seconds`` are used up (at least
``MIN_REPS`` times). Every repetition starts from an empty result cache, the
compiled traces on disk and an empty in-memory trace store, and times the
figure call plus the formatting of its table. The reference loop
(``_reference_seconds``) runs before the first repetition and after each
one; a repetition's ``wall / ref`` divides its wall time by the mean of the
reference times on either side of it. After the timed region the output
check (``check.py``) runs, untimed.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced repetitions, reports the per-layer metrics of the
traced ones (``spans.py``) and ``trace.overhead_ratio`` (median traced over
median untraced ``wall / ref``), and writes the spans to
``.perfbench/spans/<workload>-seed<seed>.jsonl``. Metric names and units
come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import check
from spans import Span, Tracer, self_seconds, traced as tracing
from workloads import (
    NAMES,
    SCENARIOS,
    STREAMING,
    THRASHING,
    Workload,
    sim_counts,
    workload as make_workload,
)

from repro.experiments.runner import (
    ExecutionContext,
    ResultCache,
    RunTelemetry,
    use_context,
)
from repro.workloads.compiled import (
    TraceStore,
    compiled_trace_for,
    use_trace_store,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Set-up repeats; ``setup_s`` is the sum of the medians of its parts.
SETUP_REPEATS = 5

#: Repeat the timed region while another repetition of the same length
#: still fits in ``--seconds``, but at least this many times.
MIN_REPS = 3

#: Runs of the reference loop per measurement; the median is kept.
REFERENCE_REPEATS = 5

IMPORT_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import repro.experiments.figures, repro.experiments.reporting"
)


@dataclass
class Rep:
    traced: bool
    wall: float = 0.0
    #: Mean reference-loop time just before and just after the repetition.
    ref: float = 0.0
    digest: str = ""
    counts: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    headline: float = 0.0
    layers: Dict[str, float] = field(default_factory=dict)
    error: Optional[str] = None


def _log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr)


# ================================================================== set-up


def _import_seconds() -> float:
    """Median wall time of a fresh interpreter importing the figure code."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _build_traces(workload: Workload, seed: int,
                  scratch: Path) -> Tuple[Path, float]:
    """Build the workload's traces into empty stores; keep the last store."""
    times = []
    directory = scratch / "traces"
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(directory, ignore_errors=True)
        start = time.perf_counter()
        with use_trace_store(TraceStore(directory)):
            for name, length in workload.traces:
                compiled_trace_for(name, length, seed=seed)
        times.append(time.perf_counter() - start)
    return directory, statistics.median(times)


# ========================================================== reference loop

# Host speed on a shared machine drifts by up to 1.8x over tens of seconds,
# so a run that falls in a slow period reads slow on every repetition and
# raw wall times of the same code spread by a fifth or more across runs.
# The reference loop is a fixed mix of the work the figures do -- interpreter
# arithmetic, dict lookups, numpy gathers over 64 Ki elements -- using none
# of the repo's code, so no change to the repo moves it; dividing a
# repetition's wall time by the reference time measured beside it cancels
# most of the drift (README.md, "Steadiness").
_REF_RNG = np.random.default_rng(0)
_REF_VALUES = _REF_RNG.random(1 << 16)
_REF_INDEX = _REF_RNG.integers(0, 1 << 16, 1 << 16)
_REF_TABLE = {key: key for key in range(4096)}


def _reference_once() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    for _ in range(30):
        for key in range(4096):
            total += _REF_TABLE[key] + (key & 7)
    gathered = np.empty_like(_REF_VALUES)
    for _ in range(60):
        np.take(_REF_VALUES, _REF_INDEX, out=gathered)
        gathered += 1.0
        np.maximum(gathered, _REF_VALUES, out=gathered)
    return time.perf_counter() - start


def _reference_seconds() -> float:
    """Median host time of the reference loop, measured now."""
    return statistics.median(_reference_once()
                             for _ in range(REFERENCE_REPEATS))


# ============================================================ timed region


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _layer_metrics(spans: List[Span], telemetry: RunTelemetry,
                   cache_dir: Path, wall: float) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    by_id = {span.id: span for span in spans}
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def seconds(*names: str) -> float:
        return sum(span.seconds for name in names for span in by_name[name])

    def total(name: str, attr: str) -> float:
        return sum(span.attrs[attr] for span in by_name[name])

    gets = by_name["runner.cache_get"]
    tasks = [span for span in spans if span.name.startswith("task.")]
    lanes = by_name["lane.run_lane_batch"]
    smt_runs = by_name["smt.run_smt_static"] + by_name["smt.run_smt_bandit"]
    smt_cycles = sum(span.attrs["cycles"] for span in smt_runs)
    smt_s = seconds("smt.run_smt_static", "smt.run_smt_bandit")
    bandit_s = seconds("bandit.select", "bandit.observe")
    metrics: Dict[str, float] = {
        "runner.tasks": len(telemetry.tasks),
        "runner.task_key_s": seconds("runner.task_key"),
        "runner.cache_get_s": seconds("runner.cache_get"),
        "runner.cache_put_s": seconds("runner.cache_put"),
        "runner.cache_put_bytes": sum(
            path.stat().st_size for path in cache_dir.rglob("*.pkl")),
        "runner.cache_hit_ratio": _ratio(
            sum(span.attrs["hit"] for span in gets), len(gets)),
        "runner.failed_tasks": sum("error" in span.attrs for span in tasks),
        "workloads.trace_load_s": seconds("workloads.trace_load"),
        "workloads.trace_loads": len(by_name["workloads.trace_load"]),
        "workloads.trace_bytes": total("workloads.trace_load", "bytes"),
        "replay.calls": len(by_name["replay.run_compiled"]),
        "replay.records": total("replay.run_compiled", "records"),
        "replay.s": seconds("replay.run_compiled"),
        "replay.records_per_s": _ratio(total("replay.run_compiled", "records"),
                                       seconds("replay.run_compiled")),
        "bandit.steps": len(by_name["bandit.observe"]),
        "bandit.s": bandit_s,
        "bandit.share": _ratio(bandit_s, wall),
        "lane.batches": len(lanes),
        "lane.lanes": total("lane.run_lane_batch", "lanes"),
        "lane.s": seconds("lane.run_lane_batch"),
        "lane.lane_records_per_s": _ratio(
            total("lane.run_lane_batch", "records"),
            seconds("lane.run_lane_batch")),
        "lane.fallbacks": sum(
            record.lane_fallback is not None for record in telemetry.tasks
            if record.lane_kernel is not None),
        "smt.runs": len(smt_runs),
        "smt.s": smt_s,
        "smt.static.s": seconds("smt.run_smt_static"),
        "smt.bandit.s": seconds("smt.run_smt_bandit"),
        "smt.epochs": sum(span.attrs["epochs"] for span in smt_runs),
        "smt.sim_cycles": smt_cycles,
        "smt.cycles_per_s": _ratio(smt_cycles, smt_s),
        "reporting.s": seconds("reporting.format_table",
                               "reporting.format_summary_table"),
    }
    for kind, members in (("streaming", STREAMING), ("thrashing", THRASHING)):
        # A lane batch's parent span is its lane_batch_task, named by spec.
        group = [span for span in lanes
                 if by_id[span.parent].attrs["spec"] in members]
        metrics[f"lane.ms_per_lane.{kind}"] = 1000.0 * _ratio(
            sum(span.seconds for span in group),
            sum(span.attrs["lanes"] for span in group))
    for kernel in ("array", "dict", "scalar"):
        metrics[f"lane.kernel.{kernel}"] = sum(
            record.lane_kernel == kernel for record in telemetry.tasks)
    for scenario in SCENARIOS:
        metrics[f"scenario.{scenario}.s"] = sum(
            record.seconds for record in telemetry.tasks
            if record.label.startswith("fig08")
            and record.label.rsplit(":", 1)[-1] == scenario)
    for module, module_s in self_seconds(spans).items():
        metrics[f"self.{module}.s"] = module_s
        metrics[f"share.{module}"] = _ratio(module_s, wall)
    return metrics


def _repetition(workload: Workload, seed: int, trace_dir: Path,
                scratch: Path, tracer: Tracer, index: int,
                traced: bool) -> Rep:
    rep = Rep(traced=traced)
    cache_dir = scratch / "cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache = ResultCache(cache_dir)
    context = ExecutionContext(jobs=1, cache=cache)
    run_id = f"{workload.name}-seed{seed}-rep{index}"
    gc.collect()
    try:
        with use_trace_store(TraceStore(trace_dir)), use_context(context):
            if traced:
                with tracing(tracer, run_id):
                    start = time.perf_counter()
                    with tracer.span(f"figure.{workload.name}"):
                        result = workload.figure(seed)
                    table = workload.table(result)
                    rep.wall = time.perf_counter() - start
            else:
                start = time.perf_counter()
                result = workload.figure(seed)
                table = workload.table(result)
                rep.wall = time.perf_counter() - start
    except Exception as error:  # a failed task fails the repetition
        rep.error = f"{type(error).__name__}: {error}"
        rep.attempted = len(context.telemetry.tasks) + 1
        return rep
    rep.attempted = len(context.telemetry.tasks)
    rep.digest = check.digest(result, table)
    rep.counts = sim_counts(context.telemetry, cache)
    rep.headline = workload.headline(result)
    if traced:
        rep.layers = _layer_metrics(tracer.run_spans(run_id),
                                    context.telemetry, cache_dir, rep.wall)
    return rep


def _measure(workload: Workload, seed: int, trace_dir: Path, scratch: Path,
             seconds: float, trace: bool, tracer: Tracer) -> List[Rep]:
    """Repeat the timed region; with ``trace`` alternate plain and traced."""
    reps: List[Rep] = []
    start = time.perf_counter()
    before = _reference_seconds()
    while True:
        traced = trace and len(reps) % 2 == 1
        rep = _repetition(workload, seed, trace_dir, scratch, tracer,
                          len(reps), traced)
        after = _reference_seconds()
        rep.ref = (before + after) / 2
        before = after
        reps.append(rep)
        _log(f"rep {len(reps) - 1} ({'traced' if traced else 'plain'}): "
             + (rep.error or f"{rep.wall:.3f} s, ref {rep.ref:.4f} s, "
                f"wall/ref {rep.wall / rep.ref:.2f}"))
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPS and elapsed + rep.wall > seconds:
            return reps


# ================================================================ the run


def _metrics(trace: bool, good: List[Rep], import_s: float, build_s: float,
             peak_rss_mb: float, attempted: int,
             failed: int) -> Dict[str, float]:
    def median(values: List[float]) -> float:
        return statistics.median(values) if values else 0.0

    plain = [rep for rep in good if not rep.traced]
    traced = [rep for rep in good if rep.traced]
    wall = median([rep.wall for rep in plain])
    wall_ref = median([rep.wall / rep.ref for rep in plain])
    counts = good[0].counts if good else {}
    if not trace:
        return {
            "wall_ref": wall_ref,
            "sim_cycles_per_ref": _ratio(counts.get("sim_cycles", 0.0),
                                         wall_ref),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": import_s + build_s,
        }
    metrics = {name: statistics.median(rep.layers[name] for rep in traced)
               for name in (traced[0].layers if traced else {})}
    metrics.update({name: value for name, value in counts.items()
                    if name.startswith("sim.")})
    metrics.update({
        "workloads.trace_build_s": build_s,
        "sim.ipc_gmean": good[0].headline if good else 0.0,
        "wall_s": wall,
        "ref_s": median([rep.ref for rep in plain]),
        "sim_cycles_per_s": _ratio(counts.get("sim_cycles", 0.0), wall),
        "records_per_s": _ratio(counts.get("records", 0.0), wall),
        "failed_ratio": _ratio(failed, attempted),
        "trace.overhead_ratio": _ratio(
            median([rep.wall / rep.ref for rep in traced]), wall_ref),
    })
    return metrics


def _run(args: argparse.Namespace) -> Dict[str, Any]:
    workload = make_workload(args.workload, tiny=args.tiny)
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    tracer = Tracer()
    try:
        import_s = _import_seconds()
        trace_dir, build_s = _build_traces(workload, args.seed, scratch)
        _log(f"set-up: import {import_s:.3f} s, trace build {build_s:.3f} s")
        reps = _measure(workload, args.seed, trace_dir, scratch,
                        args.seconds, bool(args.trace), tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        good = [rep for rep in reps if rep.error is None]
        problems = [f"repetition failed: {rep.error}"
                    for rep in reps if rep.error]
        attempted = sum(rep.attempted for rep in reps)
        if good:
            # The last repetition's result cache is still on disk (warm).
            context = ExecutionContext(
                jobs=1, cache=ResultCache(scratch / "cache"))
            try:
                with use_trace_store(TraceStore(trace_dir)), \
                        use_context(context):
                    rerun = check.sampled_rerun(workload, args.seed)
            except Exception as error:  # the warm re-run itself failed
                rerun = ("", 0, [f"warm re-run: {type(error).__name__}: {error}"])
            checked, check_problems = check.output_check(
                workload, args.seed, [rep.digest for rep in good],
                [rep.counts for rep in good], rerun,
                compare_recorded=not args.tiny)
            attempted += checked
            problems += check_problems
            _log(f"digest {good[0].digest}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if args.trace:
            tracer.write(WORK / "spans" /
                         f"{args.workload}-seed{args.seed}.jsonl")
    for problem in problems:
        _log(f"FAILED {problem}")
    failed = len(problems)
    values = _metrics(bool(args.trace), good, import_s, build_s, peak_rss_mb,
                      attempted, failed)
    declared = SPEC["per_layer" if args.trace else "end_to_end"]
    if set(values) != {entry["name"] for entry in declared}:
        raise RuntimeError("computed metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ {e['name'] for e in declared})}")
    metrics = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        _log(f"{name} = {values[name]:.6g} {unit}")
    return {"correct": failed == 0, "attempted": max(attempted, 1),
            "failed": failed, "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="figure-regeneration benchmark")
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, default=check.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken workloads (the benchmark's own tests)")
    args = parser.parse_args(argv)
    print(json.dumps(_run(args)))
    return 0
