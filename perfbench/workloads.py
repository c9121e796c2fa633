"""The benchmark's three workloads and the simulated counts read from them.

Each workload is one figure or sweep call plus the formatting of its
table, as a researcher runs it from ``repro.cli``. The seed argument
reaches the figure's ``seed`` parameter, which seeds the generated traces,
the bandit lanes and the SMT pipelines. Modelled caches start empty in
every replay (the figures never warm them), and the model has no
reference results from real hardware, so every ``sim.*`` count is an
unvalidated model output, used only to show a speed-only change left the
model unchanged.

``tiny=True`` shrinks every workload to a few seconds for the
benchmark's own tests; the timed figures always use the full sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.experiments import figures, reporting
from repro.experiments.prefetch import PrefetchRunResult
from repro.experiments.runner import ResultCache, RunTelemetry, Task
from repro.experiments.smt import SMTRunResult, SMTScale
from repro.util.stats import geometric_mean
from repro.workloads.suites import ALL_SUITES, spec_by_name

#: Tune-set members whose replays are dominated by the lane-invariant front
#: end (about 12.5% L1 misses) and members where nearly every record takes
#: the per-lane miss path.
STREAMING = ("bwaves06", "libquantum06", "lbm06")
THRASHING = ("milc06", "cactus06", "omnetpp06")

#: Figure 8's scenarios; a Figure 8 task label ends with its scenario.
SCENARIOS = ("none", "stride", "bingo", "mlop", "pythia", "bandit")


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``(spec name, trace length)`` of every compiled trace the figure
    #: loads; set-up builds them (at the run's seed) before timing starts.
    traces: Tuple[Tuple[str, int], ...]
    #: seed -> figure result.
    figure: Callable[[int], Any]
    #: figure result -> the table text the CLI would print.
    table: Callable[[Any], str]
    #: The figure's headline geometric mean (``sim.ipc_gmean``).
    headline: Callable[[Any], float]
    #: ``(index within its run_parallel call, task)`` -> re-run it under
    #: the oracle during the output check?
    sample: Callable[[int, Task], bool]


# ============================================================== fig08-cold


def _fig08(tiny: bool) -> Workload:
    length = 1200 if tiny else 1500
    suites = ("SPEC06",) if tiny else tuple(ALL_SUITES)
    members = [spec.name for suite in suites for spec in ALL_SUITES[suite]]
    names = ["stride", "bingo", "mlop", "pythia", "bandit"]

    def table(result: Dict[str, Dict[str, float]]) -> str:
        rows = [[suite] + [f"{result[suite][name]:.3f}" for name in names]
                for suite in result]
        return reporting.format_table(["suite"] + names, rows,
                                      title="Figure 8")

    return Workload(
        name="fig08-cold",
        traces=tuple((name, length) for name in members),
        figure=lambda seed: figures.fig08_singlecore(
            trace_length=length, suites=suites, seed=seed),
        table=table,
        headline=lambda result: result["all"]["bandit"],
        # Every 19th task: two no-prefetch baselines and, because 19 and the
        # 5 matrix scenarios are coprime, each matrix scenario twice.
        sample=lambda index, task: index % 19 == 0,
    )


# ============================================================ lane-narrow


def _sweep_table(result: Dict[str, Dict[str, Any]], title: str) -> str:
    rows: List[Sequence[object]] = []
    for name, member in result.items():
        if name == "all":
            continue
        rows.append((
            name, member["best_static_arm"],
            f"{member['best_static_norm']:.3f}",
            f"{member['bandit_mean']:.3f}",
            f"{member['bandit_min']:.3f}",
            f"{member['bandit_max']:.3f}",
        ))
    rows.append(("all", "", f"{result['all']['best_static_gmean']:.3f}",
                 f"{result['all']['bandit_gmean']:.3f}", "", ""))
    return reporting.format_table(
        ["workload", "best arm", "best static", "bandit mean", "bandit min",
         "bandit max"],
        rows, title=title,
    )


def _lane_narrow(tiny: bool) -> Workload:
    """Replication sweeps below the lane kernel's 128-lane auto switch.

    A sweep member replays 11 fixed-arm lanes plus the bandit replicates as
    one lane batch: 11 + 24 = 35 lanes for the streaming members and
    11 + 1 = 12 lanes for the thrashing ones, both on the dict kernel.
    """
    length = 1200 if tiny else 4000
    groups = (((STREAMING[:1], 24), (THRASHING[:1], 1)) if tiny
              else ((STREAMING, 24), (THRASHING, 1)))

    def figure(seed: int) -> List[Dict[str, Dict[str, Any]]]:
        return [
            figures.fig08_replication_sweep(
                trace_length=length, replicates=replicates,
                workloads=[spec_by_name(member) for member in members],
                seed=seed)
            for members, replicates in groups
        ]

    def table(results: List[Dict[str, Dict[str, Any]]]) -> str:
        return "\n".join(_sweep_table(result, "Figure 8 replication sweep")
                         for result in results)

    return Workload(
        name="lane-narrow",
        traces=tuple((member, length)
                     for members, _ in groups for member in members),
        figure=figure,
        table=table,
        headline=lambda results: geometric_mean(
            result["all"]["bandit_gmean"] for result in results),
        # Each sweep's first base replay and first lane batch.
        sample=lambda index, task: index == 0,
    )


# =============================================================== smt-fig13


def _smt_fig13(tiny: bool) -> Workload:
    mixes = 1 if tiny else 2
    scale = (SMTScale(epoch_cycles=200, total_epochs=40, step_epochs=2,
                      step_epochs_rr=2) if tiny else
             SMTScale(epoch_cycles=300, total_epochs=150, step_epochs=2,
                      step_epochs_rr=2))

    def table(result: Dict[str, Any]) -> str:
        return reporting.format_table(
            ["metric", "value"],
            [("gmean vs Choi", f"{result['gmean_vs_choi']:.3f}"),
             ("gmean vs ICount", f"{result['gmean_vs_icount']:.3f}"),
             ("wins > 4%", result["wins_over_4pct"]),
             ("losses > 4%", result["losses_over_4pct"]),
             ("ratios", " ".join(f"{r:.2f}" for r in result["ratios_sorted"]))],
            title="Figure 13",
        )

    return Workload(
        name="smt-fig13",
        traces=(),
        figure=lambda seed: figures.fig13_smt_bandit_vs_choi(
            num_mixes=mixes, scale=scale, seed=seed),
        table=table,
        headline=lambda result: result["gmean_vs_choi"],
        # The first mix's Choi (static) and bandit runs.
        sample=lambda index, task: index in (0, 2),
    )


_FACTORIES: Dict[str, Callable[[bool], Workload]] = {
    "fig08-cold": _fig08,
    "lane-narrow": _lane_narrow,
    "smt-fig13": _smt_fig13,
}

NAMES = tuple(_FACTORIES)


def workload(name: str, tiny: bool = False) -> Workload:
    return _FACTORIES[name](tiny)


# ========================================================= simulated counts


def sim_counts(telemetry: RunTelemetry, cache: ResultCache) -> Dict[str, float]:
    """Exact model counts over every task a repetition executed.

    Read back from the repetition's result cache, so the timed region
    carries no instrumentation. ``sim_cycles`` sums simulated core cycles
    over prefetch replays (each lane a full replay) and SMT cycles over SMT
    runs; ``records`` counts replayed trace records the same way.
    """
    l2_accesses = l2_hits = llc_accesses = llc_hits = dram_fills = 0
    issued = useful = smt_cycles = stalled = 0
    core_cycles = 0.0
    for record in telemetry.tasks:
        if record.cache_hit:
            continue
        hit, value = cache.get(record.key)
        if not hit:
            raise RuntimeError(f"result of task {record.label} is not cached")
        runs = value["results"] if isinstance(value, dict) else [value]
        for run in runs:
            if isinstance(run, SMTRunResult):
                smt_cycles += run.rename.cycles
                stalled += run.rename.stalled
            elif isinstance(run, PrefetchRunResult):
                stats = run.stats
                l2_accesses += stats.l2_demand_accesses
                l2_hits += stats.l2_demand_hits
                llc_accesses += stats.llc_demand_accesses
                llc_hits += stats.llc_demand_hits
                dram_fills += stats.dram_demand_fills
                issued += stats.prefetch.issued
                useful += stats.prefetch.useful()
                core_cycles += run.cycles
            else:
                raise TypeError(f"unexpected payload {type(run).__name__}")
    return {
        "sim.l2_hit_rate": l2_hits / l2_accesses if l2_accesses else 0.0,
        "sim.llc_hit_rate": llc_hits / llc_accesses if llc_accesses else 0.0,
        "sim.dram_fills": dram_fills,
        "sim.prefetch_useful_ratio": useful / issued if issued else 0.0,
        "sim.rename_stalled_frac": stalled / smt_cycles if smt_cycles else 0.0,
        "sim_cycles": core_cycles + smt_cycles,
        "records": telemetry.replayed_records,
    }
