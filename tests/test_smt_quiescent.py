"""The fused kernel's quiescent-cycle skip against per-cycle stepping.

The kernel jumps over runs of cycles in which no stage can act (see the
``repro.core_model.smt_kernel`` docstring); the object path and the scan
oracle of ``tests/test_smt_wakeup.py`` still step every cycle. The runs
here put the events that end a skip inside long quiescent stretches —
slow DRAM, epoch lengths that do not divide the 4096-cycle completion
prune, mispredict-heavy and all-store streams, tiny fetch queues and
stretches with both fetch queues empty — and require identical per-epoch
checkpoints and end states on all three paths. A property test then pauses
the object path at quiescent cycles and steps it up to the cycle
:func:`next_event_cycle` predicts, checking that nothing but the cycle
count, the round-robin counter and the rename accounting moves.
"""

import itertools
from dataclasses import astuple

import pytest

from repro.core_model import smt_kernel
from repro.core_model.sanitizer import compare_step_logs
from repro.core_model.smt_kernel import next_event_cycle
from repro.smt.pg_policy import CHOI_POLICY, PGPolicy
from repro.smt.pipeline import SMTConfig, SMTPipeline
from repro.smt.uop import KIND_ALU, KIND_BRANCH, KIND_LOAD, KIND_STORE
from tests.test_smt_wakeup import (
    MIXES,
    end_state,
    iq_in_age_order,
    run_static,
    three_paths,
)


@pytest.fixture
def skips(monkeypatch):
    """Counts the kernel's skips, and those an epoch end or prune bounds."""
    counts = {"skips": 0, "epoch_end": 0, "prune": 0}

    def counting(cycle, end_cycle, *args):
        wake = next_event_cycle(cycle, end_cycle, *args)
        if wake > cycle:
            counts["skips"] += 1
            if wake == end_cycle:
                counts["epoch_end"] += 1
            elif wake % 4096 == 0:
                counts["prune"] += 1
        return wake

    monkeypatch.setattr(smt_kernel, "next_event_cycle", counting)
    return counts


def _stream(pattern):
    """Endless uop stream cycling through (kind, dep1, dep2, mispredict)."""
    return itertools.cycle(pattern)


#: A mispredicted branch behind a load every few uops: the thread sits
#: blocked on the redirect while its fetch queue drains.
MISPREDICT_HEAVY = [
    (KIND_LOAD, 0, 0, False),
    (KIND_BRANCH, 1, 0, True),
    (KIND_ALU, 2, 0, False),
    (KIND_LOAD, 0, 0, False),
    (KIND_ALU, 1, 0, False),
    (KIND_BRANCH, 2, 1, True),
]

#: Only stores: the SQ fills with entries waiting on their post-commit
#: drain, so SQ releases end the quiescent runs.
ALL_STORES = [
    (KIND_STORE, 0, 0, False),
    (KIND_STORE, 1, 0, False),
    (KIND_STORE, 0, 0, False),
]

#: One mispredicted branch per fetch, behind a load: both fetch queues
#: empty out and the rename stage idles.
REDIRECT_EVERY_FETCH = [
    (KIND_LOAD, 0, 0, False),
    (KIND_BRANCH, 1, 0, True),
]


def assert_tri_path(mix, policy, config, seed, segments, patterns=None):
    """Scan, kernel and object path agree per epoch and at the end.

    ``segments`` is a list of ``(epochs, epoch_cycles, kernel_first)``:
    each runs the kernel pipeline on the kernel (or the object path when
    ``kernel_first`` is false) and the object pipeline on the other path,
    so several segments hand each pipeline between the paths mid-run.
    """
    scan, kernel, objct = three_paths(mix, policy, config, seed)
    if patterns is not None:
        for pipeline in (scan, kernel, objct):
            for thread, pattern in zip(pipeline.threads, patterns):
                thread.stream = _stream(pattern)
    logs = ([], [], [])
    for epochs, epoch_cycles, kernel_first in segments:
        for log, pipeline, use_kernel in (
            (logs[0], scan, None),
            (logs[1], kernel, kernel_first),
            (logs[2], objct, not kernel_first),
        ):
            log += run_static(
                pipeline, policy, config, epochs, epoch_cycles, use_kernel
            )
        assert iq_in_age_order(kernel) == iq_in_age_order(scan)
    compare_step_logs(logs[1], logs[0], context="kernel-vs-scan")
    compare_step_logs(logs[2], logs[0], context="object-vs-scan")
    reference = end_state(scan)
    assert end_state(kernel) == reference
    assert end_state(objct) == reference
    return scan


class TestSkipMatchesPerCycleStepping:
    @pytest.mark.parametrize("epoch_cycles", [7, 97, 331])
    @pytest.mark.parametrize("dram_latency", [400, 650])
    def test_odd_epochs_and_slow_dram(self, skips, epoch_cycles,
                                      dram_latency):
        # Epoch ends and the 4096-cycle prune land inside quiescent runs.
        epochs = -(-4400 // epoch_cycles)
        scan = assert_tri_path(
            MIXES["gcc-lbm"], CHOI_POLICY,
            SMTConfig(dram_latency=dram_latency), seed=1,
            segments=[(epochs, epoch_cycles, True)],
        )
        assert scan.cycle > 4096
        assert skips["skips"] > 0
        assert skips["epoch_end"] > 0
        if epoch_cycles != 7:
            assert skips["prune"] > 0

    @pytest.mark.parametrize("mnemonic", ["RR_1111", "IC_1011", "BrC_0101"])
    def test_policies_with_small_fetch_queues(self, skips, mnemonic):
        policy = PGPolicy.from_mnemonic(mnemonic)
        assert_tri_path(
            MIXES["mcf-x264"], policy,
            SMTConfig(fetchq_capacity=2, dram_latency=400), seed=4,
            segments=[(12, 97, True)],
        )
        assert skips["skips"] > 0

    def test_mispredict_heavy_streams(self, skips):
        scan = assert_tri_path(
            MIXES["gcc-lbm"], CHOI_POLICY, SMTConfig(dram_latency=450),
            seed=6, segments=[(14, 331, True)],
            patterns=[MISPREDICT_HEAVY, MISPREDICT_HEAVY[2:] +
                      MISPREDICT_HEAVY[:2]],
        )
        assert skips["skips"] > 0
        assert min(scan.per_thread_committed()) > 0

    def test_all_store_streams(self, skips):
        scan = assert_tri_path(
            MIXES["gcc-lbm"], CHOI_POLICY, SMTConfig(dram_latency=420),
            seed=7, segments=[(14, 331, True)],
            patterns=[ALL_STORES, ALL_STORES],
        )
        assert skips["skips"] > 0
        assert scan.rename_activity.stalled_sq > 0

    def test_both_fetch_queues_empty(self, skips):
        scan = assert_tri_path(
            MIXES["gcc-lbm"], CHOI_POLICY,
            SMTConfig(dram_latency=500, fetchq_capacity=4), seed=2,
            segments=[(13, 331, True)],
            patterns=[REDIRECT_EVERY_FETCH, REDIRECT_EVERY_FETCH[::-1]],
        )
        assert skips["skips"] > 0
        # Most cycles idle, with both threads waiting on a redirect.
        assert scan.rename_activity.idle > scan.cycle // 2

    @pytest.mark.parametrize("kernel_first", [True, False])
    def test_handoff_mid_run(self, skips, kernel_first):
        segments = [
            (6, 331, kernel_first),
            (23, 97, not kernel_first),
            (40, 7, kernel_first),
        ]
        scan = assert_tri_path(
            MIXES["gcc-lbm"], CHOI_POLICY, SMTConfig(dram_latency=400),
            seed=9, segments=segments,
        )
        assert scan.cycle == 6 * 331 + 23 * 97 + 40 * 7
        assert skips["skips"] > 0


# ------------------------------------------------------- property test


def _frozen(pipeline):
    """End state minus what a quiescent cycle may change."""
    state = end_state(pipeline)
    for name in ("cycle", "rr_counter", "rename_activity"):
        del state[name]
    return state


def _was_quiescent(pipeline, running, next_seqs):
    """Did the cycle just stepped rename and fetch nothing, leaving the
    ready heap empty (the kernel's skip condition)?"""
    return (
        pipeline.rename_activity.running == running
        and tuple(thread.next_seq for thread in pipeline.threads) == next_seqs
        and not pipeline._iq_ready
    )


def _predict(pipeline, end_cycle):
    return next_event_cycle(
        pipeline.cycle, end_cycle, pipeline._sq_releases,
        pipeline._iq_calendar, [thread.rob for thread in pipeline.threads],
        [thread.completion for thread in pipeline.threads],
        [thread.blocked_seq for thread in pipeline.threads],
        pipeline.config.mispredict_penalty,
    )


CASES = {
    "gcc-lbm-choi": (MIXES["gcc-lbm"], "RR_1111", SMTConfig(), 0, None),
    "mcf-x264-ic-dram400": (
        MIXES["mcf-x264"], "IC_1011", SMTConfig(dram_latency=400), 3, None,
    ),
    "brc-fetchq2": (
        MIXES["gcc-lbm"], "BrC_0000",
        SMTConfig(fetchq_capacity=2, dram_latency=500), 5, None,
    ),
    "mispredicts": (
        MIXES["gcc-lbm"], "RR_1111", SMTConfig(dram_latency=450), 6,
        [MISPREDICT_HEAVY, MISPREDICT_HEAVY[3:] + MISPREDICT_HEAVY[:3]],
    ),
    "stores": (
        MIXES["gcc-lbm"], "IC_1000", SMTConfig(dram_latency=420), 7,
        [ALL_STORES, ALL_STORES[1:] + ALL_STORES[:1]],
    ),
    "idle": (
        MIXES["gcc-lbm"], "RR_0000", SMTConfig(dram_latency=500), 2,
        [REDIRECT_EVERY_FETCH, REDIRECT_EVERY_FETCH],
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_only_counters_move_until_the_predicted_event(name):
    mix, mnemonic, config, seed, patterns = CASES[name]
    pipeline = SMTPipeline(
        list(mix), PGPolicy.from_mnemonic(mnemonic), config, seed=seed
    )
    if patterns is not None:
        for thread, pattern in zip(pipeline.threads, patterns):
            thread.stream = _stream(pattern)
    # Epoch ends are arbitrary here: one mid-run bound, crossed part-way.
    end_cycle = 2333
    checked = fired = 0
    while pipeline.cycle < 4300:
        running = pipeline.rename_activity.running
        next_seqs = tuple(thread.next_seq for thread in pipeline.threads)
        before = astuple(pipeline.rename_activity)
        pipeline.step()
        if not _was_quiescent(pipeline, running, next_seqs):
            continue
        step_delta = [
            after - prior
            for after, prior in zip(astuple(pipeline.rename_activity), before)
        ]
        bound = end_cycle if pipeline.cycle <= end_cycle else 10**9
        wake = _predict(pipeline, bound)
        checked += 1
        if wake <= pipeline.cycle:
            continue
        fired += 1
        frozen = _frozen(pipeline)
        start = pipeline.cycle
        rr = pipeline._rr_counter
        activity = astuple(pipeline.rename_activity)
        while pipeline.cycle < wake:
            pipeline.step()
            assert _frozen(pipeline) == frozen
        skipped = wake - start
        assert pipeline._rr_counter == rr + skipped
        assert astuple(pipeline.rename_activity) == tuple(
            value + skipped * delta
            for value, delta in zip(activity, step_delta)
        )
    assert checked > 0
    # The skip provably fires: the next event is beyond the next cycle.
    assert fired > 0
