"""The wakeup-driven SMT issue stage against the IQ scan it replaced.

:class:`ScanPipeline` keeps the original issue stage as a reference: a
unified IQ held as one age-ordered list, rescanned in full every cycle,
each entry's sources looked up in the per-thread completion maps. Being a
subclass, it always takes the object path. Every test here runs the same
seeded work through three paths — the scan oracle, the fused kernel and
the object pipeline with wakeup scheduling — and requires identical
per-epoch checkpoints (:class:`SMTStepRecord`) and identical end states:
rename activity, shared memory-RNG position, per-thread occupancies and
queues, and the IQ contents in age order.
"""

import itertools

import pytest

from repro.core_model.sanitizer import compare_step_logs
from repro.core_model.smt_kernel import kernel_eligible
from repro.smt.bandit_control import (
    BanditFetchController,
    SMTBanditConfig,
    run_static_policy,
)
from repro.smt.hill_climbing import HillClimbingConfig
from repro.smt.pg_policy import BANDIT_PG_ARMS, CHOI_POLICY, PGPolicy
from repro.smt.pipeline import SMTConfig, SMTPipeline
from repro.smt.uop import (
    KIND_ALU,
    KIND_BRANCH,
    KIND_LOAD,
    KIND_LONG,
    KIND_STORE,
    REG_WRITING_KINDS,
)
from repro.workloads.smt import thread_profile

MIXES = {
    "gcc-lbm": (thread_profile("gcc"), thread_profile("lbm")),
    "mcf-x264": (thread_profile("mcf"), thread_profile("x264")),
}

#: Small IQ, narrow issue and slow DRAM: long waiter chains, a full IQ
#: most cycles, and ready entries left behind by the issue budget.
SMALL_CONFIGS = {
    "iq4-w1": SMTConfig(iq_size=4, issue_width=1),
    "iq8-w2-dram400": SMTConfig(iq_size=8, issue_width=2, dram_latency=400),
    "iq16-w1-dram600": SMTConfig(iq_size=16, issue_width=1, dram_latency=600),
    "iq12-w2": SMTConfig(iq_size=12, issue_width=2, decode_width=3),
}


class ScanPipeline(SMTPipeline):
    """Reference issue stage: scan the whole age-ordered IQ every cycle."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Shared IQ: entries [thread, seq, dep1, dep2, kind], oldest first.
        self._iq = []

    def _issue(self, cycle):
        budget = self.config.issue_width
        iq = self._iq
        if not iq:
            return
        issued_any = False
        for entry in iq:
            if budget == 0:
                break
            thread_index, seq, dep1, dep2, kind = entry
            thread = self.threads[thread_index]
            completion = thread.completion
            committed_seq = thread.committed_seq
            if dep1 > committed_seq:
                ready_at = completion.get(dep1)
                if ready_at is None or ready_at > cycle:
                    continue
            if dep2 > committed_seq:
                ready_at = completion.get(dep2)
                if ready_at is None or ready_at > cycle:
                    continue
            if kind == KIND_LOAD:
                latency = self._memory_latency(thread.profile)
            elif kind == KIND_LONG:
                latency = thread.profile.long_op_latency
            else:
                latency = 1
            completion[seq] = cycle + latency
            thread.iq_occ -= 1
            entry[0] = -1  # mark consumed
            issued_any = True
            budget -= 1
        if issued_any:
            self._iq = [entry for entry in iq if entry[0] >= 0]

    def _rename(self, cycle):
        config = self.config
        budget = config.decode_width
        activity = self.rename_activity
        activity.cycles += 1
        renamed = 0
        stall_reasons = set()
        rob_total = self.threads[0].rob_occ + self.threads[1].rob_occ
        iq_total = self.threads[0].iq_occ + self.threads[1].iq_occ
        lq_total = self.threads[0].lq_occ + self.threads[1].lq_occ
        sq_total = self.threads[0].sq_occ + self.threads[1].sq_occ
        irf_total = self.threads[0].irf_occ + self.threads[1].irf_occ
        order = (self._rr_counter % 2, (self._rr_counter + 1) % 2)
        while budget:
            progressed = False
            for thread_index in order:
                if budget == 0:
                    break
                thread = self.threads[thread_index]
                if not thread.fetchq:
                    continue
                seq, kind, dep1, dep2, mispredict = thread.fetchq[0]
                reasons = []
                if rob_total >= config.rob_size:
                    reasons.append("rob")
                if iq_total >= config.iq_size:
                    reasons.append("iq")
                if kind == KIND_LOAD and lq_total >= config.lq_size:
                    reasons.append("lq")
                if kind == KIND_STORE and sq_total >= config.sq_size:
                    reasons.append("sq")
                if kind in REG_WRITING_KINDS and irf_total >= self._effective_irf:
                    reasons.append("rf")
                if reasons:
                    stall_reasons.update(reasons)
                    continue
                thread.fetchq.popleft()
                thread.rob.append((seq, kind))
                thread.rob_occ += 1
                rob_total += 1
                thread.iq_occ += 1
                iq_total += 1
                self._iq.append([thread_index, seq, dep1, dep2, kind])
                if kind == KIND_LOAD:
                    thread.lq_occ += 1
                    lq_total += 1
                elif kind == KIND_STORE:
                    thread.sq_occ += 1
                    sq_total += 1
                elif kind == KIND_BRANCH:
                    thread.branches_in_rob += 1
                if kind in REG_WRITING_KINDS:
                    thread.irf_occ += 1
                    irf_total += 1
                renamed += 1
                budget -= 1
                progressed = True
            if not progressed:
                break
        if renamed:
            activity.running += 1
        elif not self.threads[0].fetchq and not self.threads[1].fetchq:
            activity.idle += 1
        else:
            activity.stalled += 1
            if "rob" in stall_reasons:
                activity.stalled_rob += 1
            if "iq" in stall_reasons:
                activity.stalled_iq += 1
            if "lq" in stall_reasons:
                activity.stalled_lq += 1
            if "sq" in stall_reasons:
                activity.stalled_sq += 1
            if "rf" in stall_reasons:
                activity.stalled_rf += 1


# ---------------------------------------------------------------- harness


def iq_in_age_order(pipeline):
    """The IQ's (thread, seq, dep1, dep2, kind) entries, oldest first."""
    if isinstance(pipeline, ScanPipeline):
        return [tuple(entry) for entry in pipeline._iq]
    entries = {}
    for waiters in pipeline._iq_waiters:
        for waiting in waiters.values():
            for entry in waiting:
                entries[id(entry)] = entry
    for *_, entry in pipeline._iq_calendar + pipeline._iq_ready:
        entries[id(entry)] = entry
    ordered = sorted(entries.values(), key=lambda entry: entry[5])
    return [tuple(entry[:5]) for entry in ordered]


def end_state(pipeline):
    """Everything the next cycle could depend on, in comparable form."""
    threads = [
        dict(
            next_seq=thread.next_seq,
            committed=thread.committed,
            committed_seq=thread.committed_seq,
            blocked_seq=thread.blocked_seq,
            iq_occ=thread.iq_occ,
            rob_occ=thread.rob_occ,
            lq_occ=thread.lq_occ,
            sq_occ=thread.sq_occ,
            irf_occ=thread.irf_occ,
            branches_in_rob=thread.branches_in_rob,
            fetchq=list(thread.fetchq),
            rob=list(thread.rob),
            completion=dict(thread.completion),
        )
        for thread in pipeline.threads
    ]
    return dict(
        cycle=pipeline.cycle,
        rr_counter=pipeline._rr_counter,
        allowances=pipeline.allowances,
        rename_activity=pipeline.rename_activity,
        mem_rng=pipeline._mem_rng.getstate(),
        sq_releases=sorted(pipeline._sq_releases),
        threads=threads,
        iq=iq_in_age_order(pipeline),
    )


def hc_config(config, epoch_cycles):
    return HillClimbingConfig(
        iq_size=config.iq_size,
        delta=1.0,
        epoch_cycles=epoch_cycles,
        min_allowance=min(8.0, config.iq_size / 4),
    )


def run_static(pipeline, policy, config, epochs, epoch_cycles, use_kernel):
    log = []
    run_static_policy(
        pipeline, policy, epochs, hc_config(config, epoch_cycles),
        use_kernel=use_kernel, epoch_log=log,
    )
    return log


def run_bandit(pipeline, config, epochs, epoch_cycles, seed, use_kernel):
    log = []
    controller = BanditFetchController(
        pipeline,
        config=SMTBanditConfig(
            step_epochs=2,
            step_epochs_rr=2,
            hill_climbing=hc_config(config, epoch_cycles),
            seed=seed,
        ),
        use_kernel=use_kernel,
        epoch_log=log,
    )
    controller.run_epoch_budget(epochs)
    return log, controller.arm_history


def three_paths(mix, policy, config, seed):
    """Fresh (scan, kernel, object) pipelines on identical seeds."""
    scan = ScanPipeline(list(mix), policy, config, seed=seed)
    assert not kernel_eligible(scan)
    return (
        scan,
        SMTPipeline(list(mix), policy, config, seed=seed),
        SMTPipeline(list(mix), policy, config, seed=seed),
    )


def assert_static_equivalent(mix, policy, config, seed, epochs, epoch_cycles):
    scan, kernel, objct = three_paths(mix, policy, config, seed)
    scan_log = run_static(scan, policy, config, epochs, epoch_cycles, None)
    kernel_log = run_static(kernel, policy, config, epochs, epoch_cycles, True)
    object_log = run_static(objct, policy, config, epochs, epoch_cycles, False)
    assert len(scan_log) == epochs
    compare_step_logs(kernel_log, scan_log, context="kernel-vs-scan")
    compare_step_logs(object_log, scan_log, context="object-vs-scan")
    reference = end_state(scan)
    assert end_state(kernel) == reference
    assert end_state(objct) == reference
    return scan


# ------------------------------------------------------------------ tests


class TestStaticPolicies:
    @pytest.mark.parametrize(
        "policy", BANDIT_PG_ARMS, ids=lambda policy: policy.mnemonic
    )
    @pytest.mark.parametrize("seed", [0, 5])
    def test_every_bandit_arm(self, policy, seed):
        assert_static_equivalent(
            MIXES["gcc-lbm"], policy, SMTConfig(), seed,
            epochs=8, epoch_cycles=150,
        )

    @pytest.mark.parametrize("mnemonic", ["RR_0000", "IC_1011", "BrC_0101"])
    def test_priorities(self, mnemonic):
        assert_static_equivalent(
            MIXES["mcf-x264"], PGPolicy.from_mnemonic(mnemonic), SMTConfig(),
            seed=3, epochs=8, epoch_cycles=150,
        )

    @pytest.mark.parametrize("name", sorted(SMALL_CONFIGS))
    @pytest.mark.parametrize("mnemonic", ["RR_1111", "IC_1000", "BrC_0000"])
    def test_small_configs(self, name, mnemonic):
        scan = assert_static_equivalent(
            MIXES["gcc-lbm"], PGPolicy.from_mnemonic(mnemonic),
            SMALL_CONFIGS[name], seed=11, epochs=6, epoch_cycles=150,
        )
        assert scan.rename_activity.stalled_iq > 0

    def test_run_past_the_completion_prune(self):
        scan = assert_static_equivalent(
            MIXES["gcc-lbm"], CHOI_POLICY, SMTConfig(), seed=2,
            epochs=15, epoch_cycles=300,
        )
        assert scan.cycle > 4096
        # The prune at cycle 4096 dropped the oldest completion entries.
        assert min(scan.threads[0].completion) > 1


class TestBanditRuns:
    @pytest.mark.parametrize("seed", [0, 4, 9])
    def test_bandit_bit_identical(self, seed):
        config = SMTConfig()
        mix = MIXES["gcc-lbm"] if seed % 2 == 0 else MIXES["mcf-x264"]
        scan, kernel, objct = three_paths(mix, BANDIT_PG_ARMS[0], config, seed)
        scan_log, scan_arms = run_bandit(scan, config, 16, 150, seed, None)
        kernel_log, kernel_arms = run_bandit(kernel, config, 16, 150, seed, True)
        object_log, object_arms = run_bandit(objct, config, 16, 150, seed, False)
        compare_step_logs(kernel_log, scan_log, context="kernel-vs-scan")
        compare_step_logs(object_log, scan_log, context="object-vs-scan")
        assert kernel_arms == object_arms == scan_arms
        assert len(set(scan_arms)) == len(BANDIT_PG_ARMS)
        reference = end_state(scan)
        assert end_state(kernel) == reference
        assert end_state(objct) == reference


def _crafted_stream(pattern):
    """Endless uop stream cycling through ``pattern`` (kind, dep1, dep2)."""
    return ((kind, dep1, dep2, False) for kind, dep1, dep2 in itertools.cycle(pattern))


class TestCraftedDependences:
    def _run(self, patterns, config=SMTConfig(), epochs=6):
        scan, kernel, objct = three_paths(
            MIXES["gcc-lbm"], CHOI_POLICY, config, seed=6
        )
        for pipeline in (scan, kernel, objct):
            for thread, pattern in zip(pipeline.threads, patterns):
                thread.stream = _crafted_stream(pattern)
        logs = [
            run_static(pipeline, CHOI_POLICY, config, epochs, 150, use_kernel)
            for pipeline, use_kernel in ((scan, None), (kernel, True),
                                         (objct, False))
        ]
        compare_step_logs(logs[1], logs[0], context="kernel-vs-scan")
        compare_step_logs(logs[2], logs[0], context="object-vs-scan")
        reference = end_state(scan)
        assert end_state(kernel) == reference
        assert end_state(objct) == reference
        return scan

    def test_both_sources_on_one_producer(self):
        # dep1 == dep2: one producer, registered once, woken once.
        pattern = [
            (KIND_LOAD, 0, 0),
            (KIND_ALU, 1, 1),
            (KIND_LONG, 1, 1),
            (KIND_ALU, 2, 2),
            (KIND_STORE, 3, 3),
        ]
        scan = self._run([pattern, pattern[::-1]])
        assert scan.per_thread_committed() > (0, 0)

    def test_sources_committed_before_the_consumer_renames(self):
        # A thread holds at most rob_size (224) uops in flight, so a source
        # 250 uops back has always committed by the consumer's rename.
        pattern = [
            (KIND_ALU, 250, 0),
            (KIND_LOAD, 250, 251),
            (KIND_ALU, 1, 250),
            (KIND_LONG, 0, 252),
        ]
        scan = self._run([pattern, pattern[1:] + pattern[:1]], epochs=12)
        assert min(scan.per_thread_committed()) > 250

    def test_mixed_chains_on_a_small_iq(self):
        pattern = [
            (KIND_LOAD, 0, 0),
            (KIND_LOAD, 1, 0),
            (KIND_ALU, 1, 2),
            (KIND_ALU, 3, 3),
            (KIND_BRANCH, 1, 0),
            (KIND_STORE, 2, 5),
        ]
        self._run(
            [pattern, pattern[2:] + pattern[:2]],
            SMTConfig(iq_size=6, issue_width=1, dram_latency=450),
        )


class TestPathHandoff:
    @pytest.mark.parametrize("first_kernel", [True, False])
    def test_switch_paths_mid_run(self, first_kernel):
        # Same pipeline object, first half on one path, second on the
        # other; the IQ state each path leaves must drive the other.
        config = SMTConfig()
        mix = MIXES["gcc-lbm"]
        scan, _, switched = three_paths(mix, CHOI_POLICY, config, seed=8)
        scan_log = []
        switched_log = []
        for use_kernel in (first_kernel, not first_kernel):
            scan_log += run_static(scan, CHOI_POLICY, config, 5, 200, None)
            switched_log += run_static(
                switched, CHOI_POLICY, config, 5, 200, use_kernel
            )
            assert iq_in_age_order(switched) == iq_in_age_order(scan)
        compare_step_logs(switched_log, scan_log, context="handoff-vs-scan")
        assert end_state(switched) == end_state(scan)
