"""Tests for the fused SMT cycle kernel and its dual-path sanitizer.

The kernel (:mod:`repro.core_model.smt_kernel`) must be *bit-identical* to
the per-object :class:`~repro.smt.pipeline.SMTPipeline` loop — same floats,
same RNG draw order, same epoch boundaries. These tests pin that contract
plus the dispatch rules (env kill-switch, subclass fallback) and the
sanitizer plumbing that checks the two paths against each other.
"""

import pytest

from repro.core_model.sanitizer import (
    SanitizeDivergence,
    SMTStepRecord,
    compare_step_logs,
)
from repro.core_model.smt_kernel import (
    KERNEL_ENV,
    kernel_eligible,
    kernel_enabled,
)
from repro.experiments.smt import SMTScale, run_smt_bandit, run_smt_static
from repro.smt.pg_policy import BANDIT_PG_ARMS, CHOI_POLICY, ICOUNT_POLICY
from repro.smt.pipeline import SMTPipeline
from repro.workloads.smt import thread_profile

GCC = thread_profile("gcc")
LBM = thread_profile("lbm")
MIX = (GCC, LBM)

#: Small but long enough to cross a completion-prune boundary (cycle 4096).
SCALE = SMTScale(epoch_cycles=300, total_epochs=20)


class TestDispatch:
    def test_kernel_enabled_by_default(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        assert kernel_enabled()

    @pytest.mark.parametrize("value", ["0", "false", "no", "off", "OFF"])
    def test_env_kill_switch(self, monkeypatch, value):
        monkeypatch.setenv(KERNEL_ENV, value)
        assert not kernel_enabled()

    @pytest.mark.parametrize("value", ["1", ""])
    def test_env_on_spellings(self, monkeypatch, value):
        monkeypatch.setenv(KERNEL_ENV, value)
        assert kernel_enabled()

    @pytest.mark.parametrize("value", ["of", "yes please", "2"])
    def test_unknown_env_value_fails_loudly(self, monkeypatch, value):
        monkeypatch.setenv(KERNEL_ENV, value)
        with pytest.raises(ValueError, match="REPRO_SMT_KERNEL"):
            kernel_enabled()
        pipeline = SMTPipeline(list(MIX), CHOI_POLICY, seed=0)
        with pytest.raises(ValueError, match="0, false, no, off"):
            kernel_eligible(pipeline)

    def test_subclass_falls_back_to_object_path(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV, raising=False)

        class InstrumentedPipeline(SMTPipeline):
            pass

        plain = SMTPipeline(list(MIX), CHOI_POLICY, seed=0)
        subclassed = InstrumentedPipeline(list(MIX), CHOI_POLICY, seed=0)
        assert kernel_eligible(plain)
        assert not kernel_eligible(subclassed)

    def test_env_off_disables_eligibility(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "0")
        pipeline = SMTPipeline(list(MIX), CHOI_POLICY, seed=0)
        assert not kernel_eligible(pipeline)


class TestEquivalence:
    @pytest.mark.parametrize("policy", [CHOI_POLICY, ICOUNT_POLICY,
                                        BANDIT_PG_ARMS[2], BANDIT_PG_ARMS[5]])
    def test_static_bit_identical(self, policy):
        kernel = run_smt_static(MIX, policy, SCALE, use_kernel=True)
        objct = run_smt_static(MIX, policy, SCALE, use_kernel=False)
        assert kernel.ipc == objct.ipc
        assert kernel.per_thread == objct.per_thread
        assert kernel.rename == objct.rename

    def test_bandit_bit_identical(self):
        kernel = run_smt_bandit(MIX, SCALE, use_kernel=True)
        objct = run_smt_bandit(MIX, SCALE, use_kernel=False)
        assert kernel.ipc == objct.ipc
        assert kernel.per_thread == objct.per_thread
        assert kernel.rename == objct.rename
        assert kernel.arm_history == objct.arm_history

    def test_epoch_logs_bit_identical(self):
        kernel_log = []
        objct_log = []
        run_smt_bandit(MIX, SCALE, use_kernel=True, _epoch_log=kernel_log)
        run_smt_bandit(MIX, SCALE, use_kernel=False, _epoch_log=objct_log)
        assert len(kernel_log) > 0
        compare_step_logs(kernel_log, objct_log, context="test")

    def test_different_seeds_diverge(self):
        # Sanity: the equality above is meaningful, not vacuous.
        a = run_smt_static(MIX, CHOI_POLICY, SCALE, seed=0, use_kernel=True)
        b = run_smt_static(MIX, CHOI_POLICY, SCALE, seed=7, use_kernel=True)
        assert a.ipc != b.ipc


class TestSanitizer:
    def test_sanitized_static_run_passes(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        plain = run_smt_static(MIX, CHOI_POLICY, SCALE, sanitize=False,
                               use_kernel=True)
        sanitized = run_smt_static(MIX, CHOI_POLICY, SCALE)
        assert sanitized.ipc == plain.ipc

    def test_sanitized_bandit_run_passes(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        plain = run_smt_bandit(MIX, SCALE, sanitize=False, use_kernel=True)
        sanitized = run_smt_bandit(MIX, SCALE)
        assert sanitized.ipc == plain.ipc
        assert sanitized.arm_history == plain.arm_history

    def test_compare_step_logs_reports_field(self):
        a = SMTStepRecord(step=0, committed0=10, committed1=9, cycles=200.0,
                          ipc=0.095)
        b = SMTStepRecord(step=0, committed0=10, committed1=8, cycles=200.0,
                          ipc=0.095)
        with pytest.raises(SanitizeDivergence) as excinfo:
            compare_step_logs([a], [b], context="test")
        assert "committed1" in str(excinfo.value)

    def test_compare_step_logs_reports_estimator_state(self):
        a = SMTStepRecord(step=0, committed0=1, committed1=1, cycles=1.0,
                          ipc=2.0, arm=3, reward_estimates=(0.5, 0.25))
        b = SMTStepRecord(step=0, committed0=1, committed1=1, cycles=1.0,
                          ipc=2.0, arm=3, reward_estimates=(0.5, 0.125))
        with pytest.raises(SanitizeDivergence) as excinfo:
            compare_step_logs([a], [b], context="test")
        assert "reward_estimates" in str(excinfo.value)

    def test_compare_step_logs_length_mismatch(self):
        record = SMTStepRecord(step=0, committed0=1, committed1=1,
                               cycles=1.0, ipc=2.0)
        with pytest.raises(SanitizeDivergence):
            compare_step_logs([record], [], context="test")
