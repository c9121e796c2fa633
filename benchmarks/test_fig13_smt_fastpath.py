"""Figure 13 on both SMT simulation paths: fused kernel vs per-object loop.

The two benchmarks run the *same* reduced Figure 13 workload (same mixes,
same scale, same seeds) through the fused SMT cycle kernel and the
per-object pipeline. They quantify the kernel's speedup (first recorded
in ``BENCH_PR5.json``; CI gates regressions against the multi-round
``BENCH_PR10.json`` via ``python -m repro.perf``) and double-check
bit-identical outputs across the two paths.

Each test installs its own *uncached* execution context: the session cache
shared by the other figure benchmarks would serve the second path the first
path's results and measure nothing.
"""

import os

from conftest import scaled

from repro.core_model.smt_kernel import KERNEL_ENV
from repro.experiments.figures import fig13_smt_bandit_vs_choi
from repro.experiments.runner import ExecutionContext, use_context
from repro.experiments.smt import SMTScale

SCALE = SMTScale(epoch_cycles=scaled(300), total_epochs=200,
                 step_epochs=2, step_epochs_rr=2)
NUM_MIXES = 4

#: Cross-test stash so the object-path run can check bit-identity against
#: the kernel-path run without paying for a second simulation.
_RESULTS = {}


def _run_uncached(kernel: bool):
    previous = os.environ.get(KERNEL_ENV)
    os.environ[KERNEL_ENV] = "1" if kernel else "0"
    try:
        with use_context(ExecutionContext(jobs=1, cache=None)):
            return fig13_smt_bandit_vs_choi(num_mixes=NUM_MIXES, scale=SCALE)
    finally:
        if previous is None:
            os.environ.pop(KERNEL_ENV, None)
        else:
            os.environ[KERNEL_ENV] = previous


def test_fig13_smt_fastpath_kernel(run_once):
    result = run_once(_run_uncached, kernel=True)
    _RESULTS["kernel"] = result
    print(f"\nkernel path gmean vs Choi: {result['gmean_vs_choi']:.3f}")
    assert result["gmean_vs_choi"] > 0.95


def test_fig13_smt_fastpath_object(run_once):
    result = run_once(_run_uncached, kernel=False)
    print(f"\nobject path gmean vs Choi: {result['gmean_vs_choi']:.3f}")
    assert result["gmean_vs_choi"] > 0.95
    if "kernel" in _RESULTS:
        assert result == _RESULTS["kernel"], (
            "kernel and object paths diverged on identical inputs"
        )
