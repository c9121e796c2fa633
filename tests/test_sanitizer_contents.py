"""The sanitizer's final cache-contents and MSHR comparison.

Hook-free sanitized replays compare more than counters: every cache set's
``(block, flags)`` list (recency order and line flags), the resident
counts, and the MSHR state. These tests hand the comparison two stacks
that differ in exactly one of those and check that the report names the
level and set, and that a kernel which corrupts only state the counters
never read is still caught.
"""

import copy

import pytest

import repro.core_model.trace_core as trace_core_module
from repro.core_model.sanitizer import (
    SanitizeDivergence,
    compare_hierarchy_contents,
)
from repro.core_model.trace_core import TraceCore
from repro.experiments.configs import (
    BASELINE_HIERARCHY_CONFIG,
    CORE_CONFIG_TABLE4,
)
from repro.prefetch.stride import StridePrefetcher
from repro.uncore.cache import LINE_DIRTY, LINE_USED
from repro.uncore.hierarchy import CacheHierarchy
from repro.workloads.compiled import CompiledTrace
from repro.workloads.suites import tune_specs

TRACE_LENGTH = 3000


@pytest.fixture(scope="module")
def compiled_trace():
    spec = tune_specs()[0]
    return CompiledTrace.from_records(spec.trace(TRACE_LENGTH, seed=0))


@pytest.fixture(scope="module")
def replayed_core(compiled_trace):
    core = TraceCore(
        CacheHierarchy(BASELINE_HIERARCHY_CONFIG,
                       l2_prefetcher=StridePrefetcher()),
        CORE_CONFIG_TABLE4,
    )
    core.run_compiled(compiled_trace, sanitize=False)
    return core


def first_set_with(cache, min_lines):
    for index, cache_set in enumerate(cache._sets):
        if len(cache_set) >= min_lines:
            return index, cache_set
    raise AssertionError(f"no {cache.name} set holds {min_lines} lines")


class TestCompareHierarchyContents:
    def test_identical_stacks_pass(self, replayed_core):
        compare_hierarchy_contents(
            replayed_core, copy.deepcopy(replayed_core), "unit"
        )

    @pytest.mark.parametrize("level", ["l1", "l2", "llc"])
    def test_one_flag_bit_is_a_divergence(self, replayed_core, level):
        other = copy.deepcopy(replayed_core)
        index, cache_set = first_set_with(getattr(other.hierarchy, level), 1)
        block = next(iter(cache_set))
        cache_set[block] ^= LINE_DIRTY
        with pytest.raises(SanitizeDivergence) as info:
            compare_hierarchy_contents(replayed_core, other, "unit")
        error = info.value
        assert error.field_name == f"{level}.sets[{index}]"
        assert error.kernel_value != error.object_value
        assert [b for b, _ in error.kernel_value] == [
            b for b, _ in error.object_value
        ]

    @pytest.mark.parametrize("level", ["l1", "l2", "llc"])
    def test_one_sets_order_is_a_divergence(self, replayed_core, level):
        other = copy.deepcopy(replayed_core)
        index, cache_set = first_set_with(getattr(other.hierarchy, level), 2)
        # Touch the LRU line without changing its flags: same lines, new
        # recency order.
        block = next(iter(cache_set))
        cache_set[block] = cache_set.pop(block)
        with pytest.raises(SanitizeDivergence) as info:
            compare_hierarchy_contents(replayed_core, other, "unit")
        error = info.value
        assert error.field_name == f"{level}.sets[{index}]"
        assert sorted(error.kernel_value) == sorted(error.object_value)

    def test_resident_count_is_compared(self, replayed_core):
        other = copy.deepcopy(replayed_core)
        other.hierarchy.l2._resident += 1
        with pytest.raises(SanitizeDivergence) as info:
            compare_hierarchy_contents(replayed_core, other, "unit")
        assert info.value.field_name == "l2.resident"

    def test_mshr_inflight_map_is_compared(self, replayed_core):
        other = copy.deepcopy(replayed_core)
        other.hierarchy.mshr._inflight[-1] = (0.0, True)
        with pytest.raises(SanitizeDivergence) as info:
            compare_hierarchy_contents(replayed_core, other, "unit")
        assert info.value.field_name == "mshr.inflight"

    def test_mshr_heap_is_compared(self, replayed_core):
        other = copy.deepcopy(replayed_core)
        other.hierarchy.mshr._heap.append((0.0, -1))
        with pytest.raises(SanitizeDivergence) as info:
            compare_hierarchy_contents(replayed_core, other, "unit")
        assert info.value.field_name == "mshr.heap"


class TestSanitizedReplay:
    def test_contents_only_corruption_is_caught(self, compiled_trace,
                                                monkeypatch):
        """A kernel bug invisible to every counter still diverges."""
        real_kernel = trace_core_module.run_replay_kernel

        def corrupting(core, *args, **kwargs):
            real_kernel(core, *args, **kwargs)
            # The L1 used bit feeds no counter and no later decision.
            _, cache_set = first_set_with(core.hierarchy.l1, 1)
            block = next(iter(cache_set))
            cache_set[block] ^= LINE_USED

        monkeypatch.setattr(trace_core_module, "run_replay_kernel",
                            corrupting)
        core = TraceCore(CacheHierarchy(BASELINE_HIERARCHY_CONFIG),
                         CORE_CONFIG_TABLE4)
        with pytest.raises(SanitizeDivergence) as info:
            core.run_compiled(compiled_trace, sanitize=True)
        error = info.value
        assert error.context == "run_compiled"
        assert error.field_name.startswith("l1.sets[")
