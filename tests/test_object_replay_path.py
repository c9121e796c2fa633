"""The single object replay path: ``run_compiled`` outside the fused kernel.

Hierarchies the kernel cannot take (an L1 prefetcher, replacement-policy
caches) replay a compiled trace record by record through
``TraceCore.execute``, with ``record_hook`` called after every record.
These tests pin that path to the plain object replay of ``to_records()``,
and pin ``PolicyCache(LRUReplacement())`` levels to plain ``Cache`` levels.
"""

import dataclasses
import types

import pytest

from repro.core_model.sanitizer import compare_hierarchy_contents
from repro.core_model.trace_core import TraceCore
from repro.experiments.configs import CORE_CONFIG_TABLE4, PREFETCH_BANDIT_CONFIG
from repro.experiments.prefetch import run_bandit_prefetch
from repro.prefetch.ip_stride import IPStridePrefetcher
from repro.prefetch.stride import StridePrefetcher
from repro.uncore.cache import Cache
from repro.uncore.hierarchy import CacheHierarchy, HierarchyConfig
from repro.uncore.replacement import LRUReplacement, PolicyCache
from repro.workloads.compiled import CompiledTrace
from repro.workloads.suites import spec_by_name

TRACE_LENGTH = 4000
WORKLOADS = ("mcf06", "milc06", "ligra_bfs")
#: Small caches and a small MSHR, so a short trace evicts at every level,
#: writes back dirty lines, drops prefetches and fills the MSHR.
SMALL_HIERARCHY = HierarchyConfig(
    l1_size_bytes=2 * 1024, l1_ways=4,
    l2_size_bytes=8 * 1024, l2_ways=8,
    llc_size_bytes=32 * 1024, llc_ways=8,
    mshr_entries=8, max_inflight_prefetches=4,
)
#: Bandit steps short enough for many arm selections in a short trace.
BANDIT_PARAMS = dataclasses.replace(PREFETCH_BANDIT_CONFIG, step_l2_accesses=40)


@pytest.fixture(scope="module", params=WORKLOADS)
def compiled_trace(request):
    spec = spec_by_name(request.param)
    return CompiledTrace.from_records(spec.trace(TRACE_LENGTH, seed=0))


def l1_stride_core():
    hierarchy = CacheHierarchy(
        SMALL_HIERARCHY,
        l2_prefetcher=IPStridePrefetcher(),
        l1_prefetcher=StridePrefetcher(degree=2),
    )
    return TraceCore(hierarchy, CORE_CONFIG_TABLE4)


def assert_same_replay(left, right, context):
    assert left.instructions == right.instructions
    assert left.retire_time == right.retire_time
    assert left.dispatch_time == right.dispatch_time
    assert left.hierarchy.stats == right.hierarchy.stats
    for level in ("l1", "l2", "llc"):
        left_cache = getattr(left.hierarchy, level)
        right_cache = getattr(right.hierarchy, level)
        assert (left_cache.hits, left_cache.misses) == (
            right_cache.hits, right_cache.misses
        ), level
    compare_hierarchy_contents(left, right, context)


class TestL1PrefetcherReplay:
    def test_fixed_compiled_matches_record_replay(self, compiled_trace):
        compiled = l1_stride_core()
        calls = []
        compiled.run_compiled(
            compiled_trace, record_hook=lambda core: calls.append(
                core.instructions
            ),
            sanitize=False,
        )
        reference = l1_stride_core()
        reference.run(compiled_trace.to_records())

        assert len(calls) == len(compiled_trace)
        # The hook sees the core state flushed after each record.
        assert calls == sorted(calls) and calls[-1] == compiled.instructions
        assert compiled.hierarchy.stats.prefetch.issued > 0
        assert_same_replay(compiled, reference, "l1-stride fixed")

        compiled.hierarchy.finalize()
        reference.hierarchy.finalize()
        assert_same_replay(compiled, reference, "l1-stride fixed, finalized")

    def test_max_records_truncates_the_object_path(self, compiled_trace):
        compiled = l1_stride_core()
        calls = []
        compiled.run_compiled(
            compiled_trace, max_records=1000,
            record_hook=lambda core: calls.append(1), sanitize=False,
        )
        reference = l1_stride_core()
        reference.run(compiled_trace.to_records(), max_records=1000)
        assert len(calls) == 1000
        assert_same_replay(compiled, reference, "l1-stride max_records")

    def test_bandit_compiled_matches_record_replay(self, compiled_trace,
                                                   monkeypatch):
        calls = []
        hierarchies = []
        run_compiled = TraceCore.run_compiled
        finalize = CacheHierarchy.finalize

        def counting_run_compiled(self, trace, max_records=None,
                                  record_hook=None, **kwargs):
            def hook(core):
                calls.append(core.instructions)
                return record_hook(core)

            return run_compiled(self, trace, max_records, hook, **kwargs)

        def recording_finalize(self):
            hierarchies.append(self)
            finalize(self)

        monkeypatch.setattr(TraceCore, "run_compiled", counting_run_compiled)
        monkeypatch.setattr(CacheHierarchy, "finalize", recording_finalize)

        def run(trace):
            return run_bandit_prefetch(
                trace,
                hierarchy_config=SMALL_HIERARCHY,
                core_config=CORE_CONFIG_TABLE4,
                params=BANDIT_PARAMS,
                seed=0,
                l1_prefetcher=StridePrefetcher(degree=2),
                sanitize=False,
            )

        compiled = run(compiled_trace)
        assert len(calls) == len(compiled_trace)
        # A record list replays through execute directly, not run_compiled.
        reference = run(compiled_trace.to_records())
        assert len(calls) == len(compiled_trace)

        assert compiled.stats == reference.stats
        assert compiled.cycles == reference.cycles
        assert compiled.instructions == reference.instructions
        assert compiled.arm_history == reference.arm_history
        assert compiled.arm_trace == reference.arm_trace
        assert len(compiled.arm_history) > 1
        compiled_hierarchy, reference_hierarchy = hierarchies
        compare_hierarchy_contents(
            types.SimpleNamespace(hierarchy=compiled_hierarchy),
            types.SimpleNamespace(hierarchy=reference_hierarchy),
            "l1-stride bandit",
        )


def lru_policy_core():
    config = SMALL_HIERARCHY
    hierarchy = CacheHierarchy(config, l2_prefetcher=IPStridePrefetcher())
    for level, name, size, ways in (
        ("l1", "L1D", config.l1_size_bytes, config.l1_ways),
        ("l2", "L2", config.l2_size_bytes, config.l2_ways),
        ("llc", "LLC", config.llc_size_bytes, config.llc_ways),
    ):
        setattr(hierarchy, level, PolicyCache(
            name, size, ways, policy=LRUReplacement(),
            block_bytes=config.block_bytes,
        ))
    return TraceCore(hierarchy, CORE_CONFIG_TABLE4)


def test_lru_policy_caches_match_plain_caches(compiled_trace):
    policy = lru_policy_core()
    assert all(
        type(getattr(policy.hierarchy, level)) is PolicyCache
        for level in ("l1", "l2", "llc")
    )
    policy.run_compiled(compiled_trace, sanitize=False)
    plain = TraceCore(
        CacheHierarchy(SMALL_HIERARCHY,
                       l2_prefetcher=IPStridePrefetcher()),
        CORE_CONFIG_TABLE4,
    )
    assert type(plain.hierarchy.l2) is Cache
    plain.run_compiled(compiled_trace, sanitize=False)

    assert plain.hierarchy.stats.prefetch.issued > 0
    assert plain.hierarchy.stats.writebacks + plain.hierarchy.stats.prefetch.wrong > 0
    assert_same_replay(policy, plain, "lru policy caches")
    policy.hierarchy.finalize()
    plain.hierarchy.finalize()
    assert_same_replay(policy, plain, "lru policy caches, finalized")
