"""Cache/memory substrate: set-associative caches, MSHRs, DRAM, hierarchy.

This package is the reproduction's stand-in for ChampSim's uncore: a
three-level cache hierarchy (private L1/L2, shared LLC) over a
bandwidth-limited DRAM model with configurable MTPS (Figure 10's sweep).
"""

from repro.uncore.cache import Cache
from repro.uncore.dram import DRAMModel, mtps_to_cycles_per_line
from repro.uncore.hierarchy import (
    CacheHierarchy,
    HierarchyConfig,
    HierarchyStats,
    PrefetchOutcome,
)
from repro.uncore.mshr import MSHR
from repro.uncore.replacement import (
    BRRIP,
    DRRIP,
    LRUReplacement,
    PolicyCache,
    RandomReplacement,
    ReplacementPolicy,
    SRRIP,
)

__all__ = [
    "BRRIP",
    "Cache",
    "CacheHierarchy",
    "DRAMModel",
    "DRRIP",
    "HierarchyConfig",
    "HierarchyStats",
    "LRUReplacement",
    "MSHR",
    "PolicyCache",
    "PrefetchOutcome",
    "RandomReplacement",
    "ReplacementPolicy",
    "SRRIP",
    "mtps_to_cycles_per_line",
]
