"""Three-level cache hierarchy with prefetching, in the ChampSim style.

Matches the paper's setup (§6.1): the prefetcher under test sits at the L2,
is trained on L1 misses, and fills prefetched lines into the L2 and the LLC.
An optional L1 prefetcher (Figure 12's multi-level configurations) trains on
L1 demand accesses and fills the L1.

Timing contract: callers present demand accesses in non-decreasing cycle
order (the trace-driven core guarantees this); ``load`` returns the cycle at
which the data is available. Stores are write-allocate but non-blocking (the
store buffer hides their latency from commit), which is how trace-driven
prefetching studies typically treat them.

This is the object path: one readable demand path (``_demand_access``) and
one body per fill level, built on ``Cache.lookup``/``Cache.insert`` so plain
and replacement-policy caches share them. The fused replay kernel
(:mod:`repro.core_model.replay_kernel`) restates the same semantics for
speed; ``# repro: mirror`` tags pair the two, and the equivalence sanitizer
(``REPRO_SANITIZE=1``) checks the kernel against this code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.prefetch.base import Prefetcher
from repro.uncore.cache import LINE_DIRTY, LINE_PREFETCHED, Cache
from repro.uncore.dram import DRAMModel
from repro.uncore.mshr import MSHR
from repro.workloads.trace import BLOCK_SHIFT


@dataclass(frozen=True)
class HierarchyConfig:
    """Cache geometry and latencies (defaults = Table 4 / Intel Skylake)."""

    l1_size_bytes: int = 32 * 1024
    l1_ways: int = 8
    l2_size_bytes: int = 256 * 1024
    l2_ways: int = 8
    llc_size_bytes: int = 2 * 1024 * 1024
    llc_ways: int = 16
    block_bytes: int = 64
    l1_latency: float = 4.0
    l2_latency: float = 14.0
    llc_latency: float = 40.0
    dram_latency: float = 200.0
    dram_mtps: float = 2400.0
    core_frequency_ghz: float = 4.0
    mshr_entries: int = 64
    max_inflight_prefetches: int = 32


@dataclass
class PrefetchOutcome:
    """Prefetch classification counters (Figure 9)."""

    issued: int = 0
    timely: int = 0
    late: int = 0
    wrong: int = 0
    dropped: int = 0

    def useful(self) -> int:
        return self.timely + self.late


@dataclass
class HierarchyStats:
    """Demand-side counters for one hierarchy instance."""

    loads: int = 0
    stores: int = 0
    l2_demand_accesses: int = 0
    l2_demand_hits: int = 0
    llc_demand_accesses: int = 0
    llc_demand_hits: int = 0
    dram_demand_fills: int = 0
    writebacks: int = 0
    prefetch: PrefetchOutcome = field(default_factory=PrefetchOutcome)

    @property
    def l2_demand_misses(self) -> int:
        return self.l2_demand_accesses - self.l2_demand_hits

    @property
    def llc_demand_misses(self) -> int:
        return self.llc_demand_accesses - self.llc_demand_hits


class CacheHierarchy:
    """Private L1+L2 over a (possibly shared) LLC and DRAM."""

    def __init__(
        self,
        config: HierarchyConfig = HierarchyConfig(),
        l2_prefetcher: Optional[Prefetcher] = None,
        l1_prefetcher: Optional[Prefetcher] = None,
        shared_llc: Optional[Cache] = None,
        shared_dram: Optional[DRAMModel] = None,
    ) -> None:
        self.config = config
        self.l1 = Cache("L1D", config.l1_size_bytes, config.l1_ways,
                        config.block_bytes)
        self.l2 = Cache("L2", config.l2_size_bytes, config.l2_ways,
                        config.block_bytes)
        self.llc = shared_llc if shared_llc is not None else Cache(
            "LLC", config.llc_size_bytes, config.llc_ways, config.block_bytes
        )
        self.dram = shared_dram if shared_dram is not None else DRAMModel(
            latency_cycles=config.dram_latency,
            mtps=config.dram_mtps,
            core_frequency_ghz=config.core_frequency_ghz,
        )
        self.l2_prefetcher = l2_prefetcher
        self.l1_prefetcher = l1_prefetcher
        self.mshr = MSHR(config.mshr_entries)
        self.stats = HierarchyStats()
        self._inflight_prefetches = 0

    # ------------------------------------------------------------- demand API

    def load(self, pc: int, address: int, cycle: float) -> float:
        """Demand load; returns the data-ready cycle."""
        self.stats.loads += 1
        return self._demand_access(pc, address, cycle, is_write=False)

    def store(self, pc: int, address: int, cycle: float) -> float:
        """Demand store (write-allocate, non-blocking for the core)."""
        self.stats.stores += 1
        self._demand_access(pc, address, cycle, is_write=True)
        return cycle + self.config.l1_latency

    # --------------------------------------------------------------- internals

    # repro: mirror[demand-path]
    def _demand_access(
        self, pc: int, address: int, cycle: float, *, is_write: bool
    ) -> float:
        """The demand path: L1 probe, L2/LLC/DRAM miss path, fills, prefetch.

        This is the oracle the fused replay kernel is checked against
        (``REPRO_SANITIZE=1``): every cache level goes through its own
        ``lookup``/``insert``, so replacement-policy caches need no
        separate path. Line flags are the :mod:`repro.uncore.cache`
        encoding (bit0 prefetched, bit1 used, bit2 dirty).
        """
        config = self.config
        block = address >> BLOCK_SHIFT
        mshr = self.mshr
        if mshr.has_inflight:
            mshr.drain_completed(cycle, self._install_fill)

        l1 = self.l1
        line = l1.lookup(block)
        if line is not None and is_write:
            l1.set_flags(block, line | LINE_DIRTY)
        if self.l1_prefetcher is not None:
            self._run_l1_prefetcher(pc, block, cycle, hit=line is not None)
        if line is not None:
            return cycle + config.l1_latency

        # L1 miss -> L2 demand access; this stream trains the L2 prefetcher.
        stats = self.stats
        l2_cycle = cycle + config.l1_latency
        stats.l2_demand_accesses += 1
        l2_line = self.l2.lookup(block)
        if l2_line is not None:
            stats.l2_demand_hits += 1
            if l2_line & LINE_PREFETCHED:
                # First demand use of a prefetched, resident line: timely.
                stats.prefetch.timely += 1
                self.l2.set_flags(block, l2_line & ~LINE_PREFETCHED)
            ready = l2_cycle + config.l2_latency
        else:
            ready = self._l2_miss(block, l2_cycle)
        self._fill_l1(block, dirty=is_write)
        if self.l2_prefetcher is not None:
            self._run_l2_prefetcher(pc, block, cycle, hit=l2_line is not None)
        return ready

    def _l2_miss(self, block: int, l2_cycle: float) -> float:
        config = self.config
        inflight = self.mshr.lookup(block)
        if inflight is not None:
            ready_cycle, is_prefetch = inflight
            if is_prefetch:
                # Demand caught up with an in-flight prefetch: late prefetch.
                self.stats.prefetch.late += 1
                self.mshr.promote_to_demand(block)
                self._inflight_prefetches -= 1
            return max(ready_cycle, l2_cycle + config.l2_latency)

        llc_cycle = l2_cycle + config.l2_latency
        self.stats.llc_demand_accesses += 1
        llc_line = self.llc.lookup(block)
        if llc_line is not None:
            self.stats.llc_demand_hits += 1
            ready = llc_cycle + config.llc_latency
            self._fill_l2(block, 0)
            return ready

        # DRAM fill through the MSHR.
        ready = self.dram.access(llc_cycle + config.llc_latency)
        self.stats.dram_demand_fills += 1
        if not self.mshr.full:
            self.mshr.allocate(block, ready, is_prefetch=False)
        else:
            # MSHR pressure: the fill still happens, just untracked (the
            # demand has already paid its latency).
            self._install_fill(block, ready, False)
        return ready

    # ---------------------------------------------------------------- fills

    def _install_fill(self, block: int, ready_cycle: float, is_prefetch: bool) -> None:
        line = 0
        if is_prefetch:
            self._inflight_prefetches -= 1
            line = LINE_PREFETCHED
        self._fill_l2(block, line)
        self._fill_llc(block, line)

    def _fill_l1(self, block: int, *, dirty: bool) -> None:
        victim = self.l1.insert(block, dirty=dirty)
        if victim is not None and victim[1] & LINE_DIRTY:
            # L1 writeback lands in L2 (no DRAM traffic).
            self._fill_l2(victim[0], LINE_DIRTY)

    # repro: mirror[fill-l2]
    def _fill_l2(self, block: int, line: int) -> None:
        """Fill ``block`` into L2; ``line`` holds its prefetched/dirty flags.

        A resident block only absorbs the dirty bit (``Cache.insert``). The
        evicted line's flags decide the wrong-prefetch count (``flags & 3
        == LINE_PREFETCHED``: prefetched, never used) and the dirty cascade
        into the LLC.
        """
        victim = self.l2.insert(block, prefetched=bool(line & LINE_PREFETCHED),
                                dirty=bool(line & LINE_DIRTY))
        if victim is not None:
            if victim[1] & 3 == LINE_PREFETCHED:
                self.stats.prefetch.wrong += 1
            if victim[1] & LINE_DIRTY:
                self._fill_llc(victim[0], LINE_DIRTY)

    # repro: mirror[fill-llc]
    def _fill_llc(self, block: int, line: int) -> None:
        victim = self.llc.insert(block, prefetched=bool(line & LINE_PREFETCHED),
                                 dirty=bool(line & LINE_DIRTY))
        if victim is not None and victim[1] & LINE_DIRTY:
            self.stats.writebacks += 1
            # Dirty LLC victims consume DRAM bandwidth; no one waits.
            self.dram.writeback()

    # ------------------------------------------------------------ prefetching

    def _run_l2_prefetcher(
        self, pc: int, block: int, cycle: float, *, hit: bool
    ) -> None:
        candidates = self.l2_prefetcher.observe(pc, block, cycle, hit)
        for candidate in candidates:
            self._issue_l2_prefetch(candidate, cycle)

    def _issue_l2_prefetch(self, block: int, cycle: float) -> None:
        if block < 0:
            return
        config = self.config
        if self.l2.contains(block) or self.mshr.lookup(block) is not None:
            return
        if (
            self._inflight_prefetches >= config.max_inflight_prefetches
            or self.mshr.full
        ):
            self.stats.prefetch.dropped += 1
            return
        self.stats.prefetch.issued += 1
        if self.llc.contains(block):
            ready = cycle + config.l2_latency + config.llc_latency
        else:
            ready = self.dram.access(
                cycle + config.l2_latency + config.llc_latency, is_prefetch=True
            )
        self.mshr.allocate(block, ready, is_prefetch=True)
        self._inflight_prefetches += 1

    def _run_l1_prefetcher(
        self, pc: int, block: int, cycle: float, *, hit: bool
    ) -> None:
        candidates = self.l1_prefetcher.observe(pc, block, cycle, hit)
        for candidate in candidates:
            if candidate < 0 or self.l1.contains(candidate):
                continue
            # L1 prefetches are modeled as contents-only fills pulled from
            # the lower levels; they reuse the L2 path for traffic accounting.
            if not self.l2.contains(candidate):
                self._issue_l2_prefetch(candidate, cycle)
            self.l1.insert(candidate)

    # ------------------------------------------------------------- lifecycle

    def finalize(self) -> None:
        """Flush in-flight fills and count never-used prefetched lines."""
        self.mshr.flush(self._install_fill)
        if not self.stats.prefetch.issued:
            # Only issued prefetches ever set a line's prefetched bit.
            return
        wrong = 0
        for cache_set in self.l2._sets:
            for block, flags in cache_set.items():
                if flags & 3 == LINE_PREFETCHED:
                    wrong += 1
                    cache_set[block] = flags & ~LINE_PREFETCHED
        self.stats.prefetch.wrong += wrong
