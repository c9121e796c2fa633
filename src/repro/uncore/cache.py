"""Set-associative cache with LRU replacement and prefetch metadata.

Each set is a ``Dict[int, int]`` mapping a resident block to its line
flags, packed in the low three bits of a small int:

- bit0 (:data:`LINE_PREFETCHED`) — filled by a prefetch and not yet
  demanded at the L2 (cleared on the first demand hit, which counts the
  prefetch as timely);
- bit1 (:data:`LINE_USED`) — referenced by a lookup since the fill;
- bit2 (:data:`LINE_DIRTY`) — written since the fill.

The ``prefetched``/``used`` pair lets the hierarchy classify prefetches
as timely, late, or wrong (Figure 9): an evicted line with
``flags & 3 == LINE_PREFETCHED`` was a wrong prefetch. The fused replay
kernel (:mod:`repro.core_model.replay_kernel`) works on these same set
dicts, and the dict lane kernel (:mod:`repro.core_model.lane_kernel`)
uses the same bits for its per-lane L2 lines. Timing lives in the
hierarchy; the cache itself is purely a contents model.

Recency is the set's dict insertion order: the LRU line is always the
first key and every recency touch re-appends the block at the MRU end,
so eviction is O(1) and no per-line stamps exist. Overwriting a resident
block's flags in place (``cache_set[block] = flags``) leaves its recency
alone.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

#: Line flag: filled by a prefetch, not yet demanded at the L2.
LINE_PREFETCHED = 1
#: Line flag: referenced by a lookup since the fill.
LINE_USED = 2
#: Line flag: written since the fill.
LINE_DIRTY = 4


class Cache:
    """A set-associative cache indexed by block number.

    ``lookup`` probes and updates recency; ``insert`` allocates (evicting the
    LRU line if the set is full) and returns the victim as ``(block,
    flags)`` so callers can track wrong prefetches and writebacks.
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        ways: int,
        block_bytes: int = 64,
    ) -> None:
        if size_bytes <= 0 or ways <= 0 or block_bytes <= 0:
            raise ValueError("cache geometry values must be positive")
        num_sets, remainder = divmod(size_bytes, ways * block_bytes)
        if remainder or num_sets == 0:
            raise ValueError(
                f"{name}: size {size_bytes} not divisible into {ways}-way sets "
                f"of {block_bytes}B blocks"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.block_bytes = block_bytes
        self.num_sets = num_sets
        self._sets: List[Dict[int, int]] = [{} for _ in range(num_sets)]
        self._resident = 0
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------ API

    def _set_for(self, block: int) -> Dict[int, int]:
        return self._sets[block % self.num_sets]

    def lookup(self, block: int, *, update: bool = True) -> Optional[int]:  # repro: hot
        """Probe for ``block``; on a hit, refresh recency and mark it used.

        Returns the line's flags after the touch, or ``None`` on a miss.
        """
        cache_set = self._sets[block % self.num_sets]
        flags = cache_set.get(block)
        if flags is None:
            self.misses += 1
            return None
        self.hits += 1
        if update:
            # Move to the MRU end of the set's recency order.
            del cache_set[block]
            flags |= LINE_USED
            cache_set[block] = flags
        return flags

    def contains(self, block: int) -> bool:
        """Presence check without touching recency or hit/miss counters."""
        return block in self._sets[block % self.num_sets]

    def set_flags(self, block: int, flags: int) -> None:
        """Overwrite a resident block's flags without touching recency."""
        cache_set = self._sets[block % self.num_sets]
        if block not in cache_set:
            raise KeyError(f"{self.name}: block {block} is not resident")
        cache_set[block] = flags

    def insert(
        self,
        block: int,
        *,
        prefetched: bool = False,
        dirty: bool = False,
    ) -> Optional[Tuple[int, int]]:
        """Allocate ``block``; returns the evicted ``(block, flags)``, if any.

        Re-inserting a resident block refreshes its recency in place (and
        returns ``None``) rather than duplicating it; it keeps its flags,
        absorbing only ``dirty``.
        """
        cache_set = self._sets[block % self.num_sets]
        existing = cache_set.pop(block, None)
        if existing is not None:
            cache_set[block] = (existing | LINE_DIRTY) if dirty else existing
            return None
        victim: Optional[Tuple[int, int]] = None
        if len(cache_set) >= self.ways:
            # The set's first key is its LRU line.
            victim_block = next(iter(cache_set))
            victim = (victim_block, cache_set.pop(victim_block))
            self._resident -= 1
        cache_set[block] = (
            (LINE_PREFETCHED if prefetched else 0)
            | (LINE_DIRTY if dirty else 0)
        )
        self._resident += 1
        return victim

    def invalidate(self, block: int) -> Optional[int]:
        """Remove ``block`` if resident; returns the removed line's flags."""
        flags = self._sets[block % self.num_sets].pop(block, None)
        if flags is not None:
            self._resident -= 1
        return flags

    def occupancy(self) -> int:
        """Number of resident lines (O(1): maintained by insert/invalidate)."""
        return self._resident

    def resident_lines(self) -> Iterator[Tuple[int, int]]:
        """Iterate over all resident ``(block, flags)`` pairs, LRU first per set."""
        for cache_set in self._sets:
            yield from cache_set.items()

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
