"""Tests for the set-associative cache model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.uncore.cache import LINE_DIRTY, LINE_PREFETCHED, LINE_USED, Cache
from repro.uncore.replacement import LRUReplacement, PolicyCache


class TestGeometry:
    def test_set_count(self):
        cache = Cache("L1", size_bytes=32 * 1024, ways=8, block_bytes=64)
        assert cache.num_sets == 64

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            Cache("bad", size_bytes=1000, ways=8, block_bytes=64)
        with pytest.raises(ValueError):
            Cache("bad", size_bytes=0, ways=8)


class TestLookupInsert:
    def make(self):
        # 4 sets × 2 ways.
        return Cache("t", size_bytes=8 * 64, ways=2, block_bytes=64)

    def test_miss_then_hit(self):
        cache = self.make()
        assert cache.lookup(5) is None
        cache.insert(5)
        assert cache.lookup(5) == LINE_USED
        assert cache.hits == 1 and cache.misses == 1

    def test_contains_does_not_count(self):
        cache = self.make()
        cache.insert(5)
        assert cache.contains(5)
        assert not cache.contains(6)
        assert cache.hits == 0 and cache.misses == 0

    def test_lru_eviction_order(self):
        cache = self.make()
        # Blocks 0, 4, 8 map to set 0 (4 sets).
        cache.insert(0)
        cache.insert(4)
        cache.lookup(0)  # refresh 0: now 4 is LRU
        victim = cache.insert(8)
        assert victim is not None and victim[0] == 4
        assert cache.contains(0) and cache.contains(8)

    def test_reinsert_refreshes_in_place(self):
        cache = self.make()
        cache.insert(0)
        cache.insert(4)
        assert cache.insert(0) is None  # refresh, no eviction
        victim = cache.insert(8)
        assert victim[0] == 4

    def test_dirty_preserved_on_reinsert(self):
        cache = self.make()
        cache.insert(0, dirty=True)
        cache.insert(0, dirty=False)
        assert cache.lookup(0) & LINE_DIRTY

    def test_prefetched_and_used_flags(self):
        cache = self.make()
        cache.insert(3, prefetched=True)
        flags = cache.lookup(3)
        assert flags & LINE_PREFETCHED and flags & LINE_USED

    def test_invalidate(self):
        cache = self.make()
        cache.insert(7)
        removed = cache.invalidate(7)
        assert removed == 0  # resident, clean, never used
        assert cache.invalidate(7) is None
        assert not cache.contains(7)

    def test_victim_carries_its_flags(self):
        cache = self.make()
        cache.insert(0, prefetched=True)
        cache.insert(4, dirty=True)
        assert cache.insert(8) == (0, LINE_PREFETCHED)
        assert cache.insert(12) == (4, LINE_DIRTY)

    def test_lookup_without_update_keeps_order_and_flags(self):
        cache = self.make()
        cache.insert(0)
        cache.insert(4)
        assert cache.lookup(0, update=False) == 0
        assert list(cache._sets[0]) == [0, 4]

    def test_set_flags_keeps_recency(self):
        cache = self.make()
        cache.insert(0)
        cache.insert(4)
        cache.set_flags(0, LINE_DIRTY)
        assert list(cache._sets[0].items()) == [(0, LINE_DIRTY), (4, 0)]
        with pytest.raises(KeyError):
            cache.set_flags(8, 0)

    def test_resident_lines_yields_blocks_and_flags(self):
        cache = self.make()
        cache.insert(1, dirty=True)
        cache.insert(0)
        cache.insert(4, prefetched=True)
        assert sorted(cache.resident_lines()) == [
            (0, 0), (1, LINE_DIRTY), (4, LINE_PREFETCHED)
        ]

    def test_reset_stats(self):
        cache = self.make()
        cache.lookup(1)
        cache.reset_stats()
        assert cache.hits == 0 and cache.misses == 0


class TestInvariants:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=200), min_size=1,
                    max_size=300))
    def test_sets_never_exceed_associativity(self, blocks):
        cache = Cache("p", size_bytes=16 * 64, ways=4, block_bytes=64)
        for block in blocks:
            if cache.lookup(block) is None:
                cache.insert(block)
        for cache_set in cache._sets:
            assert len(cache_set) <= cache.ways
        assert cache.occupancy() <= 16

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=1,
                    max_size=200))
    def test_most_recent_block_always_resident(self, blocks):
        cache = Cache("p", size_bytes=8 * 64, ways=2, block_bytes=64)
        for block in blocks:
            if cache.lookup(block) is None:
                cache.insert(block)
            assert cache.contains(block)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=500), min_size=1,
                    max_size=200))
    def test_hits_plus_misses_equals_lookups(self, blocks):
        cache = Cache("p", size_bytes=32 * 64, ways=4, block_bytes=64)
        for block in blocks:
            if cache.lookup(block) is None:
                cache.insert(block)
        assert cache.hits + cache.misses == len(blocks)


class TestRecencyModel:
    """Each set's key order is LRU order, checked against a list model."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["cache", "policy-lru"]),
        st.lists(
            st.tuples(st.sampled_from(["lookup", "insert"]),
                      st.integers(min_value=0, max_value=40),
                      st.booleans(), st.booleans()),
            min_size=1, max_size=300,
        ),
    )
    def test_set_order_and_flags_match_list_lru(self, kind, ops):
        if kind == "cache":
            cache = Cache("p", size_bytes=4 * 3 * 64, ways=3)
        else:
            cache = PolicyCache("p", size_bytes=4 * 3 * 64, ways=3,
                                policy=LRUReplacement())
        # Per set: [block, flags] pairs, least recently used first.
        model = [[] for _ in range(cache.num_sets)]
        for op, block, prefetched, dirty in ops:
            lines = model[block % cache.num_sets]
            resident = [entry for entry in lines if entry[0] == block]
            if op == "lookup":
                flags = cache.lookup(block)
                if resident:
                    entry = resident[0]
                    lines.remove(entry)
                    entry[1] |= LINE_USED
                    lines.append(entry)
                    assert flags == entry[1]
                else:
                    assert flags is None
            else:
                victim = cache.insert(block, prefetched=prefetched,
                                      dirty=dirty)
                if resident:
                    entry = resident[0]
                    lines.remove(entry)
                    if dirty:
                        entry[1] |= LINE_DIRTY
                    lines.append(entry)
                    assert victim is None
                else:
                    expected = (
                        tuple(lines.pop(0)) if len(lines) >= cache.ways
                        else None
                    )
                    assert victim == expected
                    lines.append([block, (LINE_PREFETCHED if prefetched
                                          else 0)
                                  | (LINE_DIRTY if dirty else 0)])
            assert [list(s.items()) for s in cache._sets] == [
                [tuple(entry) for entry in lines] for lines in model
            ]
        assert cache.occupancy() == sum(len(lines) for lines in model)
