"""Unit and property tests for the set-associative cache."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import Cache
from repro.params import CACHE_LINE_BYTES, CacheParams


def tiny_cache(size=1024, ways=2) -> Cache:
    return Cache(CacheParams(size_bytes=size, ways=ways,
                             latency_cycles=1, mshrs=4))


class TestBasics:
    def test_cold_miss_then_hit(self):
        c = tiny_cache()
        assert not c.access(0x100, is_write=False).hit
        assert c.access(0x100, is_write=False).hit

    def test_same_line_different_offsets_hit(self):
        c = tiny_cache()
        c.access(0x100, False)
        assert c.access(0x100 + CACHE_LINE_BYTES - 1, False).hit

    def test_adjacent_lines_are_distinct(self):
        c = tiny_cache()
        c.access(0x100, False)
        assert not c.access(0x100 + CACHE_LINE_BYTES, False).hit

    def test_probe_does_not_change_state(self):
        c = tiny_cache()
        assert not c.probe(0x40)
        assert c.accesses == 0
        c.access(0x40, False)
        assert c.probe(0x40)
        assert c.accesses == 1

    def test_stats_counts(self):
        c = tiny_cache()
        c.access(0, False)
        c.access(0, False)
        c.access(4096, False)
        assert c.accesses == 3
        assert c.hits == 1
        assert c.misses == 2
        assert c.hit_rate() == pytest.approx(1 / 3)


class TestLRU:
    def test_lru_eviction_order(self):
        # 2-way cache: fill a set with A, B; touch A; insert C -> B evicted
        c = tiny_cache(size=2 * 64, ways=2)  # one set, 2 ways
        assert c.num_sets == 1
        a, b, new = 0 * 64, 1 * 64, 2 * 64
        c.access(a, False)
        c.access(b, False)
        c.access(a, False)  # A becomes MRU
        out = c.access(new, False)
        assert out.evicted is not None
        assert out.evicted[0] == c.line_of(b)
        assert c.probe(a) and not c.probe(b)

    def test_dirty_eviction_reports_writeback(self):
        c = tiny_cache(size=2 * 64, ways=2)
        c.access(0, is_write=True)
        c.access(64, False)
        out = c.access(128, False)
        assert out.evicted == (0, True)
        assert c.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        c = tiny_cache(size=2 * 64, ways=2)
        c.access(0, False)
        c.access(64, False)
        out = c.access(128, False)
        assert out.evicted == (0, False)
        assert c.writebacks == 0

    def test_write_hit_marks_dirty(self):
        c = tiny_cache(size=2 * 64, ways=2)
        c.access(0, False)
        c.access(0, is_write=True)  # now dirty
        c.access(64, False)
        out = c.access(128, False)
        assert out.evicted == (0, True)


class TestFillInvalidate:
    def test_fill_then_hit(self):
        c = tiny_cache()
        assert c.fill(0x200) is None
        assert c.access(0x200, False).hit
        assert c.misses == 0

    def test_prefetch_fill_counted(self):
        c = tiny_cache()
        c.fill(0x200, is_prefetch=True)
        assert c.prefetch_fills == 1

    def test_fill_existing_line_upgrades_dirty(self):
        c = tiny_cache(size=2 * 64, ways=2)
        c.fill(0)
        c.fill(0, dirty=True)
        c.fill(64)
        out = c.fill(128)
        assert out == (0, True)

    def test_invalidate_returns_dirty(self):
        c = tiny_cache()
        c.access(0, is_write=True)
        assert c.invalidate(0) is True
        assert not c.probe(0)

    def test_invalidate_missing_is_false(self):
        c = tiny_cache()
        assert c.invalidate(0) is False

    def test_invalidate_range(self):
        c = tiny_cache()
        c.access(0, is_write=True)
        c.access(64, is_write=True)
        c.access(128, False)
        dirty = c.invalidate_range(0, 192)
        assert dirty == 2
        assert c.occupancy == 0


class TestGeometry:
    def test_bad_line_size_rejected(self):
        with pytest.raises(ValueError):
            Cache(CacheParams(size_bytes=960, ways=2, latency_cycles=1,
                              mshrs=1, line_bytes=48))

    def test_occupancy_bounded_by_capacity(self):
        c = tiny_cache(size=1024, ways=2)  # 16 lines
        for i in range(100):
            c.access(i * 64, False)
        assert c.occupancy <= 16


class TestProperties:
    @given(
        addrs=st.lists(
            st.integers(min_value=0, max_value=1 << 20), min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_occupancy_never_exceeds_ways_per_set(self, addrs):
        c = tiny_cache(size=512, ways=2)
        for a in addrs:
            c.access(a, False)
        for cset in c._sets:
            assert len(cset) <= c.ways

    @given(
        addrs=st.lists(
            st.integers(min_value=0, max_value=1 << 16), min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_hits_plus_misses_equals_accesses(self, addrs):
        c = tiny_cache()
        for a in addrs:
            c.access(a, a % 3 == 0)
        assert c.hits + c.misses == c.accesses

    @given(
        addrs=st.lists(
            st.integers(min_value=0, max_value=1 << 14), min_size=1,
            max_size=100,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_resident_lines_probe_consistent(self, addrs):
        """Every line the cache reports resident must probe as present."""
        c = tiny_cache(size=512, ways=2)
        for a in addrs:
            c.access(a, False)
        for line in c.resident_lines():
            assert c.probe(line * CACHE_LINE_BYTES)

    @given(
        addrs=st.lists(
            st.integers(min_value=0, max_value=1 << 14),
            min_size=1, max_size=60,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_small_working_set_all_hits_after_warmup(self, addrs):
        """Property: rereferencing a sub-capacity working set never misses."""
        c = Cache(CacheParams(size_bytes=64 * 1024, ways=16,
                              latency_cycles=1, mshrs=4))
        for a in addrs:
            c.access(a, False)
        before = c.misses
        for a in addrs:
            assert c.access(a, False).hit
        assert c.misses == before


class TestInvalidateRangeOccupancyWalk:
    """Flushing a multi-MB object through a small (ACP-sized) cache must
    walk the resident tags, not every line in the range, and must report
    exactly the same dirty count and end state as the per-line reference."""

    def _populated_pair(self):
        walk = tiny_cache()       # 1 KB, 16 lines: range >> capacity
        ref = tiny_cache()
        for k, cache in enumerate((walk, ref)):
            for i in range(40):   # with conflict evictions along the way
                cache.access(0x10_0000 + i * 3 * CACHE_LINE_BYTES, i % 2 == 0)
        return walk, ref

    def test_huge_range_matches_per_line_reference(self):
        walk, ref = self._populated_pair()
        base, size = 0, 64 * 1024 * 1024  # 64 MB span over a 1 KB cache
        assert (size // CACHE_LINE_BYTES) > walk.occupancy
        dirty_walk = walk.invalidate_range(base, size)
        # reference: probe line by line (what the occupancy walk replaces)
        dirty_ref = 0
        for line in sorted(ref.resident_lines()):
            if ref.invalidate(line * CACHE_LINE_BYTES):
                dirty_ref += 1
        assert dirty_walk == dirty_ref
        assert walk.occupancy == 0
        assert walk.writebacks == ref.writebacks
        assert walk.invalidations == ref.invalidations

    def test_huge_range_respects_bounds(self):
        walk, _ = self._populated_pair()
        resident_before = set(walk.resident_lines())
        # a huge range that still misses every resident line: no-op
        dirty = walk.invalidate_range(0x4000_0000, 64 * 1024 * 1024)
        assert dirty == 0
        assert set(walk.resident_lines()) == resident_before

    def test_small_range_unchanged(self):
        c = tiny_cache()
        c.access(0x100, True)
        c.access(0x100 + CACHE_LINE_BYTES, False)
        assert c.invalidate_range(0x100, 2 * CACHE_LINE_BYTES) == 1
        assert c.occupancy == 0

