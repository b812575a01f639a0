"""Unit and property tests for the set-associative cache."""

import numpy as np
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



def _replay_both(ref: Cache, batch: Cache, lines, make_dirty) -> None:
    """Replay ``lines`` per access on ``ref`` and as one batch on
    ``batch``; every output and every set must agree."""
    n = len(lines)
    exp_hit = np.zeros(n, dtype=bool)
    exp_vline = np.full(n, -1, dtype=np.int64)
    for i, (ln, wr) in enumerate(zip(lines.tolist(), make_dirty.tolist())):
        out = ref.access(ln << ref.line_shift, wr)
        exp_hit[i] = out.hit
        if out.evicted is not None and out.evicted[1]:
            exp_vline[i] = out.evicted[0]
    hit, vline, vdirty = batch.access_batch(lines, make_dirty)
    np.testing.assert_array_equal(hit, exp_hit)
    np.testing.assert_array_equal(vline, exp_vline)
    np.testing.assert_array_equal(vdirty, exp_vline >= 0)
    assert (batch.accesses, batch.hits, batch.misses, batch.writebacks) == (
        ref.accesses, ref.hits, ref.misses, ref.writebacks)
    # LRU order and dirty bits of every set, not just membership
    assert [list(s.items()) for s in batch._sets] == [
        list(s.items()) for s in ref._sets]


def _stream(rng, kind: str, nsets: int, ways: int, home) -> np.ndarray:
    """One stream segment of ``kind`` over the sets in ``home``."""
    def line(tag, k=0):
        return tag * nsets + home[k % len(home)]

    if kind == "cycle":      # periodic interleaving of <= ways + 2 lines
        m = int(rng.integers(1, ways + 3))
        tags = rng.choice(64, m, replace=False)
        return np.array([line(t) for t in tags] * int(rng.integers(1, 6)))
    if kind == "alternate":  # few lines for long: LB lies far back
        m = int(rng.integers(1, max(ways, 2)))
        tags = rng.choice(64, m + 1, replace=False)
        hot = [line(t) for t in tags[:m]] * int(rng.integers(ways, 4 * ways))
        return np.array(hot + [line(tags[m])] + hot[:2 * m])
    if kind == "sweep":      # cold lines, one after another
        start = int(rng.integers(64, 1 << 10))
        return np.array([line(start + i, i) for i in
                         range(int(rng.integers(1, 3 * ways + 2)))])
    if kind == "wide":       # spans more than 2^16 lines: no radix sort
        tags = rng.integers(0, (1 << 17) // nsets + 2, 12)
        return np.array([line(int(t), k) for k, t in enumerate(tags)])
    # random lines of the home sets, each run repeated in program order
    base = rng.integers(0, 3 * ways, int(rng.integers(1, 40)))
    runs = np.array([line(int(t), int(t)) for t in base])
    return np.repeat(runs, rng.integers(1, 4, len(runs)))


class TestReuseDistanceWalk:
    """``Cache.access_batch`` against per-access ``Cache.access`` on
    streams built to reach each branch of the walk: hits inside the
    `ways` window, bounds found by the look-back past it, free ways,
    cold misses, wide line spans and program-order repeats."""

    KINDS = ("cycle", "alternate", "sweep", "wide", "repeat")

    @given(
        ways=st.integers(min_value=1, max_value=16),
        set_bits=st.integers(min_value=0, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=6),
        sizes=st.lists(st.sampled_from(("empty", "one", "full")),
                       min_size=1, max_size=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_access_replay(self, ways, set_bits, seed, kinds,
                                       sizes):
        nsets = 1 << set_bits
        params = CacheParams(size_bytes=nsets * ways * CACHE_LINE_BYTES,
                             ways=ways, latency_cycles=1, mshrs=4)
        ref, batch = Cache(params), Cache(params)
        rng = np.random.default_rng(seed)
        home = rng.choice(nsets, min(nsets, 3), replace=False).tolist()
        # a warm state: partly filled sets, some lines dirty
        for c in (ref, batch):
            warm = np.random.default_rng(seed + 1)
            for tag in warm.integers(0, 2 * ways, 3 * ways):
                c.access(int(tag * nsets + home[tag % len(home)])
                         << c.line_shift, bool(warm.random() < 0.5))
        for size in sizes:
            if size == "empty":
                lines = np.empty(0, dtype=np.int64)
            else:
                parts = [_stream(rng, k, nsets, ways, home) for k in kinds]
                # interleave the segments, each kept in its own order
                keys = np.concatenate([np.sort(rng.random(len(p)))
                                       for p in parts])
                lines = np.concatenate(parts)[np.argsort(keys,
                                                         kind="stable")]
                if size == "one":
                    lines = lines[:1]
            lines = lines.astype(np.int64)
            _replay_both(ref, batch, lines, rng.random(len(lines)) < 0.3)
