"""Tests for the L2 stride prefetcher."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import StridePrefetcher


class TestStrideDetection:
    def test_no_prefetch_on_first_touches(self):
        pf = StridePrefetcher(confirm=2)
        assert pf.observe(1, 0) == []
        assert pf.observe(1, 64) == []

    def test_prefetch_after_confirmation(self):
        pf = StridePrefetcher(confirm=2, degree=2)
        pf.observe(1, 0)
        pf.observe(1, 64)
        out = pf.observe(1, 128)
        assert out == [192, 256]

    def test_stride_change_resets_confidence(self):
        pf = StridePrefetcher(confirm=2)
        pf.observe(1, 0)
        pf.observe(1, 64)
        pf.observe(1, 128)
        assert pf.observe(1, 1000) == []  # stride broke
        assert pf.observe(1, 1064) == []  # confidence rebuilding

    def test_negative_stride_supported(self):
        pf = StridePrefetcher(confirm=2, degree=1)
        pf.observe(1, 1024)
        pf.observe(1, 960)
        out = pf.observe(1, 896)
        assert out == [832]

    def test_negative_targets_dropped(self):
        pf = StridePrefetcher(confirm=2, degree=4)
        pf.observe(1, 128)
        pf.observe(1, 64)
        out = pf.observe(1, 0)
        assert all(a >= 0 for a in out)

    def test_zero_stride_never_prefetches(self):
        pf = StridePrefetcher(confirm=1)
        for _ in range(10):
            out = pf.observe(1, 512)
        assert out == []

    def test_streams_tracked_independently(self):
        pf = StridePrefetcher(confirm=2, degree=1)
        pf.observe(1, 0)
        pf.observe(2, 10_000)
        pf.observe(1, 64)
        pf.observe(2, 10_128)
        assert pf.observe(1, 128) == [192]
        assert pf.observe(2, 10_256) == [10_384 // 64 * 64]

    def test_small_stride_dedups_same_line(self):
        """Sub-line strides must not prefetch the same line repeatedly."""
        pf = StridePrefetcher(confirm=2, degree=2)
        pf.observe(1, 0)
        pf.observe(1, 8)
        out = pf.observe(1, 16)
        lines = [a // 64 for a in out]
        assert len(lines) == len(set(lines))
        assert 16 // 64 not in lines  # current line excluded

    def test_table_capacity_evicts_fifo(self):
        pf = StridePrefetcher(table_size=2, confirm=2, degree=1)
        pf.observe(1, 0)
        pf.observe(2, 0)
        pf.observe(3, 0)  # evicts stream 1
        pf.observe(1, 64)  # stream 1 re-learns from scratch
        assert pf.observe(1, 128) == []

    def test_issued_counter(self):
        pf = StridePrefetcher(confirm=2, degree=2)
        pf.observe(1, 0)
        pf.observe(1, 64)
        pf.observe(1, 128)
        assert pf.issued == 2

    def test_bad_table_size(self):
        with pytest.raises(ValueError):
            StridePrefetcher(table_size=0)


@st.composite
def observed_streams(draw):
    """Prefetcher shape, (stream, address) accesses and chunk cuts.

    Strides come from a small set with zero and negative members, so
    runs of equal strides build confidence, repeats reset it, and
    walks near address 0 aim prefetches below it. Up to eight streams
    against a table of one to eight entries: some batches overflow the
    table and take the per-access fallback.
    """
    shape = dict(table_size=draw(st.integers(1, 8)),
                 confirm=draw(st.integers(1, 3)),
                 degree=draw(st.integers(1, 3)),
                 line_bytes=draw(st.sampled_from([8, 64])))
    n = draw(st.integers(0, 120))
    sids = draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))
    strides = draw(st.lists(st.sampled_from([0, 8, 64, -8, -64, 200, -200]),
                            min_size=n, max_size=n))
    start = draw(st.integers(0, 600))
    pos = {}
    addrs = []
    for sid, stride in zip(sids, strides):
        pos[sid] = max(pos.get(sid, start + 97 * sid) + stride, 0)
        addrs.append(pos[sid])
    cuts = sorted(set(draw(st.lists(st.integers(0, n), max_size=6))))
    return shape, sids, addrs, cuts


class TestObserveBatch:
    @settings(max_examples=150, deadline=None)
    @given(observed_streams())
    def test_matches_per_access_observe(self, case):
        shape, sids, addrs, cuts = case
        ref = StridePrefetcher(**shape)
        batch = StridePrefetcher(**shape)
        bounds = [0] + cuts + [len(sids)]
        for lo, hi in zip(bounds, bounds[1:]):
            plan = batch.observe_batch(np.array(sids[lo:hi], dtype=np.int64),
                                       np.array(addrs[lo:hi], dtype=np.int64))
            assert plan.shape == (hi - lo, shape["degree"])
            for i, row in enumerate(plan.tolist(), lo):
                assert [a for a in row if a >= 0] == ref.observe(sids[i],
                                                                 addrs[i])
            assert list(batch._table.items()) == list(ref._table.items())
            assert batch.issued == ref.issued
