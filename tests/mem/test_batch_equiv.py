"""Property tests: batched memory-system entry points == scalar reference.

Two hierarchies built from the same machine parameters replay the same
randomized access stream, one through the ``*_batch`` fast paths and one
access at a time; every observable counter must come out identical —
summed latencies, per-event energy, cache statistics, NoC traffic, DRAM
counters and data movement. This is the micro-level guarantee behind the
whole-run gate in ``tests/sim/test_fastpath_equiv.py``.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.energy import EnergyLedger
from repro.mem import MemoryHierarchy
from repro.mem.cache import Cache
from repro.noc.traffic import TrafficClass
from repro.params import default_machine, experiment_machine

#: the Table III shapes (64-set L1), the scaled-down shapes the
#: experiment matrix and the benchmark run (4-set L1, 8-set L2 and L3
#: slices), and Table III without the L2 prefetcher
MACHINES = {
    "default": default_machine,
    "experiment": experiment_machine,
    "no-prefetcher": lambda: replace(default_machine(),
                                     l2_stride_prefetcher=False),
}


def make_hierarchy(machine=default_machine):
    energy = EnergyLedger()
    return MemoryHierarchy(machine(), energy), energy


def host_stream(seed: int, n: int = 3000):
    """Addresses with sequential runs, same-line repeats, strided walks
    and random pointers — exercising run collapsing, the prefetcher and
    conflict evictions."""
    rng = np.random.default_rng(seed)
    base = 0x1000_0000
    parts = [
        base + np.arange(n // 4, dtype=np.int64) * 8,          # sequential
        base + np.repeat(np.arange(n // 16, dtype=np.int64) * 64, 4),
        base + np.arange(n // 4, dtype=np.int64) * 4096,       # strided
        base + rng.integers(0, 1 << 22, n // 4).astype(np.int64) & ~7,
    ]
    addrs = np.concatenate(parts)[:n]
    is_write = rng.random(len(addrs)) < 0.3
    stream_ids = rng.integers(0, 4, len(addrs)).astype(np.int64)
    return addrs, is_write, stream_ids


def assert_same_state(fast, fast_energy, ref, ref_energy):
    assert fast_energy.by_event() == ref_energy.by_event()
    assert fast_energy.total_pj() == ref_energy.total_pj()
    assert fast.stats().as_dict() == ref.stats().as_dict()
    assert fast.movement_bytes == ref.movement_bytes
    assert fast.dram.reads == ref.dram.reads
    assert fast.dram.writes == ref.dram.writes
    assert fast.traffic.breakdown() == ref.traffic.breakdown()
    assert fast.traffic.total_byte_hops() == ref.traffic.total_byte_hops()
    for a, b in zip([fast.l1, fast.l2, *fast.l3.slices, *fast.acps],
                    [ref.l1, ref.l2, *ref.l3.slices, *ref.acps]):
        assert (a.accesses, a.hits, a.misses, a.writebacks,
                a.prefetch_fills) == (b.accesses, b.hits, b.misses,
                                      b.writebacks, b.prefetch_fills)
        # LRU order and dirty bits, not just membership
        assert [list(s.items()) for s in a._sets] == [
            list(s.items()) for s in b._sets]
    if ref.prefetcher is not None:
        assert list(fast.prefetcher._table.items()) == list(
            ref.prefetcher._table.items())
        assert fast.prefetcher.issued == ref.prefetcher.issued
    assert list(fast._late_prefetch.items()) == list(
        ref._late_prefetch.items())
    assert fast._stats_prefetches == ref._stats_prefetches


def check_host_batch_matches_scalar(machine, seed, late_cap=None):
    """``late_cap`` shrinks the late-prefetch map so that its FIFO
    eviction runs inside the batch walk."""
    addrs, is_write, stream_ids = host_stream(seed)
    fast, fast_energy = make_hierarchy(MACHINES[machine])
    ref, ref_energy = make_hierarchy(MACHINES[machine])
    full_at_note = []
    if late_cap is not None:
        fast.LATE_PREFETCH_CAP = ref.LATE_PREFETCH_CAP = late_cap
        note = ref._note_late_prefetch

        def counting_note(line, residual):
            full_at_note.append(len(ref._late_prefetch) >= late_cap
                                and line not in ref._late_prefetch)
            note(line, residual)

        ref._note_late_prefetch = counting_note

    batch_stall = fast.host_access_batch(addrs, is_write, stream_ids)

    l1_lat = ref.machine.l1.latency_cycles
    scalar_stall = 0
    for addr, w, sid in zip(addrs.tolist(), is_write.tolist(),
                            stream_ids.tolist()):
        lat = ref.host_access(addr, w, stream_id=sid)
        if lat > l1_lat:
            scalar_stall += lat - l1_lat

    assert batch_stall == scalar_stall
    assert_same_state(fast, fast_energy, ref, ref_energy)
    if late_cap is not None:
        assert any(full_at_note)  # the cap evicted residuals


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_host_access_batch_matches_scalar(seed):
    check_host_batch_matches_scalar("default", seed)


@pytest.mark.parametrize("machine,seed,late_cap", [
    *((m, seed, None) for m in MACHINES if m != "default"
      for seed in (0, 1, 2)),
    ("default", 3, 4), ("experiment", 3, 4),
])
def test_host_access_batch_matches_scalar_on_machine(machine, seed, late_cap):
    check_host_batch_matches_scalar(machine, seed, late_cap)


def check_chunking_invariant(machine):
    """Splitting one stream across many batch calls changes nothing."""
    addrs, is_write, stream_ids = host_stream(7)
    whole, whole_energy = make_hierarchy(MACHINES[machine])
    split, split_energy = make_hierarchy(MACHINES[machine])

    total_whole = whole.host_access_batch(addrs, is_write, stream_ids)
    total_split = 0
    for lo in range(0, len(addrs), 257):  # odd chunk to cut runs mid-way
        hi = lo + 257
        total_split += split.host_access_batch(
            addrs[lo:hi], is_write[lo:hi], stream_ids[lo:hi]
        )
    assert total_whole == total_split
    assert_same_state(whole, whole_energy, split, split_energy)


def test_host_access_batch_chunking_invariant():
    check_chunking_invariant("default")


@pytest.mark.parametrize("machine", [m for m in MACHINES if m != "default"])
def test_host_access_batch_chunking_invariant_on_machine(machine):
    check_chunking_invariant(machine)


@pytest.mark.parametrize("is_write", [False, True])
def test_accel_line_fetch_batch_matches_scalar(is_write):
    rng = np.random.default_rng(11)
    addrs = (np.int64(0x1000_0000)
             + rng.integers(0, 1 << 20, 1500).astype(np.int64) * 64)
    fast, fast_energy = make_hierarchy()
    ref, ref_energy = make_hierarchy()

    batch_lat = fast.accel_line_fetch_batch(2, addrs, is_write)
    scalar_lat = sum(
        ref.accel_line_fetch(2, addr, is_write) for addr in addrs.tolist()
    )
    assert batch_lat == scalar_lat
    assert_same_state(fast, fast_energy, ref, ref_energy)


@pytest.mark.parametrize("machine", ["default", "experiment"])
@pytest.mark.parametrize("is_write", [False, True])
def test_accel_line_fetch_batch_single_stripe_chunks(machine, is_write):
    """Chunks that each sit inside one stripe block, the common case in
    an offload run, walk their one home slice as a single group.
    200 chunks of 1-19 lines come from rotating local clusters; each
    home has three stripe blocks, and each block is cut down to four
    sets, so lines hit, conflict and evict."""
    rng = np.random.default_rng(19)
    fast, fast_energy = make_hierarchy(MACHINES[machine])
    ref, ref_energy = make_hierarchy(MACHINES[machine])
    l3 = ref.l3
    stripe_lines = l3.stripe_bytes // 64
    sets = l3.slices[0].num_sets
    batch_lat = scalar_lat = 0
    for c in range(200):
        block = int(rng.integers(0, 3 * l3.num_clusters))
        n = int(rng.integers(1, 20))
        offsets = (rng.integers(0, 4, n)
                   + sets * rng.integers(0, stripe_lines // sets, n))
        addrs = np.int64(0x1000_0000) + (
            block * stripe_lines + offsets).astype(np.int64) * 64
        assert len(set((addrs // l3.stripe_bytes).tolist())) == 1
        local = c % l3.num_clusters
        batch_lat += fast.accel_line_fetch_batch(local, addrs, is_write)
        scalar_lat += sum(ref.accel_line_fetch(local, addr, is_write)
                          for addr in addrs.tolist())
    assert batch_lat == scalar_lat
    assert_same_state(fast, fast_energy, ref, ref_energy)
    # the stream is not vacuous: lines hit and get evicted
    assert sum(s.hits for s in l3.slices) > 0
    assert ref.dram.writes > 0 if is_write else ref.dram.reads > 0
    assert sum(len(s) for slc in l3.slices for s in slc._sets) < sum(
        s.misses for s in l3.slices)


@pytest.mark.parametrize("elem_bytes,is_write",
                         [(4, False), (4, True), (8, False)])
def test_accel_elem_access_batch_matches_scalar(elem_bytes, is_write):
    rng = np.random.default_rng(13)
    addrs = (np.int64(0x2000_0000)
             + rng.integers(0, 1 << 18, 2000).astype(np.int64) * elem_bytes)
    fast, fast_energy = make_hierarchy()
    ref, ref_energy = make_hierarchy()

    batch_lat = fast.accel_elem_access_batch(1, addrs, is_write, elem_bytes)
    scalar_lat = sum(
        ref.accel_elem_access(1, addr, is_write, elem_bytes)
        for addr in addrs.tolist()
    )
    assert batch_lat == scalar_lat
    assert_same_state(fast, fast_energy, ref, ref_energy)


def test_l3_demand_window_matches_scalar():
    """Mono-CA private-cache misses: the pooled window equals per-access
    ``l3_demand``, and both carry the line back as a host-data cache
    fill (no accelerator operand traffic)."""
    rng = np.random.default_rng(17)
    addrs = (np.int64(0x3000_0000)
             + rng.integers(0, 1 << 19, 1200).astype(np.int64) * 64)
    fast, fast_energy = make_hierarchy()
    ref, ref_energy = make_hierarchy()

    window = fast.l3_demand_batch(from_node=3)
    batch_lat = 0
    try:
        for addr in addrs.tolist():
            batch_lat += window.access(addr)
    finally:
        window.flush()
    scalar_lat = sum(
        ref.l3_demand(addr, from_node=3)
        for addr in addrs.tolist()
    )
    assert batch_lat == scalar_lat
    # every fill is CACHE_FILL (host data); nothing is an accelerator
    # operand, and remote homes put the fills on the mesh
    for hier in (fast, ref):
        assert hier.traffic.class_bytes(TrafficClass.ACC_DATA) == 0
        assert hier.traffic.class_bytes(TrafficClass.HOST_DATA) > 0
    assert_same_state(fast, fast_energy, ref, ref_energy)


def mixed_accel_ops(l3, seed: int, n_ops: int = 240):
    """A replayable mix of the offload engine's hierarchy calls from
    rotating local clusters: line chunks inside one stripe block,
    straddling a block boundary, or flooding one slice set with dirty
    lines; element chunks of 4- and 8-byte elements with same-line runs;
    and L3 demand-window accesses. Every line falls in four sets of its
    slice, so slices and ACPs conflict, evict and write back, and the
    floods evict lines that an ACP still holds dirty."""
    rng = np.random.default_rng(seed)
    line = l3.slices[0].params.line_bytes
    stripe_lines = l3.stripe_bytes // line
    sets = l3.slices[0].num_sets
    ncl = l3.num_clusters
    first = 0x1000_0000 // line  # stripe-aligned

    def conflicting_lines(n):
        blocks = rng.integers(0, 3 * ncl, n)
        return (first + blocks * stripe_lines + rng.integers(0, 4, n)
                + sets * rng.integers(0, stripe_lines // sets, n))

    ops = []
    for i in range(n_ops):
        local = i % ncl
        is_write = bool(rng.random() < 0.4)
        kind = i % 3
        if kind == 0 and i % 9 == 0:
            # two blocks of one home: more lines in one set than it has
            # ways
            block = first + int(rng.integers(0, ncl)) * stripe_lines
            lines = block + int(rng.integers(0, 4)) + sets * np.arange(
                stripe_lines // sets)
            lines = np.concatenate([lines, lines + ncl * stripe_lines])
            ops.append(("lines", local, lines * line, True, None))
        elif kind == 0 and i % 2:
            # consecutive lines across the end of a stripe block
            j = int(rng.integers(1, 4))
            start = first + int(rng.integers(1, 3 * ncl)) * stripe_lines - j
            lines = start + np.arange(j + int(rng.integers(1, 6)))
            ops.append(("lines", local, lines * line, is_write, None))
        elif kind == 0:
            block = first + int(rng.integers(0, 3 * ncl)) * stripe_lines
            n = int(rng.integers(1, 12))
            lines = np.unique(block + rng.integers(0, 4, n) + sets
                              * rng.integers(0, stripe_lines // sets, n))
            ops.append(("lines", local, lines * line, is_write, None))
        elif kind == 1:
            elem_bytes = (4, 8)[i % 2]
            runs = rng.integers(1, 7, int(rng.integers(1, 10)))
            heads = conflicting_lines(len(runs)) * line
            addrs = np.concatenate([
                h + elem_bytes * np.arange(r) for h, r in zip(heads, runs)
            ]).astype(np.int64)
            ops.append(("elems", local, addrs, is_write, elem_bytes))
        else:
            addrs = conflicting_lines(int(rng.integers(1, 8))) * line
            ops.append(("window", local, addrs, False, None))
    return ops


@pytest.mark.parametrize("machine", list(MACHINES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_accel_batch_mixed_sequence_matches_scalar(monkeypatch, machine,
                                                   seed):
    """Line chunks, element chunks and demand-window accesses, mixed
    as an offload run mixes them, leave the same state as the scalar
    calls after every chunk, and no batch walk goes through
    ``Cache.access``."""
    fast, fast_energy = make_hierarchy(MACHINES[machine])
    ref, ref_energy = make_hierarchy(MACHINES[machine])

    def forbidden(*args, **kwargs):
        raise AssertionError("batch walk called Cache.access")

    for kind, local, addrs, is_write, elem_bytes in mixed_accel_ops(
            ref.l3, seed):
        with monkeypatch.context() as mp:
            mp.setattr(Cache, "access", forbidden)
            if kind == "lines":
                batch_lat = fast.accel_line_fetch_batch(local, addrs,
                                                        is_write)
            elif kind == "elems":
                batch_lat = fast.accel_elem_access_batch(
                    local, addrs, is_write, elem_bytes)
            else:
                window = fast.l3_demand_batch(from_node=local)
                batch_lat = sum(window.access(a) for a in addrs.tolist())
                window.flush()
        scalar_lat = 0
        for addr in addrs.tolist():
            if kind == "lines":
                scalar_lat += ref.accel_line_fetch(local, addr, is_write)
            elif kind == "elems":
                scalar_lat += ref.accel_elem_access(local, addr, is_write,
                                                    elem_bytes)
            else:
                scalar_lat += ref.l3_demand(addr, from_node=local)
        assert batch_lat == scalar_lat
        assert_same_state(fast, fast_energy, ref, ref_energy)
    # the mix is not vacuous: dirty ACP victims retire into banks, and
    # lines come from DRAM
    assert sum(a.writebacks for a in ref.acps) > 0
    assert ref.dram.reads > 0
    if machine == "experiment":
        assert sum(s.writebacks for s in ref.l3.slices) > 0


def test_late_prefetch_map_is_bounded():
    """The late-prefetch residual map FIFO-evicts at its cap instead of
    growing with the footprint of a streaming workload."""
    h, _ = make_hierarchy()
    cap = h.LATE_PREFETCH_CAP
    for i in range(3 * cap):
        h._note_late_prefetch(i, residual=5)
        assert len(h._late_prefetch) <= cap
    assert len(h._late_prefetch) == cap
    # oldest entries were evicted, newest survive
    assert 0 not in h._late_prefetch
    assert (3 * cap - 1) in h._late_prefetch
    # re-noting a resident line must not evict anything
    h._note_late_prefetch(3 * cap - 1, residual=9)
    assert len(h._late_prefetch) == cap
