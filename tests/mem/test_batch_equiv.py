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
from repro.runtime.streams import KeptPlan, WalkCosts

#: the Table III shapes (64-set L1), the scaled-down shapes the
#: experiment matrix and the benchmark run (4-set L1, 8-set L2 and L3
#: slices), and Table III without the L2 prefetcher
MACHINES = {
    "default": default_machine,
    "experiment": experiment_machine,
    "no-prefetcher": lambda: replace(default_machine(),
                                     l2_stride_prefetcher=False),
}


def make_hierarchy(machine=default_machine, private_cache=False):
    energy = EnergyLedger()
    return MemoryHierarchy(machine(), energy,
                           private_cache=private_cache), energy


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


def walk_chunk(hier, local, addrs, is_write, elem_bytes=None, tally=None,
               mono=False):
    """Walk ``addrs`` as a one-chunk line plan or, given ``elem_bytes``,
    element plan presented at ``local``: its kept plan, the kept costs
    of its walk presented at ``local`` added to the tally with the
    chunk's state-free latency, then the batch walk, through the
    distributed walks or, with ``mono``, through Mono-CA's private
    cache. Charges the tally unless one is passed in. Returns the
    chunk's latency and its bound walk."""
    l3 = hier.l3
    lines = elem_bytes is None
    kept = KeptPlan((addrs, (0, len(addrs))),
                    (0, l3.slices[0].line_shift, l3.stripe_bytes,
                     l3.num_clusters),
                    lines,
                    hier.machine.l3.line_bytes if lines else elem_bytes)
    charge = tally is None
    tally = tally or hier.accel_tally()
    if mono:
        tally.private_acc += kept.accesses
        walk, free = kept.private_steps(local), [kept.accesses]
        batch = hier.l3_demand_batch
    else:
        costs = WalkCosts(kept.walk(), np.array([local]), l3.num_clusters,
                          kept.payload, is_write)
        free = hier.accel_costs(costs, lines, tally)
        if lines:
            walk, batch = kept.line_steps(), hier.accel_line_fetch_batch
        else:
            walk, batch = kept.elem_steps(), hier.accel_elem_access_batch
    lat = free[0] + batch(walk, 0, is_write, tally)
    if charge:
        hier.charge_accel(tally)
    return lat, walk


def private_fetch(hier, local, addr, is_write):
    """One Mono-CA access on the scalar path, as the offload engine's
    reference makes it: the private cache's ``Cache.access``, a dirty
    victim written back into its home slice, and a miss read at the
    missed line's home slice. Returns its latency."""
    hier.energy.charge("accel", "private_cache_access")
    out = hier.private.access(addr, is_write)
    if out.evicted and out.evicted[1]:
        hier.writeback_line_from(out.evicted[0], local)
    return 1 + (0 if out.hit else hier.l3_demand(addr, from_node=local))


def caches(hier):
    private = [hier.private] if hier.private is not None else []
    return [hier.l1, hier.l2, *hier.l3.slices, *hier.acps, *private]


def assert_same_sets(fast, ref):
    """LRU order and dirty bits of every cache set, counters aside."""
    for a, b in zip(caches(fast), caches(ref)):
        assert [list(s.items()) for s in a._sets] == [
            list(s.items()) for s in b._sets]


def assert_same_state(fast, fast_energy, ref, ref_energy):
    assert fast_energy.by_event() == ref_energy.by_event()
    assert fast_energy.total_pj() == ref_energy.total_pj()
    assert fast.stats().as_dict() == ref.stats().as_dict()
    assert fast.movement_bytes == ref.movement_bytes
    assert fast.dram.reads == ref.dram.reads
    assert fast.dram.writes == ref.dram.writes
    assert fast.traffic.breakdown() == ref.traffic.breakdown()
    assert fast.traffic.total_byte_hops() == ref.traffic.total_byte_hops()
    for a, b in zip(caches(fast), caches(ref)):
        assert (a.accesses, a.hits, a.misses, a.writebacks,
                a.prefetch_fills) == (b.accesses, b.hits, b.misses,
                                      b.writebacks, b.prefetch_fills)
    # LRU order and dirty bits, not just membership
    assert_same_sets(fast, ref)
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

    batch_lat, _ = walk_chunk(fast, 2, addrs, is_write)
    scalar_lat = sum(
        ref.accel_line_fetch(2, addr, is_write) for addr in addrs.tolist()
    )
    assert batch_lat == scalar_lat
    assert_same_state(fast, fast_energy, ref, ref_energy)


@pytest.mark.parametrize("machine", ["default", "experiment"])
@pytest.mark.parametrize("is_write", [False, True])
def test_accel_line_fetch_batch_single_stripe_chunks(machine, is_write):
    """Chunks that each sit inside one stripe block, the common case in
    an offload run, walk their one home slice as a single segment.
    200 chunks of 1-19 lines come from rotating local clusters and add
    to one tally, charged once at the end; each home has three stripe
    blocks, and each block is cut down to four sets, so lines hit,
    conflict and evict."""
    rng = np.random.default_rng(19)
    fast, fast_energy = make_hierarchy(MACHINES[machine])
    ref, ref_energy = make_hierarchy(MACHINES[machine])
    tally = fast.accel_tally()
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
        lat, walk = walk_chunk(fast, local, addrs, is_write, tally=tally)
        segment_cuts = walk[3]
        assert segment_cuts[1] - segment_cuts[0] == 1
        batch_lat += lat
        scalar_lat += sum(ref.accel_line_fetch(local, addr, is_write)
                          for addr in addrs.tolist())
        assert_same_sets(fast, ref)
    assert batch_lat == scalar_lat
    fast.charge_accel(tally)
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

    batch_lat, _ = walk_chunk(fast, 1, addrs, is_write, elem_bytes)
    scalar_lat = sum(
        ref.accel_elem_access(1, addr, is_write, elem_bytes)
        for addr in addrs.tolist()
    )
    assert batch_lat == scalar_lat
    assert_same_state(fast, fast_energy, ref, ref_energy)


def forbidden(*args, **kwargs):
    raise AssertionError("batch walk called Cache.access")


def test_l3_demand_window_matches_scalar(monkeypatch):
    """Mono-CA chunks: line chunks and element chunks with same-line
    runs, from rotating clusters, walked through the private cache into
    one tally that is charged at the end, equal per-access private-cache
    lookups with ``writeback_line_from`` and ``l3_demand``, and leave
    the same set dicts after every chunk. Both carry each line as a
    host-data cache fill or writeback (no accelerator operand traffic).
    No batch walk goes through ``Cache.access``."""
    rng = np.random.default_rng(17)
    fast, fast_energy = make_hierarchy(private_cache=True)
    ref, ref_energy = make_hierarchy(private_cache=True)
    pc, l3 = ref.private, ref.l3
    # lines from twice the private cache's capacity at each of three
    # stripe blocks, so chunks hit, miss, evict and write back
    span = 2 * pc.num_sets * pc.ways
    first = 0x3000_0000 // 64
    tally = fast.accel_tally()
    batch_lat = scalar_lat = 0
    for c in range(80):
        local = c % l3.num_clusters
        is_write = c % 3 == 0
        n = int(rng.integers(1, 30))
        lines = (first + rng.integers(0, span, n)
                 + l3.stripe_bytes // 64 * rng.integers(0, 3, n))
        if c % 2:
            elem_bytes = None
            addrs = np.unique(lines) * 64
        else:
            elem_bytes = 4
            runs = rng.integers(1, 6, n)
            addrs = (np.repeat(lines * 64, runs)
                     + 4 * rng.integers(0, 16, int(runs.sum())))
        with monkeypatch.context() as mp:
            mp.setattr(Cache, "access", forbidden)
            lat, _ = walk_chunk(fast, local, addrs, is_write, elem_bytes,
                                tally=tally, mono=True)
        batch_lat += lat
        scalar_lat += sum(private_fetch(ref, local, addr, is_write)
                          for addr in addrs.tolist())
        assert_same_sets(fast, ref)
    fast.charge_accel(tally)
    assert batch_lat == scalar_lat
    for hier in (fast, ref):
        assert hier.traffic.class_bytes(TrafficClass.ACC_DATA) == 0
        assert hier.traffic.class_bytes(TrafficClass.HOST_DATA) > 0
    assert_same_state(fast, fast_energy, ref, ref_energy)
    # the stream is not vacuous: lines hit, and dirty victims retire
    assert pc.hits > 0 and pc.writebacks > 0


def mixed_accel_ops(l3, seed: int, n_ops: int = 240):
    """A replayable mix of the offload engine's hierarchy calls from
    rotating local clusters: line chunks inside one stripe block,
    straddling a block boundary, or flooding one slice set with dirty
    lines; element chunks of 4- and 8-byte elements with same-line runs;
    and Mono-CA line and element chunks through the private cache.
    Every line falls in four sets of its slice, so slices, ACPs and the
    private cache conflict, evict and write back, and the floods evict
    lines that an ACP or the private cache still holds dirty."""
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
        elif kind == 1 or i % 4 == 2:
            elem_bytes = (4, 8)[i % 2]
            runs = rng.integers(1, 7, int(rng.integers(1, 10)))
            heads = conflicting_lines(len(runs)) * line
            addrs = np.concatenate([
                h + elem_bytes * np.arange(r) for h, r in zip(heads, runs)
            ]).astype(np.int64)
            ops.append(("elems" if kind == 1 else "mono", local, addrs,
                        is_write, elem_bytes))
        else:
            lines = np.unique(conflicting_lines(int(rng.integers(1, 8))))
            ops.append(("mono", local, lines * line, is_write, None))
    return ops


@pytest.mark.parametrize("machine", list(MACHINES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_accel_batch_mixed_sequence_matches_scalar(monkeypatch, machine,
                                                   seed):
    """Line chunks, element chunks and Mono-CA chunks, mixed as offload
    runs mix them, leave the same set dicts, the private cache's
    included, as the scalar calls after every chunk. The chunks add to
    one tally that is charged after a few chunks, as a process charges
    when it ends, and every charge leaves the same counters and
    ledgers. No batch walk goes through ``Cache.access``."""
    fast, fast_energy = make_hierarchy(MACHINES[machine], True)
    ref, ref_energy = make_hierarchy(MACHINES[machine], True)
    ops = mixed_accel_ops(ref.l3, seed)
    ends = np.random.default_rng(seed + 100).random(len(ops)) < 0.3
    ends[-1] = True
    tally = fast.accel_tally()

    for (kind, local, addrs, is_write, elem_bytes), end in zip(ops, ends):
        with monkeypatch.context() as mp:
            mp.setattr(Cache, "access", forbidden)
            batch_lat, _ = walk_chunk(fast, local, addrs, is_write,
                                      elem_bytes, tally=tally,
                                      mono=kind == "mono")
        scalar_lat = 0
        for addr in addrs.tolist():
            if kind == "lines":
                scalar_lat += ref.accel_line_fetch(local, addr, is_write)
            elif kind == "elems":
                scalar_lat += ref.accel_elem_access(local, addr, is_write,
                                                    elem_bytes)
            else:
                scalar_lat += private_fetch(ref, local, addr, is_write)
        assert batch_lat == scalar_lat
        assert_same_sets(fast, ref)
        if end:
            fast.charge_accel(tally)
            tally = fast.accel_tally()
            assert_same_state(fast, fast_energy, ref, ref_energy)
    # the mix is not vacuous: dirty ACP and private-cache victims retire
    # into banks, and lines come from DRAM
    assert sum(a.writebacks for a in ref.acps) > 0
    assert ref.private.writebacks > 0
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
