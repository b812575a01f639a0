"""Chunk plans: per-chunk line and element addresses, built once per
recorded call and machine layout and shared by every configuration that
replays the call; their chunk walks: each line chunk's home segments
and each element chunk's same-line run heads; and the rest of what a
record keeps per layout: chunk homes, walk costs and chunk latencies."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import envcfg
from repro.dse.scheduler import run_sweep
from repro.dse.spec import SweepSpec
from repro.experiments.runner import PAPER_CONFIGS, ResultMatrix
from repro.ir import FLOAT32, INT32, Kernel, Loop, LoopVar, MemObject
from repro.mem.nuca import NucaL3
from repro.params import experiment_machine
from repro.runtime import streams
from repro.runtime.streams import (
    KeptPlan,
    _build_addr_plan,
    _build_line_plan,
    chunk_homes,
    elem_walk,
    line_walk,
)

from .test_engine import kernel_setup, saxpy_setup, wide_line_machine

BASE = 0x1000_0000


@st.composite
def element_streams(draw):
    """Monotone, dense, repeating and non-monotone streams; empty ones
    and ones shorter than the chunk count come with the list sizes."""
    kind = draw(st.sampled_from(
        ("sorted", "dense", "repeats", "cycle", "shuffled")))
    values = draw(st.lists(st.integers(0, 1 << 18), max_size=300))
    if kind == "sorted":
        values.sort()
    elif kind == "dense":
        values = [values[0] + k for k in range(len(values))]
    elif kind == "repeats":
        values = [v for v in sorted(values) for _ in range(3)]
    elif kind == "cycle":
        values = values[:5] * draw(st.integers(1, 60))
    stream = np.array(values, dtype=np.int64)
    stream.flags.writeable = False
    return stream


def chunk_lines_ref(elems, base, eb, shift):
    """One chunk's distinct lines in ascending order, from the chunk
    alone."""
    if elems.size == 0:
        return elems
    return np.unique((base + elems * eb) >> shift) << shift


def expected_homes(l3, plan, static):
    flat, cuts = plan
    return [l3.home_cluster(int(flat[lo])) if lo < hi else static
            for lo, hi in zip(cuts, cuts[1:])]


@settings(deadline=None, max_examples=200)
@given(stream=element_streams(), nchunks=st.integers(1, 130),
       eb=st.sampled_from((4, 8)), line_bytes=st.sampled_from((64, 128)),
       static=st.integers(0, 7))
def test_plans_match_per_chunk_slicing(stream, nchunks, eb, line_bytes,
                                       static):
    shift = line_bytes.bit_length() - 1
    size = stream.size
    bounds = [(size * c) // nchunks for c in range(nchunks + 1)]
    lines = _build_line_plan(stream, nchunks, BASE, eb, shift)
    addrs = _build_addr_plan(stream, nchunks, BASE, eb)
    assert len(lines[1]) == nchunks + 1
    assert list(addrs[1]) == bounds
    for c in range(nchunks):
        elems = stream[bounds[c]:bounds[c + 1]]
        np.testing.assert_array_equal(
            lines[0][lines[1][c]:lines[1][c + 1]],
            chunk_lines_ref(elems, BASE, eb, shift))
        np.testing.assert_array_equal(
            addrs[0][addrs[1][c]:addrs[1][c + 1]], BASE + elems * eb)
    l3 = NucaL3(experiment_machine())
    for plan in (lines, addrs):
        assert not plan[0].flags.writeable
        homes = chunk_homes(plan, static, l3.stripe_bytes, l3.num_clusters)
        assert homes.tolist() == expected_homes(l3, plan, static)


def run_heads_per_call(addrs, stripe, clusters, shift):
    """The per-call run detection the element walk replaced: (home,
    head address) of each same-line run, and the element count per
    home."""
    n = len(addrs)
    if n > 1 and stripe % (1 << shift) == 0:
        lines = addrs >> shift
        head = np.empty(n, dtype=bool)
        head[0] = True
        np.not_equal(lines[1:], lines[:-1], out=head[1:])
        starts = np.flatnonzero(head)
        heads = addrs[starts].tolist()
        bounds = starts.tolist()
    else:
        heads = addrs.tolist()
        bounds = list(range(n))
    bounds.append(n)
    per_home = {}
    runs = []
    for r, addr in enumerate(heads):
        h = (addr // stripe) % clusters
        runs.append((h, addr))
        per_home[h] = per_home.get(h, 0) + bounds[r + 1] - bounds[r]
    return runs, per_home


@settings(deadline=None, max_examples=200)
@given(stream=element_streams(), nchunks=st.integers(1, 130),
       eb=st.sampled_from((4, 8)), line_bytes=st.sampled_from((64, 128)),
       stripe=st.sampled_from((256, 1024, 4096, 96, 1000)),
       clusters=st.sampled_from((1, 2, 3, 8)))
def test_walks_match_per_call_derivation(stream, nchunks, eb, line_bytes,
                                         stripe, clusters):
    """Each line chunk's segments, concatenated, are the chunk in
    program order; each segment has one home and the next one another.
    Each element chunk's run heads and per-home counts equal what the
    per-call walk derived from the chunk. Monotone and non-monotone
    streams, empty chunks, chunks across stripe blocks, and stripes
    that are not a multiple of the line, where every element heads its
    own run."""
    shift = line_bytes.bit_length() - 1
    lines = _build_line_plan(stream, nchunks, BASE, eb, shift)
    addrs = _build_addr_plan(stream, nchunks, BASE, eb)
    lw = line_walk(lines, stripe, clusters)
    ew = elem_walk(addrs, stripe, clusters, shift)
    assert len(lw.cuts) == len(ew.cuts) == len(ew.head_cuts) == nchunks + 1
    assert not ew.heads.flags.writeable
    # the segments cut the plan's own array
    plan_lines = lines[0].tolist()
    ends = np.cumsum(lw.count).tolist()
    segments = [(h, plan_lines[lo:hi]) for h, lo, hi
                in zip(lw.home.tolist(), [0] + ends, ends)]
    heads = list(zip(ew.head_home.tolist(), ew.heads.tolist()))
    groups = list(zip(ew.home.tolist(), ew.count.tolist()))
    for c in range(nchunks):
        chunk = plan_lines[lines[1][c]:lines[1][c + 1]]
        chunk_segments = segments[lw.cuts[c]:lw.cuts[c + 1]]
        assert [a for _, seg in chunk_segments for a in seg] == chunk
        for h, seg in chunk_segments:
            assert seg and {(a // stripe) % clusters for a in seg} == {h}
        assert all(a[0] != b[0]
                   for a, b in zip(chunk_segments, chunk_segments[1:]))
        runs, per_home = run_heads_per_call(
            addrs[0][addrs[1][c]:addrs[1][c + 1]], stripe, clusters, shift)
        assert heads[ew.head_cuts[c]:ew.head_cuts[c + 1]] == runs
        assert dict(groups[ew.cuts[c]:ew.cuts[c + 1]]) == per_home
    if stripe % line_bytes:
        assert len(heads) == stream.size


def spy_builds(monkeypatch):
    """Record each build of what a record keeps: a plan, a walk, a
    plan's chunk homes, a walk's costs and each latency table's chunk
    latencies, keyed by the identity of what it was built from and its
    parameters. Each entry holds its inputs, so no id is reused."""
    builds = []

    def spy(name):
        real = getattr(streams, name)

        def build(first, *args):
            builds.append(((name, id(first)) + args, first))
            return real(first, *args)

        monkeypatch.setattr(streams, name, build)

    # a plan from its stream; a walk and chunk homes from their plan
    for name in ("_build_line_plan", "_build_addr_plan", "line_walk",
                 "elem_walk", "chunk_homes"):
        spy(name)
    real_costs = streams.WalkCosts
    real_free = real_costs.free

    def costs(walk, homes, *args):
        builds.append((("costs", id(walk), homes.tobytes()) + args, walk))
        return real_costs(walk, homes, *args)

    def free(self, table, near, far):
        if (table, near, far) not in self._free:
            builds.append((("free", id(self), id(table), near, far),
                           (self, table)))
        return real_free(self, table, near, far)

    monkeypatch.setattr(streams, "WalkCosts", costs)
    monkeypatch.setattr(real_costs, "free", free)
    return builds


def assert_built_once(builds):
    keys = [key for key, _ in builds]
    assert keys and len(set(keys)) == len(keys)
    return {key[0] for key in keys}


def test_tiny_replay_builds_each_plan_once(monkeypatch):
    """The five accelerator configurations of a dataset replay the same
    records on one L3 layout: each plan (stream, chunk count, base,
    element bytes, line shift, kind) is built once, every other lookup
    is a hit, and so is each walk, set of chunk homes, walk cost and
    table's chunk latencies. Mono-CA's private-cache walk reads the same
    plans and element run heads as the other four. ``fdt`` has stream
    fills and drains, ``pr`` and ``spmv`` indirect element accesses."""
    builds = spy_builds(monkeypatch)
    lookups = []
    private = []
    real_lookup = streams.SiteStreams.kept
    real_private = KeptPlan.private_steps

    def lookup(self, *args):
        lookups.append(args)
        return real_lookup(self, *args)

    def private_steps(self, node):
        private.append(self)
        return real_private(self, node)

    monkeypatch.setattr(streams.SiteStreams, "kept", lookup)
    monkeypatch.setattr(KeptPlan, "private_steps", private_steps)
    ResultMatrix(scale="tiny", workloads=("spmv", "fdt", "pr"),
                 configs=PAPER_CONFIGS).run_all()
    kinds = assert_built_once(builds)
    assert {"_build_line_plan", "_build_addr_plan", "line_walk",
            "elem_walk", "chunk_homes", "costs", "free"} <= kinds
    plans = [key for key, _ in builds if key[0].startswith("_build")]
    assert len(lookups) > len(plans)
    # Mono-CA reads run heads from the element walks the others walk
    walked = {id(first) for key, first in builds if key[0] == "elem_walk"}
    heads = {id(kept.plan) for kept in private if not kept._lines}
    assert heads and heads <= walked


def test_two_mesh_sweep_builds_kept_data_once_per_layout(monkeypatch):
    """A sweep whose points alternate two meshes replays each record on
    two L3 layouts in turn: each site keeps both, so each plan, walk and
    cost is built once per (record, layout)."""
    builds = spy_builds(monkeypatch)
    spec = SweepSpec.from_dict({
        "name": "two-meshes", "scale": "tiny", "base": "experiment",
        "workloads": ["sei", "pr"], "configs": ["dist_da_io"],
        "machine_axes": {"accel_freq_ghz": [1.0, 2.0],
                         "topology": ["2x2", "8x4"]},
    })
    points = spec.points()
    # the meshes alternate point by point
    meshes = [dict(p.machine_overrides)["topology"] for p in points]
    assert meshes[:4] == ["2x2", "8x4", "2x2", "8x4"]
    result = run_sweep(spec, jobs=1)
    assert len(result.ok_rows()) == len(points)
    assert_built_once(builds)
    walks = [key for key, _ in builds if key[0].endswith("_walk")]
    # each stream's plans and walks under two layouts
    assert len({key[-1] for key in walks if key[0] == "line_walk"}) == 2


def gather_setup(n, machine):
    """``C[i] = A[idx[i]] * 2``: two streams and one indirect access
    (``idx`` is allocated first, so ``A``'s base moves with the stripe)."""
    A, C = MemObject("A", n, FLOAT32), MemObject("C", n, FLOAT32)
    idx = MemObject("idx", n, INT32)
    i = LoopVar("i")
    loop = Loop("i", 0, n, [C.store(i, A[idx[i]] * 2.0)])
    kernel = Kernel("gather", {"idx": idx, "A": A, "C": C}, [loop])
    arrays = {
        "A": np.ones(n, dtype=np.float32), "C": np.ones(n, dtype=np.float32),
        "idx": np.random.default_rng(5).permutation(n).astype(np.int32),
    }
    return kernel_setup(kernel, arrays, n, machine=machine)


def replay(setup, machine, site_streams=None):
    engine, off, clusters, res, fresh, energy = setup(2048, machine=machine)
    stats = engine.run(off, clusters, res.inner_iterations, 1,
                       site_streams or fresh)
    return (stats, energy.by_event(), engine.hierarchy.stats().as_dict(),
            engine.hierarchy.movement_bytes)


def wider_stripe_machine():
    m = experiment_machine()
    return replace(m, l3=replace(m.l3, size_bytes=m.l3.size_bytes * 2))


def kept_plans(shared):
    """site -> (layout, {key: kept plan}) of each site's newest layout."""
    return {site: held[-1] for site, held in shared._kept.items()}


@pytest.mark.parametrize("machine", [wide_line_machine,
                                     wider_stripe_machine])
@pytest.mark.parametrize("setup", [saxpy_setup, gather_setup])
def test_each_machine_layout_gets_its_own_plans(setup, machine,
                                                monkeypatch):
    """One record replayed on a machine with other line sizes or stripes
    (so other slab bases), and then on the first machine again, matches
    replays from fresh streams: a layout key that omitted the line
    shift, the base or the stripe would hand it the other machine's
    plans. The second machine's plans join the first's, and the first
    machine finds its own again, walks and costs included. A reference
    replay reads the same kept plans."""
    shared = setup(2048, machine=experiment_machine())[4]
    replay(setup, experiment_machine(), shared)
    first = kept_plans(shared)
    walks = {site: {key: kept._walk for key, kept in plans.items()}
             for site, (_, plans) in first.items()}
    assert first and all(w is not None for site in walks
                         for w in walks[site].values())
    assert replay(setup, machine(), shared) == replay(setup, machine())
    for site, held in shared._kept.items():
        assert [layout for layout, _ in held] == [
            first[site][0], kept_plans(shared)[site][0]]

    def first_plans_kept():
        for site, (layout, plans) in first.items():
            assert kept_plans(shared)[site] == (layout, plans)
            for key, kept in plans.items():
                assert kept._walk is walks[site][key]

    assert (replay(setup, experiment_machine(), shared)
            == replay(setup, experiment_machine()))
    first_plans_kept()
    monkeypatch.setenv(envcfg.REPRO_REFERENCE.name, "1")
    assert (replay(setup, experiment_machine(), shared)
            == replay(setup, experiment_machine()))
    monkeypatch.delenv(envcfg.REPRO_REFERENCE.name)
    first_plans_kept()


@pytest.mark.parametrize("setup", [saxpy_setup, gather_setup])
def test_a_third_layout_drops_the_least_recently_used(setup):
    """A record replayed on machines A, B, A, C, A matches a fresh
    replay each time. C's layout drops B's, the least recently used,
    and A's kept plans survive all five replays."""
    a, b, c = experiment_machine, wide_line_machine, wider_stripe_machine
    shared = setup(2048, machine=a())[4]
    layouts = {}
    for machine in (a, b, a, c, a):
        assert (replay(setup, machine(), shared)
                == replay(setup, machine()))
        for site, (layout, plans) in kept_plans(shared).items():
            layouts.setdefault(machine, {})[site] = (layout, plans)
    for site, held in shared._kept.items():
        assert [entry[0] for entry in held] == [layouts[c][site][0],
                                                layouts[a][site][0]]
        assert held[-1][1] is layouts[a][site][1]
        assert layouts[b][site][0] not in {entry[0] for entry in held}
