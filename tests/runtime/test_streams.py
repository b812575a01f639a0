"""Chunk plans: per-chunk line and element addresses, built once per
recorded call and machine layout and shared by every configuration that
replays the call; and their chunk walks: each line chunk's home
segments and each element chunk's same-line run heads."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import envcfg
from repro.experiments.runner import PAPER_CONFIGS, ResultMatrix
from repro.ir import FLOAT32, INT32, Kernel, Loop, LoopVar, MemObject
from repro.mem.nuca import NucaL3
from repro.params import experiment_machine
from repro.runtime import SiteStreams, streams
from repro.runtime.streams import (
    _build_addr_plan,
    _build_line_plan,
    _chunk_lines_ref,
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
            _chunk_lines_ref(elems, BASE, eb, shift))
        np.testing.assert_array_equal(
            addrs[0][addrs[1][c]:addrs[1][c + 1]], BASE + elems * eb)
    l3 = NucaL3(experiment_machine())
    for plan in (lines, addrs):
        assert not plan[0].flags.writeable
        assert chunk_homes(plan, static, l3) == expected_homes(l3, plan,
                                                                static)


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


def test_tiny_replay_builds_each_plan_once(monkeypatch):
    """The five accelerator configurations of one dataset replay the
    same records: each plan (stream, chunk count, base, element bytes,
    line shift, kind) is built once, every other lookup is a hit."""
    built = []
    lookups = []
    for name in ("_build_line_plan", "_build_addr_plan"):
        real = getattr(streams, name)

        def build(stream, *args, real=real, name=name):
            built.append((id(stream), name) + args)
            return real(stream, *args)

        monkeypatch.setattr(streams, name, build)
    real_lookup = SiteStreams.chunk_plan

    def lookup(self, *args):
        lookups.append(args)
        return real_lookup(self, *args)

    monkeypatch.setattr(SiteStreams, "chunk_plan", lookup)
    ResultMatrix(scale="tiny", workloads=("spmv",),
                 configs=PAPER_CONFIGS).run_all()
    assert built
    assert len(set(built)) == len(built)
    assert len(lookups) > len(built)


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


@pytest.mark.parametrize("machine", [wide_line_machine,
                                     wider_stripe_machine])
@pytest.mark.parametrize("setup", [saxpy_setup, gather_setup])
def test_each_machine_layout_gets_its_own_plans(setup, machine,
                                                monkeypatch):
    """One record replayed on a machine with other line sizes or stripes
    (so other slab bases), and then on the first machine again, matches
    replays from fresh streams: a plan key that omitted the line shift
    or the base would hand it the other machine's plans. The second
    machine's plans replace the first's rather than join them. A plan
    keeps one chunk walk per L3 layout, and a replaced plan takes its
    walks with it."""
    shared = setup(2048, machine=experiment_machine())[4]
    replay(setup, experiment_machine(), shared)
    held = sum(len(plans) for _, plans in shared._plans.values())
    layouts = {site: layout for site, (layout, _) in shared._plans.items()}
    first = {site: dict(walks) for site, walks in shared._walks.items()}
    assert first
    assert replay(setup, machine(), shared) == replay(setup, machine())
    assert sum(len(plans) for _, plans in shared._plans.values()) == held

    def walks_follow_plans():
        for site, walks in shared._walks.items():
            assert {key[:3] for key in walks} <= set(shared._plans[site][1])
            kept = shared._plans[site][0] == layouts[site]
            assert kept == all(walks.get(key) is walk
                               for key, walk in first[site].items())

    walks_follow_plans()
    # a reference replay looks up plans but no walks: the plans it
    # replaces take their walks with them
    monkeypatch.setenv(envcfg.REPRO_REFERENCE.name, "1")
    replay(setup, experiment_machine(), shared)
    monkeypatch.delenv(envcfg.REPRO_REFERENCE.name)
    assert len(shared._walks) < len(first)
    walks_follow_plans()
    assert (replay(setup, experiment_machine(), shared)
            == replay(setup, experiment_machine()))
