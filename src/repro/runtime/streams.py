"""Per-site element-index streams extracted from interpreter traces.

The timing engine is value-free: it needs, per static access site, the
ordered element indices that site touched. Stream sites are affine and
predictable, but indirect sites (``B[A[i]]``) depend on data — the golden
interpreter's trace supplies the real indices for both uniformly.

Offload replay splits each stream into chunks. A *chunk plan* holds the
values every chunk visit reads: one read-only array of all chunks' line
or element addresses, and the ``n + 1`` cut points that slice it per
chunk. Next to a plan, a *chunk walk* holds what the accelerator's
cache walks need from it under one L3 layout and that no cache state
changes: each line chunk's runs of lines with one home cluster
(:class:`LineWalk`), and each element chunk's same-line run heads with
its element count per home (:class:`ElemWalk`). A :class:`KeptPlan`
holds a plan, its walk, its chunk homes and, per set of chunk homes,
its :class:`WalkCosts`: everything in a chunk step that no
configuration changes. :class:`SiteStreams` builds each part once per
record and L3 layout and shares it with every configuration that
replays the same call on that layout. All of it is numpy arrays and
per-pair counts: a run binds the Python lists its walks iterate, so no
per-chunk or per-address Python object outlives a run.
"""

from __future__ import annotations

from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from ..envcfg import reference_enabled
from ..ir.interp import MemAccess
from ..ir.trace import ColumnarTrace
from ..mem.hierarchy import WalkCosts

#: (slab base, line shift, stripe bytes, clusters): what places a
#: site's addresses on an L3
Layout = Tuple[int, int, int, int]

#: how many layouts a site keeps plans for: its most recently used
LAYOUTS = 2


class SiteStreams:
    """Ordered element indices per static access site (read-only)."""

    def __init__(self, trace: Iterable[MemAccess]):
        if isinstance(trace, ColumnarTrace) and not reference_enabled():
            # vectorized group-by; identical streams to the scalar loop
            self._streams: Dict[int, np.ndarray] = dict(
                trace.streams_by_site()
            )
        else:
            buckets: Dict[int, List[int]] = {}
            for acc in trace:
                buckets.setdefault(acc.site_id, []).append(acc.elem_index)
            self._streams = {
                site: np.asarray(idxs, dtype=np.int64)
                for site, idxs in buckets.items()
            }
        for stream in self._streams.values():
            stream.flags.writeable = False
        #: site -> ((layout, {(chunks, elem bytes, lines, invariant):
        #: kept plan}), ...): the site's plans under its most recently
        #: used layouts, newest last
        self._kept: Dict[Optional[int], tuple] = {}

    def stream(self, site_id: int) -> np.ndarray:
        return self._streams.get(site_id, np.empty(0, dtype=np.int64))

    def _representative(self, site_ids: Sequence[int]) -> Optional[int]:
        """First site with a non-empty stream (CSE-merged sites all touch
        the same addresses, so it stands in for the access node)."""
        for site in site_ids:
            stream = self._streams.get(site)
            if stream is not None and stream.size:
                return site
        return None

    def for_sites(self, site_ids: Sequence[int]) -> np.ndarray:
        """Representative stream for an access node."""
        return self.stream(self._representative(site_ids))

    def length(self, site_ids: Sequence[int]) -> int:
        return int(self.for_sites(site_ids).size)

    def sites(self) -> List[int]:
        return sorted(self._streams)

    def kept(self, site_ids: Sequence[int], layout: Layout, nchunks: int,
             elem_bytes: int, lines: bool,
             invariant: bool = False) -> "KeptPlan":
        """The plan of each chunk's distinct line addresses, in lines of
        ``1 << shift`` bytes, or, with ``lines`` false, of its element
        byte addresses (the object at the layout's slab base), with what
        replays of it share under ``layout``; built on first use. An
        ``invariant`` plan holds only the line plan's first line, which
        chunk 0 fetches for every chunk.

        A site keeps the plans of its :data:`LAYOUTS` most recently used
        layouts: a lookup under another layout drops the least recently
        used one's, so a record holds at most two machines' plans
        however many machines replay it.
        """
        site = self._representative(site_ids)
        held = self._kept.get(site, ())
        if held and held[-1][0] == layout:
            plans = held[-1][1]
        else:
            plans = next((p for lay, p in held if lay == layout), {})
            others = tuple(entry for entry in held if entry[0] != layout)
            dropped = max(0, len(others) + 1 - LAYOUTS)
            # replaced whole, so no reader sees it half changed
            self._kept[site] = others[dropped:] + ((layout, plans),)
        key = (nchunks, elem_bytes, lines, invariant)
        kept = plans.get(key)
        if kept is None:
            shift = layout[1]
            kept = plans[key] = KeptPlan(
                self._plan(site_ids, layout, key), layout, lines,
                (1 << shift) if lines else elem_bytes)
        return kept

    def _plan(self, site_ids: Sequence[int], layout: Layout,
              key: tuple) -> Plan:
        """Build the plan of :meth:`kept`, or share it with a kept layout
        that differs only in the L3."""
        site = self._representative(site_ids)
        for other, plans in self._kept[site]:
            kept = plans.get(key)
            if kept is not None and other[:2] == layout[:2]:
                return kept.plan
        nchunks, elem_bytes, lines, invariant = key
        base, shift = layout[:2]
        if invariant:
            flat, cuts = self.kept(site_ids, layout, nchunks, elem_bytes,
                                   True).plan
            k = min(cuts[1], 1)
            return flat[:k], (0,) + (k,) * nchunks
        if lines:
            return _build_line_plan(self.stream(site), nchunks, base,
                                    elem_bytes, shift)
        return _build_addr_plan(self.stream(site), nchunks, base,
                                elem_bytes)


#: one read-only array of every chunk's values, and the ``n + 1`` cut
#: points that chunk ``c`` spans: ``flat[cuts[c]:cuts[c + 1]]``
Plan = Tuple[np.ndarray, Tuple[int, ...]]


def _plan(flat: np.ndarray, cuts: np.ndarray) -> Plan:
    flat.flags.writeable = False
    return flat, tuple(cuts.tolist())


def _elem_bounds(size: int, nchunks: int) -> np.ndarray:
    """Element index where each chunk starts, plus the stream's end."""
    return np.arange(nchunks + 1, dtype=np.int64) * size // nchunks


def _build_addr_plan(stream: np.ndarray, nchunks: int, base: int,
                     elem_bytes: int) -> Plan:
    return _plan(base + stream * elem_bytes,
                 _elem_bounds(stream.size, nchunks))


def _build_line_plan(stream: np.ndarray, nchunks: int, base: int,
                     elem_bytes: int, shift: int) -> Plan:
    """Each chunk's distinct lines in ascending order. Streams are
    almost always monotone, so this is one global adjacent-difference
    mask that restarts at each chunk start; a non-monotone stream is
    first sorted by (chunk, line)."""
    size = stream.size
    bounds = _elem_bounds(size, nchunks)
    if size == 0:
        return _plan(stream, bounds)
    lines = (base + stream * elem_bytes) >> shift
    if size > 1 and not bool((lines[1:] >= lines[:-1]).all()):
        chunk = _chunk_of(bounds)
        lines = lines[np.lexsort((lines, chunk))]
    keep = np.empty(size, dtype=bool)
    np.not_equal(lines[1:], lines[:-1], out=keep[1:])
    keep[bounds[:-1]] = True
    kept = np.concatenate(([0], np.cumsum(keep)))
    return _plan(lines[keep] << shift, kept[bounds])


class LineWalk(NamedTuple):
    """Each line chunk's lines as segments: the maximal runs of lines
    with one home cluster, in program order, so the segments of all
    chunks, concatenated, are the plan's array.
    """

    #: home cluster and line count of each segment
    home: np.ndarray
    count: np.ndarray
    #: chunk ``c``'s segments are ``cuts[c]:cuts[c + 1]``
    cuts: Tuple[int, ...]


class ElemWalk(NamedTuple):
    """Each element chunk's same-line run heads and element counts per
    home cluster.

    After a run's first access its line is the home ACP's MRU entry, so
    the rest of the run are hits that change no state. A run restarts
    at each chunk start, and every element heads its own run when the
    stripe is not a multiple of the line (a line may then have two
    homes).
    """

    #: address and home cluster of each run's first element
    heads: np.ndarray
    head_home: np.ndarray
    #: chunk ``c``'s runs are ``head_cuts[c]:head_cuts[c + 1]``
    head_cuts: Tuple[int, ...]
    #: home cluster and element count of each (chunk, home) group
    home: np.ndarray
    count: np.ndarray
    #: chunk ``c``'s groups are ``cuts[c]:cuts[c + 1]``
    cuts: Tuple[int, ...]


Walk = Union[LineWalk, ElemWalk]


def _chunk_of(cuts: Sequence[int]) -> np.ndarray:
    """Chunk index of each value of a plan."""
    return np.repeat(np.arange(len(cuts) - 1), np.diff(cuts))


def _group_cuts(group_chunk: np.ndarray, nchunks: int) -> Tuple[int, ...]:
    """Cut points of groups sorted by chunk: chunk ``c``'s groups."""
    return tuple(np.searchsorted(group_chunk, np.arange(nchunks + 1))
                 .tolist())


def _homes_of(addrs: np.ndarray, stripe: int, clusters: int) -> np.ndarray:
    return ((addrs // stripe) % clusters).astype(
        np.min_scalar_type(clusters))


def line_walk(plan: Plan, stripe: int, clusters: int) -> LineWalk:
    """Cut each chunk of a line plan where its home cluster changes."""
    flat, cuts = plan
    nchunks = len(cuts) - 1
    if not flat.size:
        empty = np.empty(0, dtype=np.int64)
        return LineWalk(empty, empty, (0,) * (nchunks + 1))
    home = _homes_of(flat, stripe, clusters)
    chunk = _chunk_of(cuts)
    start = _starts(chunk * clusters + home)
    return LineWalk(home[start], np.diff(np.append(start, flat.size)),
                    _group_cuts(chunk[start], nchunks))


def _starts(code: np.ndarray) -> np.ndarray:
    """Positions where a run of equal codes starts."""
    return np.flatnonzero(np.concatenate(([True], code[1:] != code[:-1])))


def elem_walk(plan: Plan, stripe: int, clusters: int,
              shift: int) -> ElemWalk:
    """Each chunk's same-line run heads, in lines of ``1 << shift``
    bytes, and its element count per home cluster."""
    flat, cuts = plan
    nchunks = len(cuts) - 1
    size = flat.size
    if not size:
        empty = np.empty(0, dtype=np.int64)
        zeros = (0,) * (nchunks + 1)
        return ElemWalk(flat, empty, zeros, empty, empty, zeros)
    bounds = np.asarray(cuts)
    head = np.ones(size, dtype=bool)
    if stripe % (1 << shift) == 0:
        # same line => same home only when stripes are line-aligned
        lines = flat >> shift
        np.not_equal(lines[1:], lines[:-1], out=head[1:])
        starts = bounds[:-1]
        head[starts[starts < size]] = True
    pos = np.flatnonzero(head)
    heads = flat if pos.size == size else flat[pos]
    heads.flags.writeable = False
    head_home = _homes_of(heads, stripe, clusters)
    head_cuts = np.concatenate(([0], np.cumsum(head)))[bounds]
    # a run's elements share its head's home
    count = np.bincount(
        _chunk_of(head_cuts) * clusters + head_home,
        weights=np.diff(np.append(pos, size))).astype(np.int64)
    pairs = np.flatnonzero(count)
    return ElemWalk(
        heads, head_home, tuple(head_cuts.tolist()),
        (pairs % clusters).astype(head_home.dtype), count[pairs],
        _group_cuts(pairs // clusters, nchunks))


def chunk_homes(plan: Plan, static: int, stripe: int,
                clusters: int) -> np.ndarray:
    """Home cluster of each chunk's first address, on an L3 of
    ``clusters`` slices striped every ``stripe`` bytes; ``static`` for an
    empty chunk."""
    flat, cuts = plan
    if not flat.size:
        return np.full(len(cuts) - 1, static, dtype=np.int64)
    lo = np.array(cuts[:-1])
    first = flat[np.minimum(lo, flat.size - 1)]
    return np.where(lo < np.array(cuts[1:]),
                    (first // stripe) % clusters, static).astype(np.int64)


class KeptPlan:
    """A chunk plan and, under one L3 layout, what every replay of it
    reads that no configuration changes: its chunk walk, its chunk homes
    per presenting cluster, and per set of homes its :class:`WalkCosts`.
    Each part is built on first use. A :class:`SiteStreams` keeps these,
    and a record never pickles its streams."""

    __slots__ = ("plan", "spans", "nonempty", "accesses", "payload",
                 "_layout", "_lines", "_walk", "_homes", "_costs")

    def __init__(self, plan: Plan, layout: Layout, lines: bool,
                 payload: int):
        self.plan = plan
        cuts = plan[1]
        #: each chunk's address count
        self.spans = tuple([b - a for a, b in zip(cuts, cuts[1:])])
        #: chunks with at least one address, and the addresses
        self.nonempty = int(np.count_nonzero(np.diff(cuts)))
        self.accesses = cuts[-1] - cuts[0]
        #: bytes one access moves: a line, or an element
        self.payload = payload
        self._layout = layout
        self._lines = lines
        self._walk: Optional[Walk] = None
        self._homes: Dict[int, np.ndarray] = {}
        self._costs: Dict[Tuple[int, bool], WalkCosts] = {}

    def walk(self) -> Walk:
        if self._walk is None:
            _, shift, stripe, clusters = self._layout
            self._walk = (line_walk(self.plan, stripe, clusters)
                          if self._lines else
                          elem_walk(self.plan, stripe, clusters, shift))
        return self._walk

    def homes(self, static: int) -> np.ndarray:
        """Where a migrating access unit presents each chunk (see
        :func:`chunk_homes`)."""
        homes = self._homes.get(static)
        if homes is None:
            _, _, stripe, clusters = self._layout
            homes = self._homes[static] = chunk_homes(self.plan, static,
                                                      stripe, clusters)
        return homes

    def costs(self, static: int, is_write: bool) -> WalkCosts:
        """The walk's state-free costs presented at :meth:`homes`."""
        key = (static, is_write)
        costs = self._costs.get(key)
        if costs is None:
            costs = self._costs[key] = WalkCosts(
                self.walk(), self.homes(static), self._layout[3],
                self.payload, is_write)
        return costs

    # -- walks bound for one run: Python lists, which the cache walks
    # iterate fastest, built per run because kept they would hold a
    # Python int per address
    def line_steps(self) -> tuple:
        """The plan's lines, each segment's home, each segment's start
        (and the end), and chunk ``c``'s segments ``cuts[c]:cuts[c +
        1]``."""
        walk = self.walk()
        return (self.plan[0].tolist(), walk.home.tolist(),
                [0] + np.cumsum(walk.count).tolist(), walk.cuts)

    def elem_steps(self) -> tuple:
        """Each same-line run's home and head address, and chunk ``c``'s
        runs ``cuts[c]:cuts[c + 1]``."""
        walk = self.walk()
        return walk.head_home.tolist(), walk.heads.tolist(), walk.head_cuts

    def private_steps(self, node: int) -> tuple:
        """The requesting cluster, and the addresses Mono-CA's private
        cache looks up with each chunk's cut points: a line plan's lines,
        or an element walk's run heads."""
        if self._lines:
            flat, cuts = self.plan
        else:
            walk = self.walk()
            flat, cuts = walk.heads, walk.head_cuts
        return node, flat.tolist(), cuts
