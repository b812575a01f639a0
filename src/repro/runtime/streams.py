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
its element count per home (:class:`ElemWalk`). :class:`SiteStreams`
builds each plan and walk once and shares them with every
configuration that replays the same call on the same layout.
"""

from __future__ import annotations

from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from ..envcfg import reference_enabled
from ..ir.interp import MemAccess
from ..ir.trace import ColumnarTrace
from ..mem.nuca import NucaL3


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
        #: site -> ((slab base, line shift), {(chunks, elem bytes,
        #: lines): plan}): each site's plans under one layout
        self._plans: Dict[Optional[int], tuple] = {}
        #: site -> {(chunks, elem bytes, lines, stripe bytes, clusters):
        #: walk}: the walks of the site's plans, one per L3 layout,
        #: dropped with the plans
        self._walks: Dict[Optional[int], dict] = {}

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

    def chunk_plan(self, site_ids: Sequence[int], nchunks: int, base: int,
                   elem_bytes: int, shift: int, lines: bool) -> Plan:
        """Each chunk's distinct line addresses in lines of ``1 << shift``
        bytes or, with ``lines`` false, its element byte addresses (the
        object at ``base``); built on first use.

        A site keeps the plans of one layout (its object's slab base and
        the line shift) at a time: a lookup under another layout drops
        them, so a record holds at most one machine's plans however many
        machines replay it.
        """
        site = self._representative(site_ids)
        held = self._plans.get(site)
        if held is None or held[0] != (base, shift):
            held = self._plans[site] = ((base, shift), {})
            self._walks.pop(site, None)
        plans = held[1]
        key = (nchunks, elem_bytes, lines)
        plan = plans.get(key)
        if plan is None:
            stream = self.stream(site)
            plan = plans[key] = (
                _build_line_plan(stream, nchunks, base, elem_bytes, shift)
                if lines else
                _build_addr_plan(stream, nchunks, base, elem_bytes))
        return plan

    def chunk_walk(self, site_ids: Sequence[int], nchunks: int, base: int,
                   elem_bytes: int, shift: int, lines: bool, stripe: int,
                   clusters: int) -> Walk:
        """The walk of :meth:`chunk_plan`'s plan on an L3 of ``clusters``
        slices striped every ``stripe`` bytes; built on first use.

        A plan keeps one walk per L3 layout that replays it (machines
        that differ only in their L3 share slab bases and line size, so
        they share plans), and a plan dropped for another layout takes
        its walks with it.
        """
        plan = self.chunk_plan(site_ids, nchunks, base, elem_bytes, shift,
                               lines)
        walks = self._walks.setdefault(self._representative(site_ids), {})
        key = (nchunks, elem_bytes, lines, stripe, clusters)
        walk = walks.get(key)
        if walk is None:
            walk = walks[key] = (
                line_walk(plan, stripe, clusters) if lines else
                elem_walk(plan, stripe, clusters, shift))
        return walk


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
    """Streams are almost always monotone, so the per-chunk sorted dedup
    is one global adjacent-difference mask that restarts at each chunk
    start. Non-monotone streams keep the per-chunk reference dedup."""
    size = stream.size
    bounds = _elem_bounds(size, nchunks)
    if size == 0:
        return _plan(stream, bounds)
    lines = (base + stream * elem_bytes) >> shift
    if size == 1 or bool((lines[1:] >= lines[:-1]).all()):
        keep = np.empty(size, dtype=bool)
        np.not_equal(lines[1:], lines[:-1], out=keep[1:])
        keep[bounds[:-1]] = True
        kept = np.concatenate(([0], np.cumsum(keep)))
        return _plan(lines[keep] << shift, kept[bounds])
    parts = [_chunk_lines_ref(stream[lo:hi], base, elem_bytes, shift)
             for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())]
    return _plan(np.concatenate(parts),
                 np.cumsum([0] + [p.size for p in parts]))


def _chunk_lines_ref(elems: np.ndarray, base: int, eb: int,
                    shift: int) -> np.ndarray:
    """Reference per-chunk line dedup (non-monotone streams)."""
    if elems.size == 0:
        return elems
    if elems.size <= 16:
        lines = sorted({(base + e * eb) >> shift for e in elems.tolist()})
        return np.array(lines, dtype=np.int64) << shift
    lines = (base + elems * eb) >> shift
    if (lines[1:] >= lines[:-1]).all():
        keep = np.empty(lines.size, dtype=bool)
        keep[0] = True
        keep[1:] = lines[1:] != lines[:-1]
        return lines[keep] << shift
    return np.unique(lines) << shift


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


def chunk_homes(plan: Plan, static: int, l3: NucaL3) -> List[int]:
    """Home cluster of each chunk's first address; ``static`` for an
    empty chunk."""
    flat, cuts = plan
    if not flat.size:
        return [static] * (len(cuts) - 1)
    lo = np.array(cuts[:-1])
    first = flat[np.minimum(lo, flat.size - 1)]
    return np.where(lo < np.array(cuts[1:]), l3.home_cluster(first),
                    static).tolist()
