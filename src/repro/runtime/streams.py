"""Per-site element-index streams extracted from interpreter traces.

The timing engine is value-free: it needs, per static access site, the
ordered element indices that site touched. Stream sites are affine and
predictable, but indirect sites (``B[A[i]]``) depend on data — the golden
interpreter's trace supplies the real indices for both uniformly.

Offload replay splits each stream into chunks. A *chunk plan* holds the
values every chunk visit reads: one read-only array of all chunks' line
or element addresses, and the ``n + 1`` cut points that slice it per
chunk. :class:`SiteStreams` builds each plan once and shares it with
every configuration that replays the same call on the same layout.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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
