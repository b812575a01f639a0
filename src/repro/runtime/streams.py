"""Per-site element-index streams extracted from interpreter traces.

The timing engine is value-free: it needs, per static access site, the
ordered element indices that site touched. Stream sites are affine and
predictable, but indirect sites (``B[A[i]]``) depend on data — the golden
interpreter's trace supplies the real indices for both uniformly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

import numpy as np

from ..envcfg import reference_enabled
from ..ir.interp import MemAccess
from ..ir.trace import ColumnarTrace


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

    def stream(self, site_id: int) -> np.ndarray:
        return self._streams.get(site_id, np.empty(0, dtype=np.int64))

    def for_sites(self, site_ids: Sequence[int]) -> np.ndarray:
        """Representative stream for an access node (CSE-merged sites all
        touch the same addresses, so the first non-empty one stands in)."""
        for site in site_ids:
            stream = self._streams.get(site)
            if stream is not None and stream.size:
                return stream
        return np.empty(0, dtype=np.int64)

    def length(self, site_ids: Sequence[int]) -> int:
        return int(self.for_sites(site_ids).size)

    def sites(self) -> List[int]:
        return sorted(self._streams)
