"""L2 stride prefetcher (Table III: "stride prefetcher" at L2).

Classic reference-prediction-table design: per-stream (PC surrogate)
entries track the last address and last stride; after ``confirm``
consecutive repeats of the same stride the prefetcher issues ``degree``
prefetches ahead of the demand stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np


@dataclass(slots=True)
class _Entry:
    last_addr: int
    stride: int = 0
    confidence: int = 0


class StridePrefetcher:
    """Reference prediction table keyed by an access-stream id."""

    def __init__(self, table_size: int = 64, confirm: int = 2,
                 degree: int = 2, line_bytes: int = 64):
        if table_size < 1:
            raise ValueError("table_size must be >= 1")
        self.table_size = table_size
        self.confirm = confirm
        self.degree = degree
        self.line_bytes = line_bytes
        self._table: Dict[int, _Entry] = {}
        self.issued = 0

    def observe(self, stream_id: int, addr: int) -> List[int]:
        """Record a demand access; returns line-aligned prefetch addresses."""
        entry = self._table.get(stream_id)
        if entry is None:
            if len(self._table) >= self.table_size:
                self._table.pop(next(iter(self._table)))  # FIFO victim
            self._table[stream_id] = _Entry(last_addr=addr)
            return []
        stride = addr - entry.last_addr
        if stride != 0 and stride == entry.stride:
            entry.confidence = min(entry.confidence + 1, self.confirm + 1)
        else:
            entry.stride = stride
            entry.confidence = 1 if stride != 0 else 0
        entry.last_addr = addr
        if entry.confidence < self.confirm or entry.stride == 0:
            return []
        prefetches = []
        seen_lines = {addr // self.line_bytes}
        for k in range(1, self.degree + 1):
            target = addr + k * entry.stride
            if target < 0:
                break
            line = target // self.line_bytes
            if line not in seen_lines:
                seen_lines.add(line)
                prefetches.append(line * self.line_bytes)
        self.issued += len(prefetches)
        return prefetches

    def observe_batch(self, stream_ids: np.ndarray,
                      addrs: np.ndarray) -> np.ndarray:
        """:meth:`observe` over a batch of demand accesses at once.

        Returns an ``(n, degree)`` array of prefetch addresses, ``-1``
        where none is issued; each row's addresses are the ones
        :meth:`observe` would return for that access, in order. The table
        and ``issued`` end up exactly as per-access calls leave them.

        Candidates depend only on each stream's own address sequence as
        long as no table entry is evicted, so the batch is computed per
        stream with numpy: an access's confidence is the saturated length
        of the run of equal non-zero strides it ends, carried in from the
        table. A batch whose new streams would overflow the table couples
        streams through FIFO eviction and is replayed access by access.
        """
        n = len(addrs)
        out = np.full((n, self.degree), -1, dtype=np.int64)
        if n == 0:
            return out
        table = self._table
        uniq, first = np.unique(stream_ids, return_index=True)
        new = [s for s in uniq.tolist() if s not in table]
        if len(table) + len(new) > self.table_size:
            for i, (sid, addr) in enumerate(zip(stream_ids.tolist(),
                                                addrs.tolist())):
                pf = self.observe(sid, addr)
                out[i, :len(pf)] = pf
            return out
        order = np.argsort(stream_ids, kind="stable")
        sid = stream_ids[order]
        a = addrs[order]
        head = np.flatnonzero(np.concatenate(([True], sid[1:] != sid[:-1])))
        # carried-in state per stream; a new entry starts as its own
        # previous address with stride 0 and confidence 0
        prev = np.empty(n, dtype=np.int64)
        prev[1:] = a[:-1]
        prev[head] = a[head]
        carried = np.zeros((2, len(head)), dtype=np.int64)
        for j, s in enumerate(sid[head].tolist()):
            entry = table.get(s)
            if entry is not None:
                prev[head[j]] = entry.last_addr
                carried[:, j] = entry.stride, entry.confidence
        stride = a - prev
        prev_stride = np.empty(n, dtype=np.int64)
        prev_stride[1:] = stride[:-1]
        prev_stride[head] = carried[0]
        same = (stride != 0) & (stride == prev_stride)
        # a run of equal strides is anchored at its first access (value
        # 1, or 0 for a zero stride) or, when it continues the table's
        # run, at the stream head (value: carried confidence + 1)
        anchor = ~same
        anchor[head] = True
        base = (stride != 0).astype(np.int64)
        base[head] = np.where(same[head], carried[1] + 1, base[head])
        idx = np.arange(n, dtype=np.int64)
        at = np.maximum.accumulate(np.where(anchor, idx, 0))
        conf = np.minimum(base[at] + (idx - at), self.confirm + 1)
        issue = (conf >= self.confirm) & (stride != 0)
        lb = self.line_bytes
        k = np.arange(1, self.degree + 1, dtype=np.int64)
        target = a[:, None] + k[None, :] * stride[:, None]
        valid = np.logical_and.accumulate(target >= 0, axis=1)
        line = target // lb
        prev_line = np.empty_like(line)
        prev_line[:, 0] = a // lb
        prev_line[:, 1:] = line[:, :-1]
        # strides are constant per access, so target lines are monotone
        # and a repeat can only be of the line just before
        keep = issue[:, None] & valid & (line != prev_line)
        out[order] = np.where(keep, line * lb, -1)
        self.issued += int(keep.sum())
        tail = np.concatenate((head[1:] - 1, [n - 1]))
        state = dict(zip(sid[tail].tolist(), zip(
            a[tail].tolist(), stride[tail].tolist(), conf[tail].tolist())))
        for s in uniq[np.argsort(first)].tolist():  # first-touch order
            last, st, c = state[s]
            entry = table.get(s)
            if entry is None:
                table[s] = _Entry(last, st, c)
            else:
                entry.last_addr, entry.stride, entry.confidence = last, st, c
        return out

    def reset(self) -> None:
        self._table.clear()
