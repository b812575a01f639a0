"""Columnar (structure-of-arrays) memory-access traces.

A recorded trace is consumed three ways: replayed element-by-element
through the host path (OoO baseline), grouped by static site for the
offload engine's access streams, and cached by the trace cache.
All three are better served by four parallel NumPy arrays than by a list
of per-access tuples: entries are ~5x smaller, slicing and per-object
address math vectorize, and pickling is a few buffer copies instead of
millions of tuple constructions.

The production interpreter builds the columns directly: vectorized
nests emit whole-loop index columns and compiled fallback nests record
a site column and an index column. Only the tree-walking interpreter
still records per-access :class:`~repro.ir.interp.MemAccess` tuples,
and :meth:`ColumnarTrace.from_records` converts those.

:class:`ColumnarTrace` keeps full sequence compatibility with the
historical ``List[MemAccess]`` representation — iteration, indexing and
equality all speak :class:`~repro.ir.interp.MemAccess` — so the scalar
reference paths (``REPRO_REFERENCE=1``) and existing tests consume it
unchanged.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence, Tuple

import numpy as np


class ColumnarTrace:
    """Program-order element accesses as parallel columns.

    Columns:

    * ``site`` (int32) — static access-site id;
    * ``obj_id`` (int16) — index into :attr:`obj_names`;
    * ``idx`` (int64) — element index within the object;
    * ``is_write`` (bool).
    """

    __slots__ = ("site", "obj_id", "idx", "is_write", "obj_names")

    def __init__(self, site: np.ndarray, obj_id: np.ndarray,
                 idx: np.ndarray, is_write: np.ndarray,
                 obj_names: Tuple[str, ...]):
        n = len(site)
        if not (len(obj_id) == len(idx) == len(is_write) == n):
            raise ValueError("trace columns must have equal lengths")
        self.site = np.ascontiguousarray(site, dtype=np.int32)
        self.obj_id = np.ascontiguousarray(obj_id, dtype=np.int16)
        self.idx = np.ascontiguousarray(idx, dtype=np.int64)
        self.is_write = np.ascontiguousarray(is_write, dtype=bool)
        self.obj_names = tuple(obj_names)

    # -- construction -------------------------------------------------------
    @classmethod
    def empty(cls) -> "ColumnarTrace":
        return cls(
            np.empty(0, np.int32), np.empty(0, np.int16),
            np.empty(0, np.int64), np.empty(0, bool), (),
        )

    @classmethod
    def from_records(cls, records: Sequence) -> "ColumnarTrace":
        """Build from an iterable of ``MemAccess``-shaped tuples."""
        records = list(records)
        if not records:
            return cls.empty()
        sites, objs, idxs, writes = zip(*records)
        # traces repeat a handful of names many times: code them through
        # a dict of the distinct names rather than sorting every record
        names = sorted(dict.fromkeys(objs))
        code = {name: i for i, name in enumerate(names)}
        return cls(
            np.asarray(sites, dtype=np.int32),
            np.fromiter(map(code.__getitem__, objs), dtype=np.int16,
                        count=len(objs)),
            np.asarray(idxs, dtype=np.int64),
            np.asarray(writes, dtype=bool),
            tuple(names),
        )

    # -- sequence protocol (MemAccess compatibility) ------------------------
    def __len__(self) -> int:
        return len(self.site)

    def __iter__(self) -> Iterator:
        from .interp import MemAccess

        names = self.obj_names
        for s, o, i, w in zip(self.site.tolist(), self.obj_id.tolist(),
                              self.idx.tolist(), self.is_write.tolist()):
            yield MemAccess(s, names[o], i, w)

    def __getitem__(self, key):
        from .interp import MemAccess

        if isinstance(key, slice):
            return ColumnarTrace(
                self.site[key], self.obj_id[key], self.idx[key],
                self.is_write[key], self.obj_names,
            )
        return MemAccess(
            int(self.site[key]), self.obj_names[int(self.obj_id[key])],
            int(self.idx[key]), bool(self.is_write[key]),
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, ColumnarTrace):
            return (
                len(self) == len(other)
                and np.array_equal(self.site, other.site)
                and np.array_equal(self.idx, other.idx)
                and np.array_equal(self.is_write, other.is_write)
                and all(a == b for a, b in zip(self._names_per_access(),
                                               other._names_per_access()))
            )
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<ColumnarTrace n={len(self)} "
                f"objs={','.join(self.obj_names)}>")

    def _names_per_access(self) -> Iterator[str]:
        names = self.obj_names
        return (names[o] for o in self.obj_id.tolist())

    # -- columnar views -----------------------------------------------------
    @property
    def nbytes(self) -> int:
        return (self.site.nbytes + self.obj_id.nbytes + self.idx.nbytes
                + self.is_write.nbytes)

    def addresses(self, base_for: Mapping[str, int],
                  elem_bytes_for: Mapping[str, int]) -> np.ndarray:
        """Byte address of every access (``base + idx * elem_bytes``)."""
        if not len(self):
            return np.empty(0, dtype=np.int64)
        bases = np.array([base_for[n] for n in self.obj_names],
                         dtype=np.int64)
        ebytes = np.array([elem_bytes_for[n] for n in self.obj_names],
                          dtype=np.int64)
        oid = self.obj_id
        return bases[oid] + self.idx * ebytes[oid]

    def num_writes(self) -> int:
        return int(np.count_nonzero(self.is_write))

    def streams_by_site(self) -> Mapping[int, np.ndarray]:
        """Ordered element-index stream per static site (vectorized
        group-by; a stable sort preserves each site's program order)."""
        if not len(self):
            return {}
        order = np.argsort(self.site, kind="stable")
        sites_sorted = self.site[order]
        idx_sorted = self.idx[order]
        cuts = np.flatnonzero(sites_sorted[1:] != sites_sorted[:-1]) + 1
        starts = np.concatenate(([0], cuts))
        ends = np.concatenate((cuts, [len(sites_sorted)]))
        return {
            int(sites_sorted[lo]): idx_sorted[lo:hi].copy()
            for lo, hi in zip(starts.tolist(), ends.tolist())
        }
