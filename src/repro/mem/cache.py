"""Set-associative write-back cache with true-LRU replacement.

The cache tracks presence and dirtiness of lines, not data values. LRU is
implemented with ordered dictionaries (oldest entry first), which makes a
touch an O(1) delete+reinsert.

Addresses are byte addresses; the cache works internally on line numbers
(``addr >> line_shift``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..params import CacheParams


@dataclass
class AccessOutcome:
    """Result of a cache lookup."""

    hit: bool
    #: line evicted to make room (line_number, was_dirty), if any
    evicted: Optional[Tuple[int, bool]] = None


#: shared outcomes for the two allocation-free cases — `access` runs
#: millions of times per matrix cell and callers never mutate results
_HIT = AccessOutcome(hit=True)
_MISS_CLEAN = AccessOutcome(hit=False)

#: absent-marker for the single-lookup pop in `access` (dirty bits are
#: bools, so any non-bool sentinel is unambiguous)
_ABSENT = object()


class Cache:
    """One level of set-associative cache."""

    # slots: `access` runs millions of times per matrix cell and touches
    # half a dozen attributes per call
    __slots__ = ("params", "name", "line_shift", "num_sets", "ways",
                 "_sets", "accesses", "hits", "misses", "writebacks",
                 "prefetch_fills", "invalidations")

    def __init__(self, params: CacheParams, name: str = "cache"):
        self.params = params
        self.name = name
        line = params.line_bytes
        self.line_shift = line.bit_length() - 1
        if (1 << self.line_shift) != line:
            raise ValueError(f"line size must be a power of two: {line}")
        self.num_sets = params.num_sets
        self.ways = params.ways
        # each set: {tag: dirty}, insertion order == LRU order (oldest first)
        self._sets: List[Dict[int, bool]] = [dict() for _ in range(self.num_sets)]
        # statistics
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self.prefetch_fills = 0
        self.invalidations = 0

    # -- address helpers ----------------------------------------------------
    def line_of(self, addr: int) -> int:
        return addr >> self.line_shift

    def _index(self, line: int) -> Tuple[int, int]:
        return line % self.num_sets, line // self.num_sets

    # -- operations ----------------------------------------------------------
    def probe(self, addr: int) -> bool:
        """Tag check without any state change."""
        line = addr >> self.line_shift
        return (line // self.num_sets) in self._sets[line % self.num_sets]

    def access(self, addr: int, is_write: bool) -> AccessOutcome:
        """Demand access. On miss the line is allocated (write-allocate).

        Returns the outcome, including any dirty victim that the caller
        must write back to the next level.
        """
        self.accesses += 1
        # line_of/_index inlined: this is the hottest method in the
        # simulator (millions of calls per matrix cell)
        line = addr >> self.line_shift
        set_idx = line % self.num_sets
        tag = line // self.num_sets
        cset = self._sets[set_idx]
        dirty = cset.pop(tag, _ABSENT)
        if dirty is not _ABSENT:
            self.hits += 1
            cset[tag] = dirty or is_write  # move to MRU position
            return _HIT
        self.misses += 1
        # _insert inlined (same hot-path rationale)
        if len(cset) >= self.ways:
            victim_tag = next(iter(cset))  # oldest == LRU
            victim_dirty = cset.pop(victim_tag)
            if victim_dirty:
                self.writebacks += 1
            cset[tag] = is_write
            return AccessOutcome(
                hit=False,
                evicted=(victim_tag * self.num_sets + set_idx,
                         victim_dirty),
            )
        cset[tag] = is_write
        return _MISS_CLEAN

    def touch_resident(self, addr: int, make_dirty: bool,
                       count: int) -> None:
        """Bulk-account ``count`` hits to a line known resident and MRU.

        The batched replay path collapses a run of back-to-back accesses
        to one line into the first (full) access plus this bulk update;
        the line was just accessed, so it is resident at the MRU position
        and each collapsed access is a guaranteed hit. Updating the dirty
        bit in place preserves LRU order exactly like the scalar
        pop-reinsert of an MRU entry.
        """
        if count <= 0:
            return
        set_idx, tag = self._index(self.line_of(addr))
        cset = self._sets[set_idx]
        if tag not in cset:
            raise KeyError(
                f"touch_resident on absent line {addr:#x} in {self.name}"
            )
        self.accesses += count
        self.hits += count
        if make_dirty and not cset[tag]:
            cset[tag] = True

    def fill(self, addr: int, dirty: bool = False,
             is_prefetch: bool = False) -> Optional[Tuple[int, bool]]:
        """Install a line without counting a demand access (e.g. prefetch)."""
        line = self.line_of(addr)
        set_idx, tag = self._index(line)
        cset = self._sets[set_idx]
        if tag in cset:
            if dirty:
                cset.pop(tag)
                cset[tag] = True
            return None
        if is_prefetch:
            self.prefetch_fills += 1
        return self._insert(set_idx, tag, dirty)

    def _insert(self, set_idx: int, tag: int,
                dirty: bool) -> Optional[Tuple[int, bool]]:
        cset = self._sets[set_idx]
        evicted = None
        if len(cset) >= self.ways:
            victim_tag = next(iter(cset))  # oldest == LRU
            victim_dirty = cset.pop(victim_tag)
            if victim_dirty:
                self.writebacks += 1
            victim_line = victim_tag * self.num_sets + set_idx
            evicted = (victim_line, victim_dirty)
        cset[tag] = dirty
        return evicted

    def invalidate(self, addr: int) -> bool:
        """Drop a line; returns True if it was present and dirty."""
        set_idx, tag = self._index(self.line_of(addr))
        cset = self._sets[set_idx]
        if tag in cset:
            self.invalidations += 1
            dirty = cset.pop(tag)
            if dirty:
                self.writebacks += 1
            return dirty
        return False

    def invalidate_range(self, base: int, size: int) -> int:
        """Invalidate all lines overlapping [base, base+size); returns the
        number of dirty lines written back.

        When the range dwarfs what the cache can even hold (e.g. flushing
        a multi-MB object through a 1 KB ACP), probing every line in the
        range is O(range); instead walk the resident tags and drop the
        ones inside the range, which is O(occupancy).
        """
        first = self.line_of(base)
        last = self.line_of(base + max(size, 1) - 1)
        dirty_count = 0
        if (last - first + 1) > self.occupancy:
            for line in self.resident_lines():
                if first <= line <= last:
                    if self.invalidate(line << self.line_shift):
                        dirty_count += 1
            return dirty_count
        for line in range(first, last + 1):
            addr = line << self.line_shift
            if self.invalidate(addr):
                dirty_count += 1
        return dirty_count

    # -- set-level vectorized walk (production path) -------------------------
    #
    # The per-access LRU transition is stateful *within* a set but
    # independent *across* sets, so a batch of accesses can be advanced
    # in "waves": each wave takes the first still-pending access of
    # every set — all distinct sets, hence independent — and applies the
    # whole wave's transitions as numpy integer ops on a dense
    # [num_sets, ways] image of the tag/dirty state. Program order
    # within a set is preserved by construction (wave w serves each
    # set's w-th pending access), and the dense image round-trips
    # exactly through the ordered-dict representation, so the walk is
    # bit-identical to per-access `access()` calls — counters, LRU
    # order, dirty bits and victims alike.

    #: a batch whose busiest set concentrates more than this many
    #: accesses (and dominates the batch) degenerates into ~one access
    #: per wave; the scalar loop is faster there
    _WAVE_FALLBACK_COUNT = 32

    #: waves narrower than this pay more in per-wave numpy setup than
    #: the scalar loop costs; the batch walk switches to scalar for the
    #: tail once wave width drops below it (wave widths only shrink)
    _WAVE_MIN_VEC = 24

    def _export_state(self) -> Tuple[np.ndarray, np.ndarray]:
        """Dense [num_sets, ways] image of (tags, dirty).

        Valid entries are right-aligned with column order == LRU order
        (column ``ways-1`` is MRU); empty slots hold tag -1 on the left.
        Right-alignment makes the miss transition uniform: shifting left
        evicts column 0, which is the true LRU when the set is full and
        an empty slot otherwise.
        """
        tags = np.full((self.num_sets, self.ways), -1, dtype=np.int64)
        dirty = np.zeros((self.num_sets, self.ways), dtype=bool)
        for set_idx, cset in enumerate(self._sets):
            k = len(cset)
            if k:
                tags[set_idx, self.ways - k:] = list(cset.keys())
                dirty[set_idx, self.ways - k:] = list(cset.values())
        return tags, dirty

    def _import_state(self, tags: np.ndarray, dirty: np.ndarray) -> None:
        """Rebuild the ordered-dict sets from a dense image."""
        sets = self._sets
        for set_idx in range(self.num_sets):
            row_tags = tags[set_idx]
            valid = row_tags != -1
            sets[set_idx] = dict(zip(
                row_tags[valid].tolist(), dirty[set_idx][valid].tolist()
            ))

    def access_batch(self, lines: np.ndarray, make_dirty: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance the cache state over a batch of line accesses.

        ``lines`` are line numbers (``addr >> line_shift``) in program
        order; ``make_dirty`` is the per-access dirty contribution (the
        hit/miss outcome and LRU movement never depend on it). Returns
        ``(hit, victim_line, victim_dirty)`` aligned with the inputs,
        with ``victim_line == -1`` where nothing was evicted. Counter
        updates (accesses/hits/misses/writebacks) match per-access
        ``access()`` calls exactly.
        """
        n = len(lines)
        hit = np.zeros(n, dtype=bool)
        victim_line = np.full(n, -1, dtype=np.int64)
        victim_dirty = np.zeros(n, dtype=bool)
        if n == 0:
            return hit, victim_line, victim_dirty
        set_idx = lines % self.num_sets
        new_tags = lines // self.num_sets
        per_set = np.bincount(set_idx, minlength=1)
        busiest = int(per_set.max())
        if busiest > self._WAVE_FALLBACK_COUNT and busiest * 8 > n:
            self._access_batch_scalar(lines, make_dirty, hit,
                                      victim_line, victim_dirty)
            return hit, victim_line, victim_dirty

        # stable sort by set groups each set's accesses in program
        # order; a second stable sort by within-group rank makes wave w
        # the contiguous block of every set's w-th access
        by_set = np.argsort(set_idx, kind="stable")
        sorted_sets = set_idx[by_set]
        group_start = np.flatnonzero(np.concatenate(
            ([True], sorted_sets[1:] != sorted_sets[:-1])
        ))
        group_len = np.diff(np.concatenate((group_start, [n])))
        rank = np.arange(n, dtype=np.int64) - np.repeat(
            group_start, group_len
        )
        by_wave = by_set[np.argsort(rank, kind="stable")]
        wave_sizes = np.bincount(rank)
        if int(wave_sizes[0]) < self._WAVE_MIN_VEC:
            # even the widest wave is narrow: skip the dense image
            self._access_batch_scalar(lines, make_dirty, hit,
                                      victim_line, victim_dirty)
            return hit, victim_line, victim_dirty

        tags, dirty = self._export_state()
        ways = self.ways
        col = np.arange(ways, dtype=np.int64)[None, :]
        hits_total = 0
        wbs_total = 0
        n_vec = 0
        lo = 0
        for size in wave_sizes.tolist():
            if size < self._WAVE_MIN_VEC:
                break  # scalar tail below; wave widths never grow
            sel = by_wave[lo:lo + size]
            lo += size
            n_vec += size
            s = set_idx[sel]
            t = new_tags[sel]
            T = tags[s]
            D = dirty[s]
            match = T == t[:, None]
            h = match.any(axis=1)
            hit[sel] = h
            hits_total += int(h.sum())
            hw = np.where(h, np.argmax(match, axis=1), 0)
            old_dirty = D[np.arange(size), hw] & h
            miss = ~h
            vt = T[:, 0]
            vd = D[:, 0] & miss & (vt != -1)
            victim_line[sel] = np.where(vd, vt * self.num_sets + s, -1)
            victim_dirty[sel] = vd
            wbs_total += int(vd.sum())
            # permutation: drop the touched way (hit way, or column 0 on
            # a miss), shift the tail left, re-insert at MRU
            perm = np.where(col < hw[:, None], col,
                            np.minimum(col + 1, ways - 1))
            rows = np.arange(size)[:, None]
            T = T[rows, perm]
            D = D[rows, perm]
            T[:, ways - 1] = t
            D[:, ways - 1] = old_dirty | make_dirty[sel]
            tags[s] = T
            dirty[s] = D
        self.accesses += n_vec
        self.hits += hits_total
        self.misses += n_vec - hits_total
        self.writebacks += wbs_total
        self._import_state(tags, dirty)
        # the narrow tail runs scalar, rank-major: each set's remaining
        # accesses stay in program order, and sets are independent
        for i in by_wave[lo:].tolist():
            out = self.access(int(lines[i]) << self.line_shift,
                              bool(make_dirty[i]))
            hit[i] = out.hit
            if out.evicted is not None and out.evicted[1]:
                victim_line[i] = out.evicted[0]
                victim_dirty[i] = True
        return hit, victim_line, victim_dirty

    def _access_batch_scalar(self, lines: np.ndarray,
                             make_dirty: np.ndarray, hit: np.ndarray,
                             victim_line: np.ndarray,
                             victim_dirty: np.ndarray) -> None:
        """Program-order scalar walk with same-line run collapsing.

        The scalar fallbacks fire exactly when accesses concentrate on
        few sets — which in practice means long back-to-back runs to
        the *same line* (an accumulator, a hot stride). After the run's
        first access the line is resident at MRU, so the rest are
        guaranteed hits whose pop/reinsert is a no-op — accounted in
        bulk, like :meth:`touch_resident`. The per-access logic of
        :meth:`access`/:meth:`_insert` is inlined with the counters kept
        in locals and flushed once (bit-identical: integer sums).
        """
        n = len(lines)
        nsets = self.num_sets
        ways = self.ways
        sets_ = self._sets
        # numpy run detection: a "run" is a maximal stretch of the same
        # line; only run heads need the full lookup, the rest are
        # guaranteed MRU hits (their only effect is the dirty-OR below)
        is_head = np.empty(n, dtype=bool)
        is_head[0] = True
        np.not_equal(lines[1:], lines[:-1], out=is_head[1:])
        heads = np.flatnonzero(is_head)
        nruns = len(heads)
        head_lines = lines[heads].tolist()
        head_dirty = make_dirty[heads].tolist()
        heads_list = heads.tolist()
        if nruns != n:
            np.logical_not(is_head, out=hit)  # non-heads: always hits
            bounds = np.concatenate((heads, [n]))
            rest_counts = (np.diff(bounds) - 1).tolist()
            csum = np.concatenate(
                ([0], np.cumsum(make_dirty, dtype=np.int64))
            )
            rest_any = (np.diff(csum[bounds])
                        - np.asarray(head_dirty, dtype=np.int64)
                        > 0).tolist()
        else:
            rest_counts = rest_any = None
        acc = nhit = nmiss = nwb = 0
        for r in range(nruns):
            i = heads_list[r]
            ln = head_lines[r]
            si = ln % nsets
            tag = ln // nsets
            cset = sets_[si]
            acc += 1
            d = cset.pop(tag, _ABSENT)
            if d is not _ABSENT:
                nhit += 1
                cset[tag] = d or head_dirty[r]  # move to MRU
                hit[i] = True
            else:
                nmiss += 1
                if len(cset) >= ways:
                    vtag = next(iter(cset))  # oldest == LRU
                    if cset.pop(vtag):
                        nwb += 1
                        victim_line[i] = vtag * nsets + si
                        victim_dirty[i] = True
                cset[tag] = head_dirty[r]
            if rest_counts is not None:
                rest = rest_counts[r]
                if rest:
                    acc += rest
                    nhit += rest
                    if rest_any[r] and not cset[tag]:
                        cset[tag] = True
        self.accesses += acc
        self.hits += nhit
        self.misses += nmiss
        self.writebacks += nwb

    # -- introspection --------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def resident_lines(self) -> List[int]:
        out = []
        for set_idx, cset in enumerate(self._sets):
            out.extend(tag * self.num_sets + set_idx for tag in cset)
        return out

    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Cache {self.name} {self.params.size_bytes // 1024}KB "
            f"{self.ways}-way hits={self.hits} misses={self.misses}>"
        )
