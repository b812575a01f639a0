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

    def add_counts(self, accesses: int, misses: int,
                   writebacks: int = 0) -> None:
        """Add the counters of accesses replayed on :attr:`_sets`
        directly (the batch walks); ``writebacks`` counts dirty
        victims."""
        self.accesses += accesses
        self.hits += accesses - misses
        self.misses += misses
        self.writebacks += writebacks

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

    # -- reuse-distance batch walk (production path) ------------------------
    #
    # Before each access, an LRU set that allocates on every miss holds
    # the `ways` most recently used distinct lines of that set (Mattson's
    # stack-distance rule, IBM Systems Journal 1970). So every access's
    # outcome, and every miss's victim, follow from each set's access
    # sequence alone, and numpy can work them out for all sets at once:
    #
    # - A stable sort by set lays each touched set out as its resident
    #   lines, oldest first, then its accesses in program order. A run of
    #   one line there is one *use*: only its first access can miss, and
    #   the run ORs its dirty bits.
    # - One stable sort of the uses by line gives each use the distance
    #   to the previous and to the next use of its line.
    # - A use whose line was used at most `ways` uses back hits. For any
    #   other use j, LB(j) is the position of the `ways`-th most recent
    #   distinct line before j (:func:`_lru_bounds`). The use hits iff its
    #   line was used at or after LB(j), and a miss evicts the line at
    #   LB(j). Each set starts with `ways` virtual free ways, older than
    #   its residents and never used: where LB(j) is one of them, the set
    #   is not full and a miss evicts nothing.
    # - A line's dirty bit is the OR over its residency, which starts at
    #   the line's first use or at a miss on it.
    # - Each touched set ends holding its last `ways` distinct lines, in
    #   order of last use.
    #
    # The walk is bit-identical to per-access `access()` calls: counters,
    # LRU order, dirty bits and victims alike. Its only Python loops run
    # once per touched set, over at most `ways` lines.

    def access_batch(self, lines: np.ndarray, make_dirty: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance the cache state over a batch of line accesses.

        ``lines`` are line numbers (``addr >> line_shift``) in program
        order; ``make_dirty`` is the per-access dirty contribution, a
        bool array (the hit/miss outcome and LRU movement never depend
        on it). Returns ``(hit, victim_line, victim_dirty)`` aligned with
        the inputs, with ``victim_line == -1`` where no dirty line was
        evicted. Counter updates (accesses/hits/misses/writebacks) match
        per-access ``access()`` calls exactly.
        """
        n = len(lines)
        hit = np.ones(n, dtype=bool)
        victim_line = np.full(n, -1, dtype=np.int64)
        victim_dirty = np.zeros(n, dtype=bool)
        if n == 0:
            return hit, victim_line, victim_dirty
        nsets, ways, sets_ = self.num_sets, self.ways, self._sets
        key = lines % nsets
        if nsets <= 1 << 16:
            key = key.astype(np.uint16)  # numpy radix-sorts 16-bit keys
        per_set = np.bincount(key, minlength=nsets)
        touched = np.flatnonzero(per_set)
        res_lines: List[int] = []
        res_dirty: List[bool] = []
        res_n: List[int] = []
        for s in touched.tolist():
            cset = sets_[s]
            res_n.append(len(cset))
            res_lines += [tag * nsets + s for tag in cset]
            res_dirty += cset.values()
        nres = len(res_lines)
        order = np.argsort(np.concatenate(
            (np.repeat(touched.astype(key.dtype), res_n), key)),
            kind="stable")
        by_set = np.concatenate(
            (np.array(res_lines, dtype=np.int64), lines))[order]
        first = np.empty(len(by_set), dtype=bool)
        first[0] = True
        np.not_equal(by_set[1:], by_set[:-1], out=first[1:])
        uses = np.flatnonzero(first)
        use_line = by_set[uses]
        use_dirty = np.bitwise_or.reduceat(np.concatenate(
            (np.array(res_dirty, dtype=np.uint8),
             np.asarray(make_dirty, dtype=bool).view(np.uint8)))[order],
            uses)
        # < nres: a resident; otherwise nres + the program position
        src = order[uses]
        region = per_set[touched] + res_n
        start = np.searchsorted(uses, np.cumsum(region) - region)
        by_line, same, gap, next_gap, never = _reuse_links(use_line, ways)
        k = len(uses)
        j = np.flatnonzero(gap > ways)
        j = j[src[j] >= nres]
        lb = _lru_bounds(j, start, gap, next_gap, ways)
        is_miss = j - gap[j] < np.maximum(lb, 0)
        miss = j[is_miss]
        victim = lb[is_miss]
        # residencies, in line order: each line's first use or a miss
        # starts one; `end_dirty` holds each one's OR at its last use
        opens = np.empty(k, dtype=bool)
        opens[0] = True
        np.logical_not(same, out=opens[1:])
        missed = np.zeros(k, dtype=bool)
        missed[miss] = True
        opens |= missed[by_line]
        seg = np.flatnonzero(opens)
        end_dirty = np.zeros(k, dtype=bool)
        end_dirty[by_line[np.append(seg[1:], k) - 1]] = (
            np.bitwise_or.reduceat(use_dirty[by_line], seg))
        at = src[miss] - nres
        hit[at] = False
        evicts = victim >= 0
        victim = victim[evicts]
        dirty_victim = end_dirty[victim]
        wb = at[evicts][dirty_victim]
        victim_line[wb] = use_line[victim[dirty_victim]]
        victim_dirty[wb] = True
        self.add_counts(n, len(miss), len(wb))
        # each set keeps its last `ways` distinct lines, oldest first
        last = np.flatnonzero(next_gap == never)
        ends = np.searchsorted(last, np.append(start[1:], k)).tolist()
        tags = (use_line[last] // nsets).tolist()
        dirt = end_dirty[last].tolist()
        lo = 0
        for s, hi in zip(touched.tolist(), ends):
            cset = sets_[s]
            cset.clear()
            keep = max(lo, hi - ways)
            cset.update(zip(tags[keep:hi], dirt[keep:hi]))
            lo = hi
        return hit, victim_line, victim_dirty

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


def _reuse_links(use_line: np.ndarray, ways: int):
    """Link each use to the previous and next use of its line.

    Returns ``(by_line, same, gap, next_gap, never)``: the stable order
    of the uses by line, whether each neighbour pair in that order shares
    a line, and per use the distance back to the previous use and on to
    the next use of its line, ``never`` where there is none.
    """
    k = len(use_line)
    lo = int(use_line.min())
    key = use_line - lo
    if int(use_line.max()) - lo < 1 << 16:
        key = key.astype(np.uint16)  # radix sort, as for the sets
    by_line = np.argsort(key, kind="stable")
    ordered = key[by_line]
    same = ordered[1:] == ordered[:-1]
    never = k + ways + 1
    after, before = by_line[1:], by_line[:-1]
    dist = np.where(same, after - before, never)
    gap = np.empty(k, dtype=np.int64)
    gap[after] = dist
    gap[by_line[0]] = never
    next_gap = np.empty(k, dtype=np.int64)
    next_gap[before] = dist
    next_gap[by_line[-1]] = never
    return by_line, same, gap, next_gap, never


def _lru_bounds(j: np.ndarray, start: np.ndarray, gap: np.ndarray,
                next_gap: np.ndarray, ways: int) -> np.ndarray:
    """LB of each use in ``j``: the position of the ``ways``-th most
    recent distinct line before it in its set, or -1 where that is one
    of the set's free ways.

    ``start`` holds the first use of each set's run of uses (all
    ``gap``/``next_gap`` positions are set-major). A position p is *live*
    at j when its line is not used again in (p, j). LB(j) is the
    ``ways``-th largest live position before j, counting the set's
    ``ways`` free ways just before its first use as live.
    """
    k = len(gap)
    # live positions among the last `ways` before each position, as a
    # running count: moving from i to i + 1 adds i, drops i - ways if
    # that was still live (a free way always is), and drops the previous
    # use of i's line if it lies inside the window
    drop = np.ones(k, dtype=np.int32)
    if k > ways:
        np.greater_equal(next_gap[:-ways], ways, out=drop[ways:],
                         casting="unsafe")
    near = (start[:, None] + np.arange(ways)).ravel()
    drop[near[near < k]] = 1
    step = 1 - drop
    step -= gap < ways
    count = np.zeros(k + 1, dtype=np.int32)
    np.cumsum(step, out=count[1:])
    j_start = start[np.searchsorted(start, j, side="right") - 1]
    live = ways + count[j] - count[j_start]
    lb = np.where((live == ways) & (j - ways >= j_start), j - ways, -1)
    # the rest look further back, where only a position whose next use
    # is more than `ways` later can still be live: scan those one
    # candidate per round, at most down to the first of the set
    cand = np.flatnonzero(next_gap > ways)
    cand_next = cand + next_gap[cand]
    pend = np.flatnonzero(live < ways)
    pj = j[pend]
    at = np.searchsorted(cand, pj - ways) - 1
    stop = np.searchsorted(cand, j_start[pend])
    inside = at >= stop
    pend, pj, at, stop = pend[inside], pj[inside], at[inside], stop[inside]
    need = ways - live[pend]
    while len(pend):
        need -= cand_next[at] >= pj
        found = need == 0
        done = found | (at == stop)
        if done.any():
            lb[pend[found]] = cand[at[found]]
            keep = ~done
            pend, pj, at = pend[keep], pj[keep], at[keep]
            stop, need = stop[keep], need[keep]
        at -= 1
    return lb
