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

    # -- set-major batch walk (production path) ------------------------------
    #
    # The per-access LRU transition is stateful *within* a set but
    # independent *across* sets, so a batch can be replayed one set at a
    # time: a stable sort by set keeps each set's accesses in program
    # order, and the set's dict stays in a local for its whole run. After
    # the first access of a set-local run of one line, that line is the
    # set's MRU entry and accesses to other sets cannot move it, so every
    # later access of the run is a hit whose only effect is OR-ing in its
    # dirty bit: one lookup serves the run. The walk is bit-identical to
    # per-access `access()` calls — counters, LRU order, dirty bits and
    # victims alike.

    def access_batch(self, lines: np.ndarray, make_dirty: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance the cache state over a batch of line accesses.

        ``lines`` are line numbers (``addr >> line_shift``) in program
        order; ``make_dirty`` is the per-access dirty contribution (the
        hit/miss outcome and LRU movement never depend on it). Returns
        ``(hit, victim_line, victim_dirty)`` aligned with the inputs,
        with ``victim_line == -1`` where no dirty line was evicted.
        Counter updates (accesses/hits/misses/writebacks) match
        per-access ``access()`` calls exactly.
        """
        n = len(lines)
        hit = np.ones(n, dtype=bool)
        victim_line = np.full(n, -1, dtype=np.int64)
        victim_dirty = np.zeros(n, dtype=bool)
        if n == 0:
            return hit, victim_line, victim_dirty
        nsets = self.num_sets
        ways = self.ways
        key = lines % nsets
        if nsets <= 1 << 16:
            key = key.astype(np.uint16)  # numpy radix-sorts 16-bit keys
        order = np.argsort(key, kind="stable")
        by_set = lines[order]
        is_head = np.empty(n, dtype=bool)
        is_head[0] = True
        np.not_equal(by_set[1:], by_set[:-1], out=is_head[1:])
        heads = np.flatnonzero(is_head)
        head_lines = by_set[heads]
        head_sets = head_lines % nsets
        set_ends = np.flatnonzero(head_sets[1:] != head_sets[:-1]) + 1
        set_starts = np.concatenate(([0], set_ends)).tolist()
        tags = (head_lines // nsets).tolist()
        dirty = np.logical_or.reduceat(make_dirty[order], heads).tolist()
        misses: List[int] = []
        victims: List[int] = []
        victim_lines: List[int] = []
        sets_ = self._sets
        for si, lo, hi in zip(head_sets[set_starts].tolist(), set_starts,
                              set_starts[1:] + [len(tags)]):
            cset = sets_[si]
            pop = cset.pop
            for r in range(lo, hi):
                tag = tags[r]
                d = pop(tag, _ABSENT)
                if d is _ABSENT:
                    misses.append(r)
                    if len(cset) >= ways:
                        vtag = next(iter(cset))  # oldest == LRU
                        if pop(vtag):
                            victims.append(r)
                            victim_lines.append(vtag * nsets + si)
                    cset[tag] = dirty[r]
                else:
                    cset[tag] = d or dirty[r]  # move to MRU
        first = order[heads]  # program position of each run's head
        hit[first[misses]] = False
        if victims:
            at = first[victims]
            victim_line[at] = victim_lines
            victim_dirty[at] = True
        self.add_counts(n, len(misses), len(victims))
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
