"""Slab allocator for accelerator-visible memory objects (paper §IV-D).

The paper maps "a large contiguous memory space for accelerator-accessible
data structures that is managed with a slab allocator", so accelerators
deal in (object-id, offset) pairs and translations are per-object rather
than per-page. This allocator hands out page-aligned, non-overlapping
extents inside one contiguous arena and supports free/reuse via size-class
free lists (the "slabs").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import AllocationError
from ..params import PAGE_BYTES

#: arena base: away from 0 so "address 0" bugs are loud
DEFAULT_ARENA_BASE = 0x1000_0000


def _round_up(value: int, granularity: int) -> int:
    return (value + granularity - 1) // granularity * granularity


@dataclass(frozen=True)
class Allocation:
    """One allocated memory object extent."""

    obj_id: int
    name: str
    base: int
    size: int
    align: int = PAGE_BYTES

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end


class SlabAllocator:
    """Page-granular allocator over a contiguous accelerator arena."""

    def __init__(self, arena_size: int = 1 << 30):
        self.arena_base = DEFAULT_ARENA_BASE
        self.arena_size = arena_size
        self._bump = DEFAULT_ARENA_BASE
        self._live: Dict[int, Allocation] = {}
        self._by_name: Dict[str, int] = {}
        self._free_lists: Dict[int, List[int]] = {}  # size -> bases
        self._next_id = 0
        self.total_allocs = 0
        self.total_frees = 0

    def allocate(self, name: str, size: int,
                 align: int = PAGE_BYTES) -> Allocation:
        """Allocate ``size`` bytes (rounded to pages) for object ``name``.

        ``align`` lets the runtime place each object at an L3 stripe
        boundary so distinct data structures anchor to distinct home
        clusters (the basis of distributed placement).
        """
        if size <= 0:
            raise AllocationError(f"object {name!r}: size must be > 0, got {size}")
        if name in self._by_name:
            raise AllocationError(f"object {name!r} already allocated")
        if align % PAGE_BYTES != 0:
            raise AllocationError(f"align must be page-multiple: {align}")
        slab_size = _round_up(size, PAGE_BYTES)
        free = self._free_lists.get((slab_size, align))
        if free:
            base = free.pop()
        else:
            base = _round_up(self._bump, align)
            if base + slab_size > self.arena_base + self.arena_size:
                raise AllocationError(
                    f"arena exhausted allocating {slab_size} bytes for {name!r}"
                )
            self._bump = base + slab_size
        alloc = Allocation(self._next_id, name, base, slab_size, align)
        self._next_id += 1
        self._live[alloc.obj_id] = alloc
        self._by_name[name] = alloc.obj_id
        self.total_allocs += 1
        return alloc

    def free(self, obj_id: int) -> None:
        alloc = self._live.pop(obj_id, None)
        if alloc is None:
            raise AllocationError(f"free of unknown object id {obj_id}")
        del self._by_name[alloc.name]
        self._free_lists.setdefault(
            (alloc.size, alloc.align), []
        ).append(alloc.base)
        self.total_frees += 1

    def get(self, obj_id: int) -> Allocation:
        try:
            return self._live[obj_id]
        except KeyError:
            raise AllocationError(f"unknown object id {obj_id}") from None

    def by_name(self, name: str) -> Allocation:
        try:
            return self._live[self._by_name[name]]
        except KeyError:
            raise AllocationError(f"unknown object {name!r}") from None

    def translate(self, obj_id: int, offset: int) -> int:
        """(object-id, byte offset) -> physical address."""
        alloc = self.get(obj_id)
        if not (0 <= offset < alloc.size):
            raise AllocationError(
                f"offset {offset} out of bounds for {alloc.name!r} "
                f"(size {alloc.size})"
            )
        return alloc.base + offset

    def find(self, addr: int) -> Optional[Allocation]:
        """Reverse lookup: which live object contains ``addr``?"""
        for alloc in self._live.values():
            if alloc.contains(addr):
                return alloc
        return None

    def live_allocations(self) -> List[Allocation]:
        return list(self._live.values())
