"""Static-NUCA L3: one slice per cluster on the mesh.

Table III ships 8 clusters; the geometry is fully machine-described, so
any cluster count a document derives works here. (Table III's 4 banks
per cluster are not modelled: each slice is one cache.)

Address mapping is *static* and range-based: contiguous slice-sized
stripes of the address space map round-robin to clusters. A data
structure no larger than one slice therefore lives wholly in one
cluster — this is what lets the runtime *anchor* each memory object to
a home bank (paper §IV-D: "accesses to data structures are localized to
the home bank where they are anchored"); larger structures stripe
across several clusters.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..params import CacheParams, MachineParams
from .cache import AccessOutcome, Cache


class NucaL3:
    """The shared L3 as independent per-cluster slices."""

    def __init__(self, machine: MachineParams):
        self.num_clusters = machine.l3_clusters
        slice_bytes = machine.l3.size_bytes // self.num_clusters
        slice_params = CacheParams(
            size_bytes=slice_bytes,
            ways=machine.l3.ways,
            latency_cycles=machine.l3.latency_cycles,
            mshrs=machine.l3.mshrs,
            line_bytes=machine.l3.line_bytes,
        )
        self.slices: List[Cache] = [
            Cache(slice_params, name=f"l3c{i}") for i in range(self.num_clusters)
        ]
        #: contiguous bytes mapped to one cluster before striping wraps
        self.stripe_bytes = slice_bytes

    # -- static address mapping ------------------------------------------------
    def home_cluster(self, addr: int) -> int:
        """Cluster whose slice caches this address (range-striped)."""
        return (addr // self.stripe_bytes) % self.num_clusters

    # -- accesses ---------------------------------------------------------------
    def access(self, addr: int, is_write: bool) -> AccessOutcome:
        """Demand access routed to the home slice."""
        return self.slices[self.home_cluster(addr)].access(addr, is_write)

    def fill(self, addr: int, dirty: bool = False,
             is_prefetch: bool = False) -> Optional[Tuple[int, bool]]:
        return self.slices[self.home_cluster(addr)].fill(
            addr, dirty=dirty, is_prefetch=is_prefetch
        )

    # -- statistics ---------------------------------------------------------------
    @property
    def accesses(self) -> int:
        return sum(s.accesses for s in self.slices)
