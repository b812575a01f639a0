"""Assembled memory hierarchy with host and accelerator access paths.

Two access paths exist, mirroring the paper's architecture (Figure 2a):

* **Host path** — L1 -> L2 (stride prefetcher) -> home L3 slice over the
  mesh -> DRAM. Used by the OoO baseline and by non-offloaded code.
* **Accelerator path** — per-cluster ACP (1-way 1 KB) -> home L3 slice
  (local, or remote over the mesh) -> DRAM. Used by access units; data
  never climbs into L1/L2, which is where decentralized accesses save
  their traffic (Figure 8).

The hierarchy charges all energies, NoC traffic (Figure 10 classes) and
keeps the byte-movement ledger behind the Figure 9 / data-movement
results.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from itertools import chain, compress, count
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..energy import EnergyLedger
from ..events import ps_to_cycles
from ..noc import Mesh, MessageCosts, TrafficClass, TrafficLedger
from ..noc.traffic import Lazy
from ..obs import OBS
from ..params import MONO_PRIVATE_WAYS, CacheParams, MachineParams, NocParams
from .cache import _ABSENT, Cache
from .dram import Dram
from .nuca import NucaL3
from .prefetch import StridePrefetcher

if TYPE_CHECKING:
    from ..runtime.streams import Walk

#: the traffic classes the hierarchy records, bound once: looking a
#: member up on an Enum class runs Python, about ten times the cost of
#: reading a module global
_HOST_CTRL = TrafficClass.HOST_CTRL
_HOST_DATA = TrafficClass.HOST_DATA
_ACC_CTRL = TrafficClass.ACC_CTRL
_ACC_DATA = TrafficClass.ACC_DATA

@dataclass
class AccessStats:
    """Per-level access counters (Figure 8's cache-access metric)."""

    l1: int = 0
    l2: int = 0
    l3: int = 0
    acp: int = 0
    dram: int = 0
    prefetches: int = 0

    def total_cache_accesses(self) -> int:
        return self.l1 + self.l2 + self.l3 + self.acp

    def as_dict(self) -> Dict[str, int]:
        return {
            "l1": self.l1, "l2": self.l2, "l3": self.l3,
            "acp": self.acp, "dram": self.dram,
            "prefetches": self.prefetches,
        }


class MemoryHierarchy:
    """The full Table III memory system."""

    def __init__(self, machine: MachineParams, energy: EnergyLedger,
                 private_cache: bool = False):
        self.machine = machine
        self.energy = energy
        #: static latencies, shared with every hierarchy on the same
        #: latency parameters, and so is their mesh
        self.latency = latency_table(machine)
        self.mesh = self.latency.messages.mesh
        self.traffic = TrafficLedger(self.mesh, energy,
                                     self.latency.messages)
        self.l1 = Cache(machine.l1, name="l1d")
        self.l2 = Cache(machine.l2, name="l2")
        self.l3 = NucaL3(machine)
        self.dram = Dram(machine.dram, energy)
        self.prefetcher: Optional[StridePrefetcher] = (
            StridePrefetcher(line_bytes=machine.l1.line_bytes)
            if machine.l2_stride_prefetcher else None
        )
        acp_params = CacheParams(
            size_bytes=machine.access_unit.acp_bytes,
            ways=machine.access_unit.acp_ways,
            latency_cycles=1,
            mshrs=4,
            line_bytes=machine.l3.line_bytes,
        )
        self.acps: List[Cache] = [
            Cache(acp_params, name=f"acp{i}")
            for i in range(machine.l3_clusters)
        ]
        #: Mono-CA's private cache on the L3 bus (None elsewhere): every
        #: line and element that accelerator touches goes through it, and
        #: its misses and dirty victims go to their home slices
        self.private: Optional[Cache] = Cache(
            CacheParams(size_bytes=machine.mono_private_bytes,
                        ways=MONO_PRIVATE_WAYS,
                        latency_cycles=1, mshrs=8,
                        line_bytes=machine.l3.line_bytes),
            name="mono_ca_private",
        ) if private_cache else None
        #: total bytes moved between hierarchy levels (fills + writebacks)
        self.movement_bytes = 0
        self._line = machine.l3.line_bytes
        #: host tile / memory-controller mesh attachment points
        self._host = machine.noc.host_node
        self._mc = machine.noc.mc_node
        self._stats_prefetches = 0
        #: line -> residual latency a late prefetch exposes to the first
        #: demand hit (prefetch timeliness model). Bounded: entries for
        #: prefetched lines evicted before any demand hit are never
        #: popped, so without a cap the map grows for the whole run.
        self._late_prefetch: Dict[int, int] = {}
        #: each slice's and each ACP's set list, for the batch walks
        self._l3_sets = [slc._sets for slc in self.l3.slices]
        self._acp_sets = [acp._sets for acp in self.acps]

    # ------------------------------------------------------------------
    # host path
    # ------------------------------------------------------------------
    def host_access(self, addr: int, is_write: bool,
                    stream_id: Optional[int] = None) -> int:
        """Demand access from the core; returns total latency in cycles."""
        m = self.machine
        self.energy.charge("l1", "l1_access")
        latency = m.l1.latency_cycles
        out1 = self.l1.access(addr, is_write)
        if out1.evicted and out1.evicted[1]:
            self._writeback_into_l2(out1.evicted[0])
        if out1.hit:
            return latency

        # L1 miss -> L2
        self.energy.charge("l2", "l2_access")
        latency += m.l2.latency_cycles
        out2 = self.l2.access(addr, is_write=False)
        self.movement_bytes += self._line  # L2 -> L1 fill
        if out2.evicted and out2.evicted[1]:
            self._writeback_into_l3(out2.evicted[0])
        if self.prefetcher is not None and stream_id is not None:
            self._run_prefetcher(stream_id, addr)
        if out2.hit:
            # a prefetched line may still be in flight: the prefetcher
            # runs only `degree` lines ahead, so DRAM-sourced fills are
            # partially exposed to the first demand hit
            residual = self._late_prefetch.pop(self.l2.line_of(addr), 0)
            return latency + residual

        # L2 miss -> home L3 slice over the mesh
        latency += self._l3_demand(addr, from_node=self._host)
        self.movement_bytes += self._line  # L3 -> L2 fill
        return latency

    #: fraction of a prefetch fill's latency the first demand hit still
    #: waits for (the prefetcher runs only a couple of lines ahead)
    PREFETCH_LATE_FRACTION = 0.5

    #: most late-prefetch residuals tracked at once; a prefetch this many
    #: prefetches old has either been demanded (popped) or evicted from
    #: L2, so dropping its residual FIFO-style loses nothing meaningful
    LATE_PREFETCH_CAP = 8192

    def _note_late_prefetch(self, line: int, residual: int) -> None:
        late = self._late_prefetch
        if line not in late and len(late) >= self.LATE_PREFETCH_CAP:
            late.pop(next(iter(late)))  # oldest surviving entry
        late[line] = residual

    def _run_prefetcher(self, stream_id: int, addr: int) -> None:
        for pf_addr in self.prefetcher.observe(stream_id, addr):
            if self.l2.probe(pf_addr):
                continue
            # fetch from L3/DRAM into L2
            fill_latency = self._l3_demand(pf_addr, from_node=self._host)
            evicted = self.l2.fill(pf_addr, is_prefetch=True)
            self.movement_bytes += self._line
            if evicted and evicted[1]:
                self._writeback_into_l3(evicted[0])
            self._note_late_prefetch(self.l2.line_of(pf_addr), int(
                fill_latency * self.PREFETCH_LATE_FRACTION
            ))
            self._stats_prefetches += 1

    def _l3_demand(self, addr: int, from_node: int) -> int:
        """Access the home L3 slice from ``from_node``; fills from DRAM on
        miss. Returns latency cycles including mesh traversal."""
        m = self.machine
        cluster = self.l3.home_cluster(addr)
        self.energy.charge("l3", "l3_access")
        lat_req = self.traffic.record(
            _HOST_CTRL, from_node, cluster, 0
        )
        lat_fill = self.traffic.record(
            _HOST_DATA, cluster, from_node, self._line
        )
        latency = m.l3.latency_cycles
        latency += _ps_to_cycles_int(lat_req + lat_fill, m.core.freq_ghz)
        out3 = self.l3.access(addr, is_write=False)
        if out3.evicted and out3.evicted[1]:
            self._writeback_to_dram(cluster)
        if not out3.hit:
            latency += self._dram_fill(cluster)
        return latency

    def _dram_fill(self, cluster: int) -> int:
        lat_req = self.traffic.record(
            _HOST_CTRL, cluster, self._mc, 0
        )
        lat_fill = self.traffic.record(
            _HOST_DATA, self._mc, cluster, self._line
        )
        self.movement_bytes += self._line
        cycles = self.dram.access(is_write=False)
        return cycles + _ps_to_cycles_int(
            lat_req + lat_fill, self.machine.core.freq_ghz
        )

    def close_accounting(self) -> None:
        """Does nothing, and nothing calls it: every access path charges
        the ledgers directly. It stays because the benchmark's traced
        runs (``perfbench/tracing.py``) wrap it as the
        ``mem.accounting`` layer."""

    def _dram_traffic(self, cluster: int, fills: int, wbs: int) -> None:
        """Charge ``fills`` DRAM line fills into ``cluster``'s slice and
        ``wbs`` dirty lines it writes back to DRAM: per line, what
        :meth:`_dram_fill` and :meth:`_writeback_to_dram` charge. The
        host batch walk counts both per home and hands the counts here."""
        if not (fills or wbs):
            return
        record = self.traffic.record
        line = self._line
        if fills:
            record(_HOST_CTRL, cluster, self._mc, 0, fills)
            record(_HOST_DATA, self._mc, cluster, line, fills)
            self.dram.reads += fills
        if wbs:
            record(_HOST_DATA, cluster, self._mc, line, wbs)
            self.dram.writes += wbs
        self.energy.charge("dram", "dram_line_access", fills + wbs)
        self.movement_bytes += (fills + wbs) * line

    def _writeback_into_l2(self, line: int) -> None:
        addr = line * self._line
        self.energy.charge("l2", "l2_access")
        self.movement_bytes += self._line
        evicted = self.l2.fill(addr, dirty=True)
        if evicted and evicted[1]:
            self._writeback_into_l3(evicted[0])

    def _writeback_into_l3(self, line: int) -> None:
        addr = line * self._line
        cluster = self.l3.home_cluster(addr)
        self.energy.charge("l3", "l3_access")
        self.traffic.record(
            _HOST_DATA, self._host, cluster, self._line
        )
        self.movement_bytes += self._line
        evicted = self.l3.fill(addr, dirty=True)
        if evicted and evicted[1]:
            self._writeback_to_dram(cluster)

    def _writeback_to_dram(self, cluster: int) -> None:
        self.traffic.record(
            _HOST_DATA, cluster, self._mc, self._line
        )
        self.movement_bytes += self._line
        self.dram.access(is_write=True)

    # ------------------------------------------------------------------
    # accelerator path
    # ------------------------------------------------------------------
    def accel_line_fetch(self, local_cluster: int, addr: int,
                         is_write: bool) -> int:
        """Line-granular transfer between an access-unit buffer and the
        home L3 slice (stride-FSM fill/drain path).

        The ACP is a coherent *port* here, not an allocating cache: one
        line moves L3 <-> buffer, nothing is installed in between.
        Returns latency in cycles (2 GHz domain).
        """
        self.energy.charge("access_unit", "acp_access")
        home = self.l3.home_cluster(addr)
        self.energy.charge("l3", "l3_access")
        lat_req = self.traffic.record(
            _ACC_CTRL, local_cluster, home, 0
        )
        lat_data = self.traffic.record(
            _ACC_DATA,
            home if not is_write else local_cluster,
            local_cluster if not is_write else home,
            self._line,
        )
        if home != local_cluster:
            # remote fill: the line crosses the mesh. A co-located
            # buffer<->bank transfer is the near-data case and does not
            # count as hierarchy data movement.
            self.movement_bytes += self._line
        latency = 1 + (
            self.machine.l3_bank_latency if home == local_cluster
            else self.machine.l3.latency_cycles
        )
        latency += _ps_to_cycles_int(
            lat_req + lat_data, self.machine.core.freq_ghz
        )
        out = self.l3.access(addr, is_write=is_write)
        if out.evicted and out.evicted[1]:
            self._writeback_to_dram(home)
        if not out.hit and not is_write:
            latency += self._dram_fill(home)
        elif not out.hit and is_write:
            # write-allocate of a fully-written line needs no DRAM read
            pass
        return latency

    def accel_elem_access(self, local_cluster: int, addr: int,
                          is_write: bool, elem_bytes: int) -> int:
        """Element-granular in-place access at the home L3 bank.

        This is the near-data cp_read/cp_write path: the access executes
        at the data's home cluster, where the bank-side ACP coalesces
        spatially-local indirect accesses into line-granular bank reads;
        only the *element* crosses the NoC back to the requester. Line
        moves between a bank and its own ACP are intra-cluster and do not
        count as hierarchy data movement. Returns latency cycles.
        """
        home = self.l3.home_cluster(addr)
        acp = self.acps[home]
        self.energy.charge("access_unit", "acp_access")
        lat_req = self.traffic.record(
            _ACC_CTRL, local_cluster, home, 0
        )
        lat_data = self.traffic.record(
            _ACC_DATA,
            home if not is_write else local_cluster,
            local_cluster if not is_write else home,
            elem_bytes,
        )
        if home != local_cluster:
            self.movement_bytes += elem_bytes
        latency = 1 + _ps_to_cycles_int(
            lat_req + lat_data, self.machine.core.freq_ghz
        )
        out = acp.access(addr, is_write)
        if out.evicted and out.evicted[1]:
            # dirty line retires into the local bank
            self.energy.charge("l3", "l3_access")
            evicted = self.l3.fill(out.evicted[0] * self._line, dirty=True)
            if evicted and evicted[1]:
                self._writeback_to_dram(home)
        if out.hit:
            return latency
        self.energy.charge("l3", "l3_access")
        latency += self.machine.l3_bank_latency
        out3 = self.l3.access(addr, is_write=False)
        if out3.evicted and out3.evicted[1]:
            self._writeback_to_dram(home)
        if not out3.hit:
            latency += self._dram_fill(home)
        return latency

    def l3_demand(self, addr: int, from_node: int) -> int:
        """Public demand access to the home L3 slice from any mesh node.

        Used by accelerators with private caches (Mono-CA) whose misses go
        straight to the shared L3 as cache fills. Returns latency cycles.
        """
        latency = self._l3_demand(addr, from_node=from_node)
        self.movement_bytes += self._line
        return latency

    def writeback_line_from(self, line: int, from_node: int) -> None:
        """Public dirty-line writeback into L3 from any mesh node."""
        addr = line * self._line
        cluster = self.l3.home_cluster(addr)
        self.energy.charge("l3", "l3_access")
        self.traffic.record(
            _HOST_DATA, from_node, cluster, self._line
        )
        self.movement_bytes += self._line
        evicted = self.l3.fill(addr, dirty=True)
        if evicted and evicted[1]:
            self._writeback_to_dram(cluster)

    # ------------------------------------------------------------------
    # batched production paths (the scalar methods above are the
    # reference, selected by REPRO_REFERENCE=1)
    #
    # Each *_batch method replays a chunk of accesses through exactly the
    # same cache/DRAM state transitions as its scalar counterpart, in the
    # same order, but (a) works on the caches' set dicts directly, never
    # through Cache.access (the host path first advances L1, which
    # nothing downstream feeds back into, with the reuse-distance
    # :meth:`~repro.mem.cache.Cache.access_batch` walk), and (b) takes
    # its latencies from the shared static :class:`LatencyTable`.
    # The host walk tallies its counts per home cluster in locals and
    # charges them once per walk. The accelerator walks split each chunk
    # into what depends on cache state and what does not. What does not
    # is kept with the record (:class:`~repro.runtime.streams.KeptPlan`,
    # once per record and L3 layout): each chunk walk's addresses and
    # homes, each plan's chunk homes, the accesses and messages of each
    # (requester, home) pair, and, once per latency table, each chunk's
    # state-free latency. A process adds those counts to its
    # :class:`AccelTally` (:meth:`accel_costs`) and binds its walks once
    # per run; a walk (:meth:`accel_line_fetch_batch`,
    # :meth:`accel_elem_access_batch` or, on a machine with Mono-CA's
    # private cache, :meth:`l3_demand_batch`) then only advances the set
    # dicts for one chunk, adds misses and dirty victims to the tally
    # and returns the latency they add; and :meth:`charge_accel` charges
    # the tally when the process ends. The Mono-CA walk's scalar
    # reference is the engine's per-access private-cache lookup with
    # :meth:`writeback_line_from` and :meth:`l3_demand`. The counts are
    # exact integers that nothing reads before a run ends, and both
    # ledgers read them in a fixed order, so the results are
    # bit-identical to the scalar path, which charges per access
    # (enforced by tests/mem/test_batch_equiv.py and
    # tests/sim/test_fastpath_equiv.py).
    # ------------------------------------------------------------------
    def host_access_batch(self, addrs: np.ndarray, is_write: np.ndarray,
                          stream_ids: np.ndarray) -> int:
        """Replay a chunk of host demand accesses (see :meth:`host_access`).

        Returns the summed post-L1 exposure ``sum(max(lat - l1_lat, 0))``
        in cycles — the only per-access timing quantity the OoO model
        consumes.

        Nothing downstream ever feeds back into L1, and the prefetcher
        sees only the L1 misses' (stream, address) pairs, so both are
        advanced over the whole chunk first: L1 by the reuse-distance walk,
        the prefetcher by :meth:`StridePrefetcher.observe_batch`. One
        flat loop then visits *only the L1 misses* in program order and
        applies each one's L2, prefetch, L3-slice and DRAM effects in the
        scalar order, working directly on the L2 and slice set dicts with
        its counters in locals.
        """
        n = len(addrs)
        if n == 0:
            return 0
        l1, l2, l3 = self.l1, self.l2, self.l3
        hit, victim_line, _ = l1.access_batch(addrs >> l1.line_shift,
                                              is_write)
        self.energy.charge("l1", "l1_access", n)
        miss_pos = np.flatnonzero(~hit)
        n_l2 = len(miss_pos)
        if not n_l2:
            return 0
        m = self.machine
        line = self._line
        host = self._host
        stripe = l3.stripe_bytes
        ncl = l3.num_clusters
        clusters = range(ncl)
        # per home cluster: L3 hit latency, and what a DRAM fill adds
        # (lists from the latency table: an L3 read indexes them)
        conv = self.latency.conv(host, line, False)
        l3_hit_lat = [m.l3.latency_cycles + conv[c] for c in clusters]
        fill_lat = [self.latency.fill[c] for c in clusters]
        s2, n2, w2, sets2 = l2.line_shift, l2.num_sets, l2.ways, l2._sets
        slc = l3.slices[0]
        s3, n3, w3 = slc.line_shift, slc.num_sets, slc.ways
        sets3 = [sl._sets for sl in l3.slices]
        late = self._late_prefetch
        cap = self.LATE_PREFETCH_CAP
        frac = self.PREFETCH_LATE_FRACTION
        miss_addrs = addrs[miss_pos]
        # each miss's prefetch candidates, -1 where none
        plans = [()] * n_l2 if self.prefetcher is None else (
            self.prefetcher.observe_batch(stream_ids[miss_pos], miss_addrs)
            .tolist())
        # counters, added to the caches once, in the finally, and charged
        # to the ledgers after the walk: `extra` sums the misses' latency
        # past L2's own, and `l1_wbs` counts dirty L1 victims written
        # back into L2
        l2_hits = n_pf = extra = l1_wbs = 0
        l3_acc = [0] * ncl
        l3_miss = [0] * ncl
        l3_wbs = [0] * ncl    # dirty slice victims -> DRAM
        l3_fills = [0] * ncl  # dirty L2 victims -> slice

        def l2_evict(cset: Dict[int, bool], si: int) -> None:
            """Evict a full L2 set's LRU line; a dirty one retires into
            its home slice."""
            vt = next(iter(cset))
            if not cset.pop(vt):
                return
            a = (vt * n2 + si) * line
            c = (a // stripe) % ncl
            l3_fills[c] += 1
            ln3 = a >> s3
            cset3 = sets3[c][ln3 % n3]
            tag3 = ln3 // n3
            if cset3.pop(tag3, None) is None and len(cset3) >= w3:
                if cset3.pop(next(iter(cset3))):
                    l3_wbs[c] += 1
            cset3[tag3] = True

        def l3_read(a: int) -> int:
            """A read at the home slice (DRAM fill on a miss); returns
            its latency."""
            c = (a // stripe) % ncl
            l3_acc[c] += 1
            ln3 = a >> s3
            cset3 = sets3[c][ln3 % n3]
            tag3 = ln3 // n3
            d3 = cset3.pop(tag3, _ABSENT)
            if d3 is not _ABSENT:
                cset3[tag3] = d3
                return l3_hit_lat[c]
            l3_miss[c] += 1
            if len(cset3) >= w3 and cset3.pop(next(iter(cset3))):
                l3_wbs[c] += 1
            cset3[tag3] = False
            return l3_hit_lat[c] + fill_lat[c]

        try:
            for addr, vl, pfs in zip(miss_addrs.tolist(),
                                     victim_line[miss_pos].tolist(), plans):
                if vl >= 0:
                    # dirty L1 victim written back into L2
                    l1_wbs += 1
                    ln2 = (vl * line) >> s2
                    si = ln2 % n2
                    cset = sets2[si]
                    tag = ln2 // n2
                    if cset.pop(tag, None) is None and len(cset) >= w2:
                        l2_evict(cset, si)
                    cset[tag] = True
                # L1 miss -> L2 demand access
                ln2 = addr >> s2
                si = ln2 % n2
                cset = sets2[si]
                tag = ln2 // n2
                d = cset.pop(tag, _ABSENT)
                if d is _ABSENT:
                    if len(cset) >= w2:
                        l2_evict(cset, si)
                    cset[tag] = False
                else:
                    l2_hits += 1
                    cset[tag] = d
                for pf in pfs:
                    if pf < 0:
                        continue
                    pl = pf >> s2
                    psi = pl % n2
                    pset = sets2[psi]
                    ptag = pl // n2
                    if ptag in pset:
                        continue
                    # fetch from the home slice (and DRAM) into L2
                    lat = l3_read(pf)
                    if len(pset) >= w2:
                        l2_evict(pset, psi)
                    pset[ptag] = False
                    n_pf += 1
                    if pl not in late and len(late) >= cap:
                        del late[next(iter(late))]  # oldest residual
                    late[pl] = int(lat * frac)
                if d is _ABSENT:
                    # L2 miss -> home L3 slice over the mesh
                    extra += l3_read(addr)
                else:
                    # a late prefetch exposes its residual to this hit
                    extra += late.pop(ln2, 0)
        finally:
            l2_wbs = sum(l3_fills)  # each dirty L2 victim into a slice
            l2.add_counts(n_l2, n_l2 - l2_hits, l2_wbs)
            l2.prefetch_fills += n_pf
            self._stats_prefetches += n_pf
            for c, sl in enumerate(l3.slices):
                sl.add_counts(l3_acc[c], l3_miss[c], l3_wbs[c])
        record = self.traffic.record
        # an L2 access per L1 miss and per dirty L1 victim written back
        self.energy.charge("l2", "l2_access", n_l2 + l1_wbs)
        for c in clusters:
            self._dram_traffic(c, l3_miss[c], l3_wbs[c])
            if l3_acc[c]:
                record(_HOST_CTRL, host, c, 0, l3_acc[c])
                record(_HOST_DATA, c, host, line, l3_acc[c])
            if l3_fills[c]:
                record(_HOST_DATA, host, c, line, l3_fills[c])
            if l3_acc[c] or l3_fills[c]:
                self.energy.charge("l3", "l3_access",
                                   l3_acc[c] + l3_fills[c])
        # a fill into L1 per miss, into L2 per prefetch and per L2 miss,
        # and a line per dirty victim written back into L2 or a slice
        self.movement_bytes += line * (n_l2 + n_pf + n_l2 - l2_hits
                                       + l1_wbs + l2_wbs)
        return n_l2 * m.l2.latency_cycles + extra

    def accel_line_fetch_batch(self, walk: tuple, c: int, is_write: bool,
                               tally: "AccelTally") -> int:
        """Walk chunk ``c`` of line fetches (see :meth:`accel_line_fetch`)
        on the home slices' set dicts; returns the latency its DRAM
        fills add.

        ``walk`` is a line walk bound for one run
        (:meth:`~repro.runtime.streams.KeptPlan.line_steps`): the plan's
        lines, each segment's home and start, and each chunk's segment
        cut points. Each of the chunk's segments walks its home slice in
        program order, and its misses and dirty victims go to ``tally``.
        """
        lines, homes, starts, cuts = walk
        slc = self.l3.slices[0]
        shift, nsets, ways = slc.line_shift, slc.num_sets, slc.ways
        l3_sets = self._l3_sets
        total = 0
        for s in range(cuts[c], cuts[c + 1]):
            home = homes[s]
            sets = l3_sets[home]
            misses = wbs = 0
            for addr in lines[starts[s]:starts[s + 1]]:
                ln = addr >> shift
                cset = sets[ln % nsets]
                tag = ln // nsets
                d = cset.pop(tag, _ABSENT)
                if d is _ABSENT:
                    misses += 1
                    if len(cset) >= ways and cset.pop(next(iter(cset))):
                        wbs += 1
                    cset[tag] = is_write
                else:
                    cset[tag] = d or is_write  # move to MRU
            if misses:
                tally.l3_miss[home] += misses
                if is_write:
                    # write-allocate of a fully-written line needs no
                    # DRAM read
                    tally.l3_alloc[home] += misses
                else:
                    total += misses * self.latency.fill[home]
            if wbs:
                tally.l3_wbs[home] += wbs
                tally.dram_wbs[home] += wbs
        return total

    def accel_elem_access_batch(self, walk: tuple, c: int, is_write: bool,
                                tally: "AccelTally") -> int:
        """Walk chunk ``c`` of element accesses (see
        :meth:`accel_elem_access`) on the home ACPs' and slices' set
        dicts; returns the latency its ACP misses add.

        ``walk`` is an element walk bound for one run
        (:meth:`~repro.runtime.streams.KeptPlan.elem_steps`): the home
        clusters and head addresses of the same-line runs, and each
        chunk's run cut points. One iteration per run walks the home
        ACP's set dict and, on a miss, the home slice's. Misses and
        dirty victims go to ``tally``.
        """
        homes, heads, cuts = walk
        lo, hi = cuts[c], cuts[c + 1]
        l3 = self.l3
        stripe = l3.stripe_bytes
        ncl = l3.num_clusters
        acp = self.acps[0]
        shift, na, wa = acp.line_shift, acp.num_sets, acp.ways
        n3, w3 = l3.slices[0].num_sets, l3.slices[0].ways
        acp_sets_of, l3_sets_of = self._acp_sets, self._l3_sets
        bank_lat = self.machine.l3_bank_latency
        fill = self.latency.fill
        acp_miss, acp_wbs = tally.acp_miss, tally.acp_wbs
        l3_miss, l3_wbs, dram_wbs = tally.l3_miss, tally.l3_wbs, \
            tally.dram_wbs
        total = 0
        home = -1
        for h, addr in zip(homes[lo:hi], heads[lo:hi]):
            if h != home:
                home = h
                acp_sets = acp_sets_of[h]
                l3_sets = l3_sets_of[h]
            ln = addr >> shift
            si = ln % na
            cset = acp_sets[si]
            tag = ln // na
            d = cset.pop(tag, _ABSENT)
            if d is not _ABSENT:
                cset[tag] = d or is_write  # move to MRU
                continue
            acp_miss[h] += 1
            total += bank_lat
            if len(cset) >= wa:
                vt = next(iter(cset))
                if cset.pop(vt):
                    # the dirty victim retires into its bank, as
                    # NucaL3.fill(dirty=True) does
                    acp_wbs[h] += 1
                    vl = vt * na + si
                    vc = ((vl << shift) // stripe) % ncl
                    cset3 = l3_sets_of[vc][vl % n3]
                    tag3 = vl // n3
                    if cset3.pop(tag3, None) is None and len(cset3) >= w3:
                        if cset3.pop(next(iter(cset3))):
                            l3_wbs[vc] += 1
                            dram_wbs[h] += 1
                    cset3[tag3] = True
            cset[tag] = is_write
            # the bank read at the home slice
            cset3 = l3_sets[ln % n3]
            tag3 = ln // n3
            d = cset3.pop(tag3, _ABSENT)
            if d is _ABSENT:
                l3_miss[h] += 1
                total += fill[h]
                if len(cset3) >= w3 and cset3.pop(next(iter(cset3))):
                    l3_wbs[h] += 1
                    dram_wbs[h] += 1
                cset3[tag3] = False
            else:
                cset3[tag3] = d
        return total

    def accel_costs(self, costs: WalkCosts, lines: bool,
                    tally: "AccelTally") -> List[int]:
        """Add a walk's kept counts that no cache state changes to
        ``tally`` and return each chunk's latency that no cache state
        changes, for a walk of line fetches (see
        :meth:`accel_line_fetch`) or, with ``lines`` false, element
        accesses (see :meth:`accel_elem_access`). The counts are, per
        home, a line fetch's slice access or an element's ACP access;
        each access's ACP-port energy event (and a line fetch's L3
        energy event), its request and data messages, and the bytes of
        the accesses that leave their cluster. Per access, a line fetch
        takes one cycle and the bank latency at its own cluster or the
        L3 latency at another, an element access one cycle, and either
        adds the request and the payload crossing the mesh."""
        accesses = tally.l3_acc if lines else tally.acp_acc
        for home, k in costs.per_home:
            accesses[home] += k
        if lines:
            tally.l3_events += costs.accesses
        tally.acp_events += costs.accesses
        tally.moved += costs.remote * costs.payload
        tally.kept_msgs.append(costs.msgs)
        m = self.machine
        if lines:
            free = costs.free(self.latency, 1 + m.l3_bank_latency,
                              1 + m.l3.latency_cycles)
        else:
            free = costs.free(self.latency, 1, 1)
        return free.tolist()

    def accel_tally(self) -> "AccelTally":
        """An empty tally for one process's accelerator walks."""
        return AccelTally(self.l3.num_clusters)

    def charge_accel(self, tally: "AccelTally") -> None:
        """Charge what one process's walks added up: the slice, ACP and
        private-cache counters of the clusters the tally touched, the
        NoC messages with the DRAM fills and writebacks among them (one
        ledger call), the energy events with one DRAM charge, and the
        moved bytes. An empty tally charges nothing."""
        msgs, mc, line = tally.msgs, self._mc, self._line
        # an element's ACP miss reads its bank, and a dirty ACP victim
        # retires into one
        l3_events = tally.l3_events + sum(tally.acp_miss) + sum(
            tally.acp_wbs)
        per_cluster = (tally.l3_acc, tally.l3_miss, tally.l3_alloc,
                       tally.l3_wbs, tally.dram_wbs, tally.acp_acc,
                       tally.acp_miss, tally.acp_wbs)
        reads = writes = 0
        for (c, l3_acc, misses, alloc, wbs, dram_wbs, acp_acc, acp_miss,
             acp_wbs) in compress(zip(count(), *per_cluster),
                                  map(any, zip(*per_cluster))):
            if l3_acc or acp_miss or wbs:
                self.l3.slices[c].add_counts(l3_acc + acp_miss, misses, wbs)
            if acp_acc:
                self.acps[c].add_counts(acp_acc, acp_miss, acp_wbs)
            # per line, what _dram_fill and _writeback_to_dram send
            fills = misses - alloc
            if fills:
                for key in (("HOST_CTRL", c, mc, 0),
                            ("HOST_DATA", mc, c, line)):
                    msgs[key] = msgs.get(key, 0) + fills
                reads += fills
            if dram_wbs:
                key = ("HOST_DATA", c, mc, line)
                msgs[key] = msgs.get(key, 0) + dram_wbs
                writes += dram_wbs
        self.traffic.record_shapes(chain(msgs.items(), *tally.kept_msgs))
        if reads or writes:
            self.dram.reads += reads
            self.dram.writes += writes
            self.energy.charge("dram", "dram_line_access", reads + writes)
        if tally.acp_events:
            self.energy.charge("access_unit", "acp_access",
                               tally.acp_events)
        if l3_events:
            self.energy.charge("l3", "l3_access", l3_events)
        if tally.private_acc:
            self.private.add_counts(tally.private_acc, tally.private_miss,
                                    tally.private_wbs)
            self.energy.charge("accel", "private_cache_access",
                               tally.private_acc)
        self.movement_bytes += tally.moved + (reads + writes) * line

    def l3_demand_batch(self, walk: tuple, c: int, is_write: bool,
                        tally: "AccelTally") -> int:
        """Walk Mono-CA's chunk ``c`` on the private cache's and the home
        slices' set dicts; returns the latency its private-cache misses
        add.

        ``walk`` is bound for one run
        (:meth:`~repro.runtime.streams.KeptPlan.private_steps`): the
        requesting cluster, the addresses the private cache looks up
        and each chunk's cut points. The chunk's addresses are its lines,
        or the heads of its elements' same-line runs, since the rest of
        a run hits the line its head left most recently used; they are
        looked up in program order. A miss first retires a dirty victim
        into the victim's home slice, as :meth:`writeback_line_from`
        does, then reads the missed line at its own home slice, as
        :meth:`l3_demand` does. Misses, dirty victims and the messages
        they send go to ``tally``.
        """
        node, addrs, cuts = walk
        pc = self.private
        shift, npc, wpc, psets = pc.line_shift, pc.num_sets, pc.ways, \
            pc._sets
        l3 = self.l3
        stripe, ncl = l3.stripe_bytes, l3.num_clusters
        n3, w3 = l3.slices[0].num_sets, l3.slices[0].ways
        l3_sets_of = self._l3_sets
        fill = self.latency.fill
        l3_miss, l3_wbs, dram_wbs = tally.l3_miss, tally.l3_wbs, \
            tally.dram_wbs
        # per home cluster: missed lines read there, and dirty victims
        # retired into it
        reads: Dict[int, int] = {}
        retired: Dict[int, int] = {}
        total = 0
        for addr in addrs[cuts[c]:cuts[c + 1]]:
            ln = addr >> shift
            si = ln % npc
            cset = psets[si]
            tag = ln // npc
            d = cset.pop(tag, _ABSENT)
            if d is not _ABSENT:
                cset[tag] = d or is_write  # move to MRU
                continue
            if len(cset) >= wpc:
                vt = next(iter(cset))
                if cset.pop(vt):
                    vl = vt * npc + si
                    vc = ((vl << shift) // stripe) % ncl
                    retired[vc] = retired.get(vc, 0) + 1
                    cset3 = l3_sets_of[vc][vl % n3]
                    tag3 = vl // n3
                    if cset3.pop(tag3, None) is None and len(cset3) >= w3:
                        if cset3.pop(next(iter(cset3))):
                            l3_wbs[vc] += 1
                            dram_wbs[vc] += 1
                    cset3[tag3] = True
            cset[tag] = is_write
            h = (addr // stripe) % ncl
            reads[h] = reads.get(h, 0) + 1
            cset3 = l3_sets_of[h][ln % n3]
            tag3 = ln // n3
            d = cset3.pop(tag3, _ABSENT)
            if d is _ABSENT:
                l3_miss[h] += 1
                total += fill[h]
                if len(cset3) >= w3 and cset3.pop(next(iter(cset3))):
                    l3_wbs[h] += 1
                    dram_wbs[h] += 1
                cset3[tag3] = False
            else:
                cset3[tag3] = d
        if not reads:
            return total
        line = self._line
        row = self.latency.conv(node, line, False)
        l3_lat = self.machine.l3.latency_cycles
        msgs = tally.msgs
        for h, k in reads.items():
            total += k * (l3_lat + row[h])
            tally.l3_acc[h] += k
            for key in (("HOST_CTRL", node, h, 0),
                        ("HOST_DATA", h, node, line)):
                msgs[key] = msgs.get(key, 0) + k
        for h, k in retired.items():
            key = ("HOST_DATA", node, h, line)
            msgs[key] = msgs.get(key, 0) + k
        misses = sum(reads.values())
        wbs = sum(retired.values())
        tally.private_miss += misses
        tally.private_wbs += wbs
        tally.l3_events += misses + wbs
        tally.moved += (misses + wbs) * line
        return total

    # ------------------------------------------------------------------
    # flushes (coherence transitions)
    # ------------------------------------------------------------------
    def flush_host_range(self, base: int, size: int) -> int:
        """Flush [base, base+size) from L1+L2; returns dirty lines."""
        dirty = self.l1.invalidate_range(base, size)
        dirty += self.l2.invalidate_range(base, size)
        # dirty lines stream down to their home L3 slices
        if dirty:
            self.energy.charge("l3", "l3_access", dirty)
        self.movement_bytes += dirty * self._line
        return dirty

    def flush_accel_range(self, cluster: Optional[int], base: int,
                          size: int) -> int:
        if cluster is None:
            return 0
        dirty = self.acps[cluster].invalidate_range(base, size)
        self.movement_bytes += dirty * self._line
        return dirty

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def stats(self) -> AccessStats:
        return AccessStats(
            l1=self.l1.accesses,
            l2=self.l2.accesses,
            l3=self.l3.accesses,
            acp=sum(a.accesses for a in self.acps),
            dram=self.dram.accesses,
            prefetches=self._stats_prefetches,
        )

    def record_obs(self) -> None:
        """Publish this hierarchy's lifetime totals into the process
        observability registry. Called once per simulation run (the
        per-access hot paths stay instrumentation-free)."""
        s = self.stats()
        OBS.inc("mem.l1_accesses", s.l1)
        OBS.inc("mem.l2_accesses", s.l2)
        OBS.inc("mem.l3_accesses", s.l3)
        OBS.inc("mem.acp_accesses", s.acp)
        OBS.inc("mem.dram_accesses", s.dram)
        OBS.inc("mem.prefetches", s.prefetches)
        OBS.inc("mem.movement_bytes", self.movement_bytes)


class LatencyTable:
    """Static access latencies of one set of latency parameters, in core
    cycles: the NoC, the core clock, the DRAM latency and the line size.

    Each entry is a constant of the machine, like a ZigZag memory
    level's latency field: :attr:`messages` holds each message's
    one-way latency and static shape fields, :meth:`conv` the
    request-plus-data NoC conversion of one access, and :attr:`fill` the
    DRAM-fill cycles per cluster. Each entry equals what the scalar
    paths compute per call. A table meets few of its (requester, home)
    pairs, so entries are computed on first lookup
    (:class:`~repro.noc.traffic.Lazy`, which needs no lock on threads).
    :func:`latency_table` hands every hierarchy the one table of its
    parameters, and its traffic ledger the table's :attr:`messages`.
    """

    __slots__ = ("messages", "_freq", "_rows", "fill")

    def __init__(self, noc: NocParams, freq_ghz: float, dram_cycles: int,
                 line_bytes: int):
        self.messages = MessageCosts(Mesh(noc))
        ps = self.messages.ps
        self._freq = freq_ghz
        self._rows: Dict[Tuple[int, int, bool], Lazy] = {}
        mc = noc.mc_node
        #: cluster -> DRAM latency plus the fill's round trip to the MC
        self.fill = Lazy(lambda c: dram_cycles + _ps_to_cycles_int(
            ps[(c, mc, 0)] + ps[(mc, c, line_bytes)], freq_ghz))

    def conv(self, req: int, payload: int, is_write: bool) -> Dict[int, int]:
        """home -> cycles of one access from ``req``: a request header to
        the home, then ``payload`` bytes to it (a write) or back."""
        key = (req, payload, is_write)
        row = self._rows.get(key)
        if row is None:
            ps = self.messages.ps
            freq = self._freq

            def cycles(home: int) -> int:
                data = (ps[(req, home, payload)] if is_write
                        else ps[(home, req, payload)])
                return _ps_to_cycles_int(ps[(req, home, 0)] + data, freq)

            row = self._rows.setdefault(key, Lazy(cycles))
        return row


#: the tables handed out, one per set of latency parameters (the most
#: recently used, so a long sweep over many machines stays bounded)
_tables = functools.lru_cache(maxsize=64)(LatencyTable)
#: the service runs units on threads; the cache may build a missing
#: table twice without it
_tables_lock = threading.Lock()


def latency_table(machine: MachineParams) -> LatencyTable:
    """The one :class:`LatencyTable` of ``machine``'s NoC, core clock,
    DRAM latency and line size."""
    with _tables_lock:
        return _tables(machine.noc, machine.core.freq_ghz,
                       machine.dram.latency_cycles, machine.l3.line_bytes)


class WalkCosts:
    """What a chunk walk's accesses cost that no cache state changes,
    presented at one set of chunk homes: each (requester, home) pair's
    accesses and its request and data messages, and, once per latency
    table, each chunk's latency (what :meth:`MemoryHierarchy.accel_costs`
    adds to a tally and returns). A record keeps one per walk, set of
    homes and direction (:class:`~repro.runtime.streams.KeptPlan`)."""

    __slots__ = ("per_home", "msgs", "accesses", "remote", "payload",
                 "_walk", "_pair", "_codes", "_clusters", "_is_write",
                 "_free")

    def __init__(self, walk: "Walk", homes: np.ndarray, clusters: int,
                 payload: int, is_write: bool):
        self._walk = walk
        self._clusters = clusters
        self.payload = payload
        self._is_write = is_write
        #: each (chunk, home) group's (requester, home) pair code
        cuts = walk.cuts
        chunk = np.repeat(np.arange(len(cuts) - 1), np.diff(cuts))
        self._pair = homes[chunk] * clusters + walk.home
        # accesses per pair code (exact: float64 holds integers below
        # 2**53)
        per_pair = np.bincount(self._pair, weights=walk.count)
        codes = np.flatnonzero(per_pair)
        accesses = per_pair[codes].astype(np.int64)
        local, home = np.divmod(codes, clusters)
        self._codes = codes.tolist()
        self.remote = int(accesses[local != home].sum())
        per_home = np.bincount(home, weights=accesses).astype(np.int64)
        used = np.flatnonzero(per_home)
        #: (home, accesses) and (message shape, messages) pairs
        self.per_home = tuple(zip(used.tolist(), per_home[used].tolist()))
        pairs = list(zip(local.tolist(), home.tolist(), accesses.tolist()))
        self.msgs = tuple(
            [(("ACC_CTRL", r, h, 0), k) for r, h, k in pairs]
            + [((("ACC_DATA", r, h, payload) if is_write
                 else ("ACC_DATA", h, r, payload)), k)
               for r, h, k in pairs])
        self.accesses = int(walk.count.sum())
        self._free: Dict[tuple, np.ndarray] = {}

    def free(self, table: LatencyTable, near: int, far: int) -> np.ndarray:
        """Each chunk's latency in core cycles that no cache state
        changes: per access, ``near`` cycles at its own cluster or
        ``far`` at another, plus the request and the payload crossing
        the mesh (``table``'s conversion)."""
        key = (table, near, far)
        free = self._free.get(key)
        if free is None:
            walk = self._walk
            clusters = self._clusters
            unit = np.zeros(clusters * clusters, dtype=np.int64)
            for code in self._codes:
                local, h = divmod(code, clusters)
                unit[code] = ((near if h == local else far) + table.conv(
                    local, self.payload, self._is_write)[h])
            summed = np.concatenate(
                ([0], np.cumsum(walk.count * unit[self._pair])))
            bounds = np.asarray(walk.cuts)
            free = self._free[key] = (summed[bounds[1:]]
                                      - summed[bounds[:-1]])
        return free


class AccelTally:
    """What one offload process's accelerator walks add up, charged once
    by :meth:`MemoryHierarchy.charge_accel` when the process ends.

    A process adds the kept counts no cache state changes once per run
    (:meth:`MemoryHierarchy.accel_costs`); the walks add misses and
    dirty victims. The counts
    are exact integers that nothing reads before the run ends, so
    charging them once equals charging each access as it happens.
    """

    __slots__ = ("l3_acc", "l3_miss", "l3_alloc", "l3_wbs", "dram_wbs",
                 "acp_acc", "acp_miss", "acp_wbs", "private_acc",
                 "private_miss", "private_wbs", "msgs", "kept_msgs",
                 "acp_events",
                 "l3_events", "moved")

    def __init__(self, clusters: int):
        #: per cluster: slice accesses of line fetches, slice misses,
        #: the misses of line writes (no DRAM read), dirty victims of
        #: the slice, and DRAM writebacks the cluster sends
        self.l3_acc = [0] * clusters
        self.l3_miss = [0] * clusters
        self.l3_alloc = [0] * clusters
        self.l3_wbs = [0] * clusters
        self.dram_wbs = [0] * clusters
        #: per cluster: ACP accesses, misses and dirty victims
        self.acp_acc = [0] * clusters
        self.acp_miss = [0] * clusters
        self.acp_wbs = [0] * clusters
        #: Mono-CA's private-cache accesses, misses and dirty victims
        self.private_acc = 0
        self.private_miss = 0
        self.private_wbs = 0
        #: (traffic class name, src, dst, payload bytes) -> messages the
        #: walks send, and at charge time the DRAM fills and writebacks:
        #: the key of a message shape in the traffic ledger (a str
        #: hashes in C, an Enum member in Python)
        self.msgs: Dict[Tuple[str, int, int, int], int] = {}
        #: the (shape, messages) pairs kept with each walk's costs,
        #: charged as they are
        self.kept_msgs: List[tuple] = []
        #: ACP-port energy events, the L3 energy events of line fetches
        #: and Mono-CA's misses and dirty victims (an element's come from
        #: its ACP misses and dirty victims), and the bytes that crossed
        #: the mesh
        self.acp_events = 0
        self.l3_events = 0
        self.moved = 0


def _ps_to_cycles_int(ps: int, freq_ghz: float) -> int:
    return int(round(ps_to_cycles(ps, freq_ghz)))
