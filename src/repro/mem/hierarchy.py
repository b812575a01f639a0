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

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..energy import EnergyLedger
from ..events import ps_to_cycles
from ..noc import Mesh, MessageKind, TrafficLedger
from ..obs import OBS
from ..params import CacheParams, MachineParams
from .cache import _ABSENT, Cache
from .dram import Dram
from .nuca import NucaL3
from .prefetch import StridePrefetcher

#: the message kinds the batch walks record, bound once: looking a
#: member up on an Enum class runs Python, about ten times the cost of
#: reading a module global
_CACHE_REQ = MessageKind.CACHE_REQ
_CACHE_FILL = MessageKind.CACHE_FILL
_CACHE_WRITEBACK = MessageKind.CACHE_WRITEBACK
_ACC_HANDSHAKE = MessageKind.ACC_HANDSHAKE
_ACC_OPERAND = MessageKind.ACC_OPERAND

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
                 traffic: Optional[TrafficLedger] = None):
        self.machine = machine
        self.energy = energy
        self.mesh = Mesh(machine.noc)
        self.traffic = traffic or TrafficLedger(self.mesh, energy)
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
        self.latency = LatencyTable(self.traffic, machine)

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
            MessageKind.CACHE_REQ, from_node, cluster, 0
        )
        lat_fill = self.traffic.record(
            MessageKind.CACHE_FILL, cluster, from_node, self._line
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
            MessageKind.CACHE_REQ, cluster, self._mc, 0
        )
        lat_fill = self.traffic.record(
            MessageKind.CACHE_FILL, self._mc, cluster, self._line
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
        batch walks count both per home and hand the counts here."""
        if not (fills or wbs):
            return
        record = self.traffic.record
        line = self._line
        if fills:
            record(_CACHE_REQ, cluster, self._mc, 0, fills)
            record(_CACHE_FILL, self._mc, cluster, line, fills)
            self.dram.reads += fills
        if wbs:
            record(_CACHE_WRITEBACK, cluster, self._mc, line, wbs)
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
            MessageKind.CACHE_WRITEBACK, self._host, cluster, self._line
        )
        self.movement_bytes += self._line
        evicted = self.l3.fill(addr, dirty=True)
        if evicted and evicted[1]:
            self._writeback_to_dram(cluster)

    def _writeback_to_dram(self, cluster: int) -> None:
        self.traffic.record(
            MessageKind.CACHE_WRITEBACK, cluster, self._mc, self._line
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
            MessageKind.ACC_HANDSHAKE, local_cluster, home, 0
        )
        lat_data = self.traffic.record(
            MessageKind.ACC_OPERAND,
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
            MessageKind.ACC_HANDSHAKE, local_cluster, home, 0
        )
        lat_data = self.traffic.record(
            MessageKind.ACC_OPERAND,
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
            MessageKind.CACHE_WRITEBACK, from_node, cluster, self._line
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
    # nothing downstream feeds back into, with the set-major
    # :meth:`~repro.mem.cache.Cache.access_batch` walk), (b) takes its
    # latencies from the hierarchy's static :class:`LatencyTable`, and
    # (c) tallies cache counters, energy events, NoC messages and DRAM
    # fills and writebacks per home cluster in locals, and hands each
    # tally to the cache, the energy ledger, the traffic ledger and
    # :meth:`_dram_traffic` once per walk. The tallies are exact integer
    # counts and both ledgers read them in a fixed order, so the results
    # are bit-identical to the scalar path, which charges per access
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
        advanced over the whole chunk first: L1 by the set-major walk,
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
                record(_CACHE_REQ, host, c, 0, l3_acc[c])
                record(_CACHE_FILL, c, host, line, l3_acc[c])
            if l3_fills[c]:
                record(_CACHE_WRITEBACK, host, c, line, l3_fills[c])
            if l3_acc[c] or l3_fills[c]:
                self.energy.charge("l3", "l3_access",
                                   l3_acc[c] + l3_fills[c])
        # a fill into L1 per miss, into L2 per prefetch and per L2 miss,
        # and a line per dirty victim written back into L2 or a slice
        self.movement_bytes += line * (n_l2 + n_pf + n_l2 - l2_hits
                                       + l1_wbs + l2_wbs)
        return n_l2 * m.l2.latency_cycles + extra

    def accel_line_fetch_batch(self, local_cluster: int,
                               line_addrs: np.ndarray,
                               is_write: bool) -> int:
        """Line-granular fill/drain of a chunk (see
        :meth:`accel_line_fetch`); returns total latency cycles.

        Each L3 slice is an independent cache, so the chunk splits by
        home cluster (one group when it sits in one stripe block, the
        common case), and each group walks its home slice's set dicts in
        program order with its counters in locals, added once per group.
        """
        n = len(line_addrs)
        if n == 0:
            return 0
        m = self.machine
        line = self._line
        l3 = self.l3
        stripe = l3.stripe_bytes
        ncl = l3.num_clusters
        addr_list = line_addrs.tolist()
        block = min(addr_list) // stripe
        if block == max(addr_list) // stripe:
            groups = {block % ncl: addr_list}
        else:
            groups = {}
            for addr in addr_list:
                groups.setdefault((addr // stripe) % ncl, []).append(addr)
        conv = self.latency.conv(local_cluster, line, is_write)
        fill = self.latency.fill
        slc = l3.slices[0]
        shift, nsets, ways = slc.line_shift, slc.num_sets, slc.ways
        record = self.traffic.record
        total = moved = 0
        for home, addrs in groups.items():
            slc = l3.slices[home]
            sets = slc._sets
            misses = wbs = 0
            for addr in addrs:
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
            k = len(addrs)
            slc.add_counts(k, misses, wbs)
            if home == local_cluster:
                total += k * (1 + m.l3_bank_latency + conv[home])
            else:
                # remote fill: the line crosses the mesh
                total += k * (1 + m.l3.latency_cycles + conv[home])
                moved += k * line
            if is_write:
                # write-allocate of a fully-written line needs no DRAM read
                misses = 0
                record(_ACC_OPERAND, local_cluster, home, line, k)
            else:
                total += misses * fill[home]
                record(_ACC_OPERAND, home, local_cluster, line, k)
            record(_ACC_HANDSHAKE, local_cluster, home, 0, k)
            self._dram_traffic(home, misses, wbs)
        self.energy.charge("access_unit", "acp_access", n)
        self.energy.charge("l3", "l3_access", n)
        self.movement_bytes += moved
        return total

    def accel_elem_access_batch(self, local_cluster: int,
                                addrs: np.ndarray, is_write: bool,
                                elem_bytes: int) -> int:
        """Element-granular near-data accesses for a chunk (see
        :meth:`accel_elem_access`); returns total latency cycles.

        numpy finds the chunk's runs of consecutive same-line elements.
        After a run's first access its line is the home ACP's MRU entry,
        so the rest of the run are hits that change no state. One Python
        iteration per run then walks the home ACP's set dict and, on a
        miss, the home slice's; the per-home counters and the latency are
        summed once per call.
        """
        n = len(addrs)
        if n == 0:
            return 0
        l3 = self.l3
        slices = l3.slices
        stripe = l3.stripe_bytes
        ncl = l3.num_clusters
        acps = self.acps
        shift, na, wa = acps[0].line_shift, acps[0].num_sets, acps[0].ways
        n3, w3 = slices[0].num_sets, slices[0].ways
        if n > 1 and stripe % (1 << shift) == 0:
            # same line => same home only when stripes are line-aligned
            lines = addrs >> shift
            head = np.empty(n, dtype=bool)
            head[0] = True
            np.not_equal(lines[1:], lines[:-1], out=head[1:])
            starts = np.flatnonzero(head)
            heads = addrs[starts].tolist()
            bounds = starts.tolist()
        else:
            heads = addrs.tolist()
            bounds = list(range(n))
        bounds.append(n)
        # home -> [elements, ACP misses, dirty ACP victims, slice misses,
        # DRAM writebacks]; dirty slice victims go by slice in `l3_wbs`
        per_home: Dict[int, List[int]] = {}
        l3_wbs: Dict[int, int] = {}
        home = -1
        for r, addr in enumerate(heads):
            h = (addr // stripe) % ncl
            if h != home:
                home = h
                st = per_home.get(h)
                if st is None:
                    st = per_home[h] = [0, 0, 0, 0, 0]
                acp_sets = acps[h]._sets
                l3_sets = slices[h]._sets
            st[0] += bounds[r + 1] - bounds[r]
            ln = addr >> shift
            si = ln % na
            cset = acp_sets[si]
            tag = ln // na
            d = cset.pop(tag, _ABSENT)
            if d is not _ABSENT:
                cset[tag] = d or is_write  # move to MRU
                continue
            st[1] += 1
            if len(cset) >= wa:
                vt = next(iter(cset))
                if cset.pop(vt):
                    # the dirty victim retires into its bank, as
                    # NucaL3.fill(dirty=True) does
                    st[2] += 1
                    vl = vt * na + si
                    vc = ((vl << shift) // stripe) % ncl
                    cset3 = slices[vc]._sets[vl % n3]
                    tag3 = vl // n3
                    if cset3.pop(tag3, None) is None and len(cset3) >= w3:
                        if cset3.pop(next(iter(cset3))):
                            l3_wbs[vc] = l3_wbs.get(vc, 0) + 1
                            st[4] += 1
                    cset3[tag3] = True
            cset[tag] = is_write
            # the bank read at the home slice
            cset3 = l3_sets[ln % n3]
            tag3 = ln // n3
            d = cset3.pop(tag3, _ABSENT)
            if d is _ABSENT:
                st[3] += 1
                if len(cset3) >= w3 and cset3.pop(next(iter(cset3))):
                    l3_wbs[h] = l3_wbs.get(h, 0) + 1
                    st[4] += 1
                cset3[tag3] = False
            else:
                cset3[tag3] = d
        for c, wbs in l3_wbs.items():
            slices[c].writebacks += wbs
        conv = self.latency.conv(local_cluster, elem_bytes, is_write)
        fill = self.latency.fill
        bank_lat = self.machine.l3_bank_latency
        record = self.traffic.record
        total = moved = n_l3 = 0
        for h, (k, acp_miss, acp_wbs, l3_miss, dram_wbs) in (
                per_home.items()):
            acps[h].add_counts(k, acp_miss, acp_wbs)
            slices[h].add_counts(acp_miss, l3_miss)
            self._dram_traffic(h, l3_miss, dram_wbs)
            n_l3 += acp_miss + acp_wbs
            total += (k * (1 + conv[h]) + acp_miss * bank_lat
                      + l3_miss * fill[h])
            if h != local_cluster:
                moved += k
            record(_ACC_HANDSHAKE, local_cluster, h, 0, k)
            if is_write:
                record(_ACC_OPERAND, local_cluster, h, elem_bytes, k)
            else:
                record(_ACC_OPERAND, h, local_cluster, elem_bytes, k)
        self.energy.charge("access_unit", "acp_access", n)
        if n_l3:
            self.energy.charge("l3", "l3_access", n_l3)
        self.movement_bytes += moved * elem_bytes
        return total

    def l3_demand_batch(self, from_node: int) -> "L3DemandWindow":
        """Open a window over the repeated :meth:`l3_demand` calls of
        one walk from one node (a Mono-CA chunk's private-cache misses).
        Call :meth:`L3DemandWindow.flush` when the walk is done."""
        return L3DemandWindow(self, from_node)

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


class _Lazy(dict):
    """A dict that computes a missing entry on its first lookup."""

    __slots__ = ("_make",)

    def __init__(self, make):
        super().__init__()
        self._make = make

    def __missing__(self, key):
        value = self[key] = self._make(key)
        return value


class LatencyTable:
    """Static access latencies of one hierarchy, in core cycles.

    The mesh, the clocks and the DRAM timing are fixed per machine, so
    each entry is a constant, like a ZigZag memory level's latency
    field: :meth:`conv` holds the request-plus-data NoC conversion of
    one access, and :attr:`fill` the DRAM-fill cycles per cluster. Each
    entry equals what the scalar paths compute per call. A hierarchy is
    built per simulated cell and meets few of its (requester, home)
    pairs, so entries are computed on first lookup.
    """

    __slots__ = ("_latency_of", "_freq", "_rows", "fill")

    def __init__(self, traffic: TrafficLedger, machine: MachineParams):
        self._latency_of = lat_of = traffic.latency_of
        self._freq = freq = machine.core.freq_ghz
        self._rows: Dict[Tuple[int, int, bool], _Lazy] = {}
        dram = machine.dram.latency_cycles
        line = machine.l3.line_bytes
        mc = machine.noc.mc_node
        #: cluster -> DRAM latency plus the fill's round trip to the MC
        self.fill = _Lazy(lambda c: dram + _ps_to_cycles_int(
            lat_of(c, mc, 0) + lat_of(mc, c, line), freq))

    def conv(self, req: int, payload: int, is_write: bool) -> Dict[int, int]:
        """home -> cycles of one access from ``req``: a request header to
        the home, then ``payload`` bytes to it (a write) or back."""
        key = (req, payload, is_write)
        row = self._rows.get(key)
        if row is None:
            lat_of = self._latency_of
            freq = self._freq

            def cycles(home: int) -> int:
                data = (lat_of(req, home, payload) if is_write
                        else lat_of(home, req, payload))
                return _ps_to_cycles_int(lat_of(req, home, 0) + data, freq)

            row = self._rows[key] = _Lazy(cycles)
        return row


class L3DemandWindow:
    """Repeated :meth:`MemoryHierarchy.l3_demand` calls of one walk from
    one mesh node.

    Each access walks its home slice's set dict, so the cache state
    advances per access in program order. Accesses, misses and dirty
    victims are tallied per home cluster, and :meth:`flush` hands each
    home's tallies to the slice counters and the ledgers: the energy
    charge, the two NoC records, the movement bytes and, through
    :meth:`MemoryHierarchy._dram_traffic`, the DRAM fills and
    writebacks. Latencies come from the hierarchy's
    :class:`LatencyTable`.
    """

    __slots__ = ("hier", "from_node", "_row", "_counts", "_misses", "_wbs")

    def __init__(self, hier: MemoryHierarchy, from_node: int):
        self.hier = hier
        self.from_node = from_node
        #: the latency table's row for this node's line requests
        self._row = hier.latency.conv(from_node, hier._line, False)
        #: per home cluster: accesses, misses, dirty victims
        self._counts: Dict[int, int] = {}
        self._misses: Dict[int, int] = {}
        self._wbs: Dict[int, int] = {}

    def access(self, addr: int) -> int:
        """One demand access; returns latency cycles (as l3_demand)."""
        h = self.hier
        l3 = h.l3
        c = (addr // l3.stripe_bytes) % l3.num_clusters
        counts = self._counts
        counts[c] = counts.get(c, 0) + 1
        slc = l3.slices[c]
        ln = addr >> slc.line_shift
        cset = slc._sets[ln % slc.num_sets]
        tag = ln // slc.num_sets
        latency = h.machine.l3.latency_cycles + self._row[c]
        d = cset.pop(tag, _ABSENT)
        if d is not _ABSENT:
            cset[tag] = d  # move to MRU
            return latency
        self._misses[c] = self._misses.get(c, 0) + 1
        if len(cset) >= slc.ways and cset.pop(next(iter(cset))):
            self._wbs[c] = self._wbs.get(c, 0) + 1
        cset[tag] = False
        return latency + h.latency.fill[c]

    def flush(self) -> None:
        """Add the per-home tallies to the slice counters and charge
        them to the ledgers."""
        h = self.hier
        line = h._line
        record = h.traffic.record
        node = self.from_node
        for c, count in self._counts.items():
            misses = self._misses.get(c, 0)
            wbs = self._wbs.get(c, 0)
            h.l3.slices[c].add_counts(count, misses, wbs)
            h._dram_traffic(c, misses, wbs)
            h.energy.charge("l3", "l3_access", count)
            record(_CACHE_REQ, node, c, 0, count)
            record(_CACHE_FILL, c, node, line, count)
            h.movement_bytes += count * line
        self._counts.clear()
        self._misses.clear()
        self._wbs.clear()


def _ps_to_cycles_int(ps: int, freq_ghz: float) -> int:
    return int(round(ps_to_cycles(ps, freq_ghz)))
