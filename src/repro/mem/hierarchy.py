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
        #: deferred DRAM fill/writeback accounting, open only while a
        #: batch replay method is on the stack (None on the scalar path)
        self._dram_pool: Optional[_DramPool] = None
        #: run-scoped pooled batch-tail accounting (energy charge counts
        #: and traffic record counts by key); None outside a window
        self._acct_energy: Optional[Dict[Tuple[str, str], int]] = None
        self._acct_traffic: Optional[Dict[Tuple, int]] = None

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
        latency += self._l3_demand(addr, from_node=self._host,
                                   kind_fill=MessageKind.CACHE_FILL)
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
            fill_latency = self._l3_demand(
                pf_addr, from_node=self._host,
                kind_fill=MessageKind.CACHE_FILL,
            )
            evicted = self.l2.fill(pf_addr, is_prefetch=True)
            self.movement_bytes += self._line
            if evicted and evicted[1]:
                self._writeback_into_l3(evicted[0])
            self._note_late_prefetch(self.l2.line_of(pf_addr), int(
                fill_latency * self.PREFETCH_LATE_FRACTION
            ))
            self._stats_prefetches += 1

    def _l3_demand(self, addr: int, from_node: int,
                   kind_fill: MessageKind) -> int:
        """Access the home L3 slice from ``from_node``; fills from DRAM on
        miss. Returns latency cycles including mesh traversal."""
        m = self.machine
        cluster = self.l3.home_cluster(addr)
        self.energy.charge("l3", "l3_access")
        lat_req = self.traffic.record(
            MessageKind.CACHE_REQ, from_node, cluster, 0
        )
        lat_fill = self.traffic.record(
            kind_fill, cluster, from_node, self._line
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
        pool = self._dram_pool
        if pool is not None:
            pool.fills[cluster] = pool.fills.get(cluster, 0) + 1
            lat = pool.fill_lat.get(cluster)
            if lat is None:
                lat = pool.fill_lat[cluster] = (
                    self.dram.params.latency_cycles + _ps_to_cycles_int(
                        self.traffic.latency_of(cluster, self._mc, 0)
                        + self.traffic.latency_of(
                            self._mc, cluster, self._line),
                        self.machine.core.freq_ghz,
                    )
                )
            return lat
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

    def open_accounting(self):
        """Open a run-scoped deferred-accounting window: one DRAM pool
        plus pooled batch-tail energy/traffic counts shared by every
        batch replay call until :meth:`close_accounting`.

        Energy charges and ``count=``-style traffic records are linear in
        their count and the ledgers are order-free (sorted summaries), so
        merging them per key across a whole offload run is bit-identical
        to flushing per batch call. Nothing may read the ledgers while a
        window is open.
        """
        pool = self._open_dram_pool()
        owned = self._acct_energy is None
        if owned:
            self._acct_energy = {}
            self._acct_traffic = {}
        return (pool, owned)

    def close_accounting(self, win) -> None:
        """Flush a window opened by :meth:`open_accounting`."""
        pool, owned = win
        if pool is not None:
            self._flush_dram_pool(pool)
        if owned:
            en = self._acct_energy
            tr = self._acct_traffic
            self._acct_energy = None
            self._acct_traffic = None
            charge = self.energy.charge
            for (unit, event), n in en.items():
                charge(unit, event, n)
            record = self.traffic.record
            for (kind, src, dst, payload), c in tr.items():
                record(kind, src, dst, payload, count=c)

    def _charge(self, unit: str, event: str, n: int) -> None:
        """Energy charge, pooled while an accounting window is open."""
        acct = self._acct_energy
        if acct is None:
            self.energy.charge(unit, event, n)
        else:
            key = (unit, event)
            acct[key] = acct.get(key, 0) + n

    def _record(self, kind: MessageKind, src: int, dst: int, payload: int,
                count: int) -> None:
        """Traffic record (return value unused), pooled while an
        accounting window is open."""
        acct = self._acct_traffic
        if acct is None:
            self.traffic.record(kind, src, dst, payload, count=count)
        else:
            key = (kind, src, dst, payload)
            acct[key] = acct.get(key, 0) + count

    def _open_dram_pool(self) -> Optional["_DramPool"]:
        """Start deferring DRAM fill/writeback accounting; returns the
        pool to pass to :meth:`_flush_dram_pool`, or None when an
        enclosing batch already owns one."""
        if self._dram_pool is not None:
            return None
        pool = self._dram_pool = _DramPool()
        return pool

    def _flush_dram_pool(self, pool: "_DramPool") -> None:
        """Charge the pooled DRAM traffic/energy/movement (commutative
        integer counts — bit-identical to the per-fill scalar charges)."""
        self._dram_pool = None
        if not (pool.fills or pool.wbs or pool.l2_wbs or pool.l3_wbs):
            return  # every access hit: nothing pooled (the common case)
        traffic = self.traffic
        line = self._line
        total = 0
        for cluster, count in pool.fills.items():
            total += count
            traffic.record(MessageKind.CACHE_REQ, cluster, self._mc, 0,
                           count=count)
            traffic.record(MessageKind.CACHE_FILL, self._mc, cluster,
                           line, count=count)
        if total:
            self.dram.reads += total
            self.energy.charge("dram", "dram_line_access", total)
            self.movement_bytes += total * line
        total = 0
        for cluster, count in pool.wbs.items():
            total += count
            traffic.record(MessageKind.CACHE_WRITEBACK, cluster, self._mc,
                           line, count=count)
        if total:
            self.dram.writes += total
            self.energy.charge("dram", "dram_line_access", total)
            self.movement_bytes += total * line
        if pool.l2_wbs:
            self.energy.charge("l2", "l2_access", pool.l2_wbs)
            self.movement_bytes += pool.l2_wbs * line
        total = 0
        for cluster, count in pool.l3_wbs.items():
            total += count
            self.energy.charge("l3", "l3_access", count)
            traffic.record(MessageKind.CACHE_WRITEBACK, self._host,
                           cluster, line, count=count)
        if total:
            self.movement_bytes += total * line

    def _writeback_into_l2(self, line: int) -> None:
        addr = line * self._line
        pool = self._dram_pool
        if pool is not None:
            pool.l2_wbs += 1
        else:
            self.energy.charge("l2", "l2_access")
            self.movement_bytes += self._line
        evicted = self.l2.fill(addr, dirty=True)
        if evicted and evicted[1]:
            self._writeback_into_l3(evicted[0])

    def _writeback_into_l3(self, line: int) -> None:
        addr = line * self._line
        cluster = self.l3.home_cluster(addr)
        pool = self._dram_pool
        if pool is not None:
            pool.l3_wbs[cluster] = pool.l3_wbs.get(cluster, 0) + 1
        else:
            self.energy.charge("l3", "l3_access")
            self.traffic.record(
                MessageKind.CACHE_WRITEBACK, self._host, cluster, self._line
            )
            self.movement_bytes += self._line
        evicted = self.l3.fill(addr, dirty=True)
        if evicted and evicted[1]:
            self._writeback_to_dram(cluster)

    def _writeback_to_dram(self, cluster: int) -> None:
        pool = self._dram_pool
        if pool is not None:
            pool.wbs[cluster] = pool.wbs.get(cluster, 0) + 1
            return
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

    def l3_demand(self, addr: int, from_node: int,
                  as_accel: bool = False) -> int:
        """Public demand access to the home L3 slice from any mesh node.

        Used by accelerators with private caches (Mono-CA) whose misses go
        straight to the shared L3. Returns latency cycles.
        """
        kind = (MessageKind.ACC_OPERAND if as_accel
                else MessageKind.CACHE_FILL)
        latency = self._l3_demand(addr, from_node=from_node, kind_fill=kind)
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
    # same order, but (a) advances a cache that nothing downstream feeds
    # back into over the whole chunk at once with the set-major
    # :meth:`~repro.mem.cache.Cache.access_batch` walk, (b) hoists
    # attribute and latency lookups out of the loop, and (c) defers the
    # per-access energy charges, NoC records and cache counters into
    # per-(kind, src, dst) counters flushed once per chunk. All deferred
    # quantities are commutative integer counts, so the resulting ledgers
    # are bit-identical to the scalar path (enforced by
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
        self._charge("l1", "l1_access", n)
        miss_pos = np.flatnonzero(~hit)
        n_l2 = len(miss_pos)
        if not n_l2:
            return 0
        m = self.machine
        line = self._line
        host = self._host
        freq = m.core.freq_ghz
        lat_of = self.traffic.latency_of
        stripe = l3.stripe_bytes
        ncl = l3.num_clusters
        clusters = range(ncl)
        # per home cluster: L3 hit latency, and what a DRAM fill adds
        l3_hit_lat = [m.l3.latency_cycles + _ps_to_cycles_int(
            lat_of(host, c, 0) + lat_of(c, host, line), freq)
            for c in clusters]
        fill_lat = [m.dram.latency_cycles + _ps_to_cycles_int(
            lat_of(c, self._mc, 0) + lat_of(self._mc, c, line), freq)
            for c in clusters]
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
        # counters, added to the caches and pools once, in the finally:
        # `extra` sums the misses' latency past L2's own, and `l1_wbs`
        # counts dirty L1 victims written back into L2
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
            l2.accesses += n_l2
            l2.hits += l2_hits
            l2.misses += n_l2 - l2_hits
            l2.writebacks += sum(l3_fills)  # each retired into a slice
            l2.prefetch_fills += n_pf
            self._stats_prefetches += n_pf
            owned = self._open_dram_pool()
            pool = self._dram_pool
            pool.l2_wbs += l1_wbs
            for c, sl in enumerate(l3.slices):
                sl.accesses += l3_acc[c]
                sl.misses += l3_miss[c]
                sl.hits += l3_acc[c] - l3_miss[c]
                sl.writebacks += l3_wbs[c]
                for counts, k in ((pool.fills, l3_miss[c]),
                                  (pool.wbs, l3_wbs[c]),
                                  (pool.l3_wbs, l3_fills[c])):
                    if k:
                        counts[c] = counts.get(c, 0) + k
            if owned is not None:
                self._flush_dram_pool(owned)
        self._charge("l2", "l2_access", n_l2)
        for c in clusters:
            if l3_acc[c]:
                self._charge("l3", "l3_access", l3_acc[c])
                self._record(MessageKind.CACHE_REQ, host, c, 0, l3_acc[c])
                self._record(MessageKind.CACHE_FILL, c, host, line,
                             l3_acc[c])
        # a fill into L1 per miss, into L2 per prefetch and per L2 miss
        self.movement_bytes += line * (n_l2 + n_pf + n_l2 - l2_hits)
        return n_l2 * m.l2.latency_cycles + extra

    def accel_line_fetch_batch(self, local_cluster: int,
                               line_addrs: np.ndarray,
                               is_write: bool) -> int:
        """Line-granular fill/drain of a chunk (see
        :meth:`accel_line_fetch`); returns total latency cycles."""
        n = len(line_addrs)
        if n == 0:
            return 0
        m = self.machine
        line = self._line
        freq = m.core.freq_ghz
        l3 = self.l3
        stripe = l3.stripe_bytes
        ncl = l3.num_clusters
        slices = l3.slices  # home is recomputed below; dispatch directly
        lat_of = self.traffic.latency_of
        bank_lat = m.l3_bank_latency
        l3_lat = m.l3.latency_cycles
        counts: Dict[int, int] = {}
        conv: Dict[int, int] = {}
        total = 0
        moved = 0
        pool = self._open_dram_pool()
        try:
            addr_list = line_addrs.tolist()
            if min(addr_list) // stripe == max(addr_list) // stripe:
                # whole chunk lives in one stripe block (the common case:
                # chunks are short, stripes are large): hoist the per-line
                # home math and bookkeeping out of the walk
                home = (addr_list[0] // stripe) % ncl
                counts[home] = n
                conv[home] = _ps_to_cycles_int(
                    lat_of(local_cluster, home, 0)
                    + (lat_of(local_cluster, home, line)
                       if is_write
                       else lat_of(home, local_cluster, line)),
                    freq,
                )
                if home == local_cluster:
                    total += n * (1 + bank_lat + conv[home])
                else:
                    total += n * (1 + l3_lat + conv[home])
                    moved += n * line
                access = slices[home].access
                for addr in addr_list:
                    out = access(addr, is_write)
                    ev = out.evicted
                    if ev is not None and ev[1]:
                        self._writeback_to_dram(home)
                    if not out.hit and not is_write:
                        total += self._dram_fill(home)
            else:
                for addr in addr_list:
                    home = (addr // stripe) % ncl
                    seen = counts.get(home)
                    if seen is None:
                        counts[home] = 1
                        conv[home] = _ps_to_cycles_int(
                            lat_of(local_cluster, home, 0)
                            + (lat_of(local_cluster, home, line)
                               if is_write
                               else lat_of(home, local_cluster, line)),
                            freq,
                        )
                    else:
                        counts[home] = seen + 1
                    if home == local_cluster:
                        total += 1 + bank_lat + conv[home]
                    else:
                        total += 1 + l3_lat + conv[home]
                        moved += line
                    out = slices[home].access(addr, is_write)
                    ev = out.evicted
                    if ev is not None and ev[1]:
                        self._writeback_to_dram(home)
                    if not out.hit and not is_write:
                        total += self._dram_fill(home)
        finally:
            if pool is not None:
                self._flush_dram_pool(pool)
        self._charge("access_unit", "acp_access", n)
        for home, count in counts.items():
            self._charge("l3", "l3_access", count)
            self._record(MessageKind.ACC_HANDSHAKE, local_cluster, home,
                         0, count)
            if is_write:
                self._record(MessageKind.ACC_OPERAND, local_cluster,
                             home, line, count)
            else:
                self._record(MessageKind.ACC_OPERAND, home,
                             local_cluster, line, count)
        self.movement_bytes += moved
        return total

    def _acp_elem_walk(self, addr_list, local_cluster: int, is_write: bool,
                       elem_bytes: int, counts: Dict[int, int]):
        """Program-order element walk for :meth:`accel_elem_access_batch`
        with same-line run collapsing: after the first access of a run of
        consecutive same-line addresses the line is the ACP's resident MRU
        line, so the remaining ``k-1`` accesses are guaranteed hits with
        no L3 side — accounted in bulk via :meth:`Cache.touch_resident`
        and ``k-1``-scaled arithmetic, bit-identical to the scalar loop.

        Fills ``counts`` (home -> accesses) and returns ``(total latency
        cycles, L3 accesses, moved bytes)``; the L3 accesses are the
        miss-side bank reads plus the dirty ACP retires.
        """
        m = self.machine
        line = self._line
        freq = m.core.freq_ghz
        l3 = self.l3
        slices = l3.slices
        stripe = l3.stripe_bytes
        ncl = l3.num_clusters
        acps = self.acps
        lat_of = self.traffic.latency_of
        bank_lat = m.l3_bank_latency
        shift = acps[0].line_shift
        # same line => same home only when stripes are line-aligned
        collapse = stripe % (1 << shift) == 0
        conv: Dict[int, int] = {}
        total = n_l3 = moved = 0
        n = len(addr_list)
        i = 0
        while i < n:
            addr = addr_list[i]
            j = i + 1
            if collapse:
                ln = addr >> shift
                while j < n and addr_list[j] >> shift == ln:
                    j += 1
            k = j - i
            home = (addr // stripe) % ncl
            seen = counts.get(home)
            if seen is None:
                counts[home] = k
                conv[home] = _ps_to_cycles_int(
                    lat_of(local_cluster, home, 0)
                    + (lat_of(local_cluster, home, elem_bytes)
                       if is_write
                       else lat_of(home, local_cluster, elem_bytes)),
                    freq,
                )
            else:
                counts[home] = seen + k
            if home != local_cluster:
                moved += k * elem_bytes
            total += k * (1 + conv[home])
            out = acps[home].access(addr, is_write)
            if k > 1:
                acps[home].touch_resident(addr, is_write, k - 1)
            ev = out.evicted
            if ev is not None and ev[1]:
                # dirty line retires into the local bank
                n_l3 += 1
                evicted = l3.fill(ev[0] * line, dirty=True)
                if evicted and evicted[1]:
                    self._writeback_to_dram(home)
            i = j
            if out.hit:
                continue
            n_l3 += 1
            total += bank_lat
            out3 = slices[home].access(addr, is_write=False)
            ev3 = out3.evicted
            if ev3 is not None and ev3[1]:
                self._writeback_to_dram(home)
            if not out3.hit:
                total += self._dram_fill(home)
        return total, n_l3, moved

    def accel_elem_access_batch(self, local_cluster: int,
                                addrs: np.ndarray, is_write: bool,
                                elem_bytes: int) -> int:
        """Element-granular near-data accesses for a chunk (see
        :meth:`accel_elem_access`); returns total latency cycles."""
        n = len(addrs)
        if n == 0:
            return 0
        counts: Dict[int, int] = {}
        pool = self._open_dram_pool()
        try:
            total, n_l3, moved = self._acp_elem_walk(
                addrs.tolist(), local_cluster, is_write, elem_bytes, counts
            )
        finally:
            if pool is not None:
                self._flush_dram_pool(pool)
        self._charge("access_unit", "acp_access", n)
        if n_l3:
            self._charge("l3", "l3_access", n_l3)
        for home, count in counts.items():
            self._record(MessageKind.ACC_HANDSHAKE, local_cluster, home,
                         0, count)
            if is_write:
                self._record(MessageKind.ACC_OPERAND, local_cluster,
                             home, elem_bytes, count)
            else:
                self._record(MessageKind.ACC_OPERAND, home,
                             local_cluster, elem_bytes, count)
        self.movement_bytes += moved
        return total

    def l3_demand_batch(self, from_node: int,
                        as_accel: bool = False) -> "L3DemandWindow":
        """Open a deferred-accounting window over repeated
        :meth:`l3_demand` calls from one node (Mono-CA private-cache
        misses). Call :meth:`L3DemandWindow.flush` when done."""
        return L3DemandWindow(self, from_node, as_accel)

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


class _DramPool:
    """Deferred rare-path accounting counters, open only while a batch
    replay method runs: DRAM fills/writebacks per cluster, plus the host
    path's L1->L2 and L2->L3 dirty writebacks."""

    __slots__ = ("fills", "wbs", "fill_lat", "l2_wbs", "l3_wbs")

    def __init__(self):
        self.fills: Dict[int, int] = {}
        self.wbs: Dict[int, int] = {}
        self.fill_lat: Dict[int, int] = {}
        self.l2_wbs = 0
        self.l3_wbs: Dict[int, int] = {}


class L3DemandWindow:
    """Deferred accounting over repeated :meth:`MemoryHierarchy.l3_demand`
    calls from one mesh node.

    Cache/DRAM state still advances per access in program order; only the
    per-access energy charge, the two NoC records and the movement bytes
    are pooled per home cluster and flushed once. The request/fill
    latency conversion is memoized per cluster (the mesh is static).
    """

    __slots__ = ("hier", "from_node", "kind", "_counts", "_conv", "_pool")

    def __init__(self, hier: MemoryHierarchy, from_node: int,
                 as_accel: bool):
        self.hier = hier
        self.from_node = from_node
        self.kind = (MessageKind.ACC_OPERAND if as_accel
                     else MessageKind.CACHE_FILL)
        self._counts: Dict[int, int] = {}
        self._conv: Dict[int, int] = {}
        self._pool = hier._open_dram_pool()

    def access(self, addr: int) -> int:
        """One demand access; returns latency cycles (as l3_demand)."""
        h = self.hier
        cluster = h.l3.home_cluster(addr)
        seen = self._counts.get(cluster)
        if seen is None:
            self._counts[cluster] = 1
            self._conv[cluster] = _ps_to_cycles_int(
                h.traffic.latency_of(self.from_node, cluster, 0)
                + h.traffic.latency_of(cluster, self.from_node, h._line),
                h.machine.core.freq_ghz,
            )
        else:
            self._counts[cluster] = seen + 1
        latency = h.machine.l3.latency_cycles + self._conv[cluster]
        out3 = h.l3.access(addr, is_write=False)
        ev = out3.evicted
        if ev is not None and ev[1]:
            h._writeback_to_dram(cluster)
        if not out3.hit:
            latency += h._dram_fill(cluster)
        return latency

    def flush(self) -> None:
        """Charge the pooled energy/NoC/movement accounting."""
        h = self.hier
        if self._pool is not None:
            h._flush_dram_pool(self._pool)
            self._pool = None
        total = 0
        for cluster, count in self._counts.items():
            total += count
            h._charge("l3", "l3_access", count)
            h._record(MessageKind.CACHE_REQ, self.from_node,
                      cluster, 0, count)
            h._record(self.kind, cluster, self.from_node,
                      h._line, count)
        h.movement_bytes += total * h._line
        self._counts.clear()
        self._conv.clear()


def _ps_to_cycles_int(ps: int, freq_ghz: float) -> int:
    return int(round(ps_to_cycles(ps, freq_ghz)))
