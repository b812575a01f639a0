"""Discrete-event execution of a compiled offload (paper §V-B, Fig 3-5).

Each partition runs as a simulation process; stream accesses are served
by fill/drain FSM processes through bounded buffer channels (decoupling +
backpressure), indirect accesses go through the ACP/L3 path, and cross-
partition operands travel over the mesh as acc_data traffic. Iterations
are simulated in *chunks* (many iterations per event) — buffers are sized
in chunk tokens, so pipelining, decoupled run-ahead and backpressure all
emerge at chunk resolution while event counts stay tractable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..accel.base import PartitionProfile
from ..compiler.pipeline import CompiledOffload
from ..energy import EnergyLedger
from ..envcfg import reference_enabled
from ..events import Channel, Delay, Get, Put, Simulator, cycles_to_ps
from ..errors import AllocationError, InterfaceError
from ..interface.config import AccessConfig, AccessKind, PartitionConfig
from ..interface.intrinsics import mmio_bytes
from ..interface.scheduler import HardwareScheduler
from ..ir.expr import Load
from ..mem.cache import Cache
from ..mem.hierarchy import MemoryHierarchy
from ..mem.slab import SlabAllocator
from ..noc import MessageKind
from ..obs import OBS
from ..params import MachineParams
from .streams import SiteStreams

#: target number of chunks an innermost loop is simulated in
TARGET_CHUNKS = 128
#: outstanding fills the stride FSM sustains (burst MLP)
FSM_OVERLAP = 4
#: host->accelerator launch/sync round trip, cycles at 2 GHz
HOST_SYNC_CYCLES = 40
#: memory clock domain for latency accounting
MEM_FREQ_GHZ = 2.0
#: Mono-CA chunks at least this long advance the private cache through
#: the set-parallel batch walk instead of the per-access loop
_PRIVATE_VEC_MIN = 16


@dataclass
class EngineStats:
    """Timing and data-movement results of one offload execution."""

    time_ps: int = 0
    accel_iterations: int = 0
    #: Figure 9 components, in bytes
    intra_bytes: float = 0.0
    d_a_bytes: float = 0.0
    a_a_bytes: float = 0.0
    mmio_bytes: int = 0
    relaunches: int = 0

    def merged(self, other: "EngineStats") -> "EngineStats":
        return EngineStats(
            time_ps=self.time_ps + other.time_ps,
            accel_iterations=self.accel_iterations + other.accel_iterations,
            intra_bytes=self.intra_bytes + other.intra_bytes,
            d_a_bytes=self.d_a_bytes + other.d_a_bytes,
            a_a_bytes=self.a_a_bytes + other.a_a_bytes,
            mmio_bytes=self.mmio_bytes + other.mmio_bytes,
            relaunches=self.relaunches + other.relaunches,
        )


class OffloadEngine:
    """Executes compiled offloads on a machine model."""

    def __init__(self, machine: MachineParams, hierarchy: MemoryHierarchy,
                 energy: EnergyLedger, slab: SlabAllocator, backend,
                 scheduler: Optional[HardwareScheduler] = None,
                 private_cache: Optional[Cache] = None,
                 io_overlap: float = 1.0,
                 localized_control: bool = False,
                 user_scheduled: bool = False):
        self.machine = machine
        self.hierarchy = hierarchy
        self.energy = energy
        self.slab = slab
        self.backend = backend
        self.scheduler = scheduler or HardwareScheduler(
            machine.l3_clusters, machine.access_unit
        )
        #: Mono-CA's 8 KB private cache on the L3 bus (None otherwise)
        self.private_cache = private_cache
        #: outstanding indirect accesses an accelerator core sustains
        #: (1 = blocking in-order; >1 with SW prefetch or dataflow)
        self.io_overlap = max(io_overlap, 1.0)
        #: DA configurations re-place each access unit at the cluster of
        #: the data it is currently sweeping (paper §V-B: "for every
        #: outer loop iteration, the home node placement decision is
        #: repeated"); the centralized Mono-CA accelerator cannot move
        self.migrating = private_cache is None
        #: BN annotation: the orchestrators own nested-loop control, so
        #: data-dependent inner bounds need no per-invocation host sync
        self.localized_control = localized_control
        #: BNS annotation: user fill_ra/drain_ra block schedule pipelines
        #: across innermost-loop invocations
        self.user_scheduled = user_scheduled
        self._configured_offloads: set = set()
        self._offload_ctx: Dict[int, int] = {}
        self._ctx = 0
        #: production replay (batched hierarchy calls) for this run;
        #: re-read per run() so tests can flip REPRO_REFERENCE in-process
        self._fast = not reference_enabled()

    def buffer_key(self, offload: CompiledOffload, access_id: int) -> int:
        """Scheduler buffer id serving an access (combining-aware)."""
        ctx = self._offload_ctx.get(id(offload))
        if ctx is None:
            return access_id
        try:
            return self.scheduler.lookup(ctx, access_id).buf_id
        except InterfaceError:
            return 10_000_000 + access_id  # fell back to uncombined

    # ------------------------------------------------------------------
    # memory access paths
    # ------------------------------------------------------------------
    def _line_fetch(self, cluster: int, addr: int, is_write: bool) -> int:
        """One line between buffer and memory system; returns cycles."""
        if self.private_cache is None:
            return self.hierarchy.accel_line_fetch(cluster, addr, is_write)
        # Mono-CA: every line crosses the L3 bus into the private cache
        self.energy.charge("accel", "private_cache_access")
        out = self.private_cache.access(addr, is_write)
        latency = 1
        if out.evicted and out.evicted[1]:
            self.hierarchy.writeback_line_from(out.evicted[0], cluster)
        if not out.hit:
            latency += self.hierarchy.l3_demand(addr, from_node=cluster)
        return latency

    def _elem_access(self, cluster: int, addr: int, is_write: bool,
                     elem_bytes: int) -> int:
        """One element, in place at its home bank (cp_read/cp_write)."""
        if self.private_cache is None:
            return self.hierarchy.accel_elem_access(
                cluster, addr, is_write, elem_bytes
            )
        # centralized accelerator: no in-place access, pull the line
        return self._line_fetch(cluster, addr, is_write)

    def _line_fetch_many(self, cluster: int, line_addrs: np.ndarray,
                         is_write: bool) -> int:
        """Batched :meth:`_line_fetch` over a chunk (production path);
        bit-identical to the per-line loop."""
        if self.private_cache is None:
            return self.hierarchy.accel_line_fetch_batch(
                cluster, line_addrs, is_write
            )
        return self._private_fetch_many(cluster, line_addrs, is_write)

    def _elem_access_many(self, cluster: int, addrs: np.ndarray,
                          is_write: bool, elem_bytes: int) -> int:
        """Batched :meth:`_elem_access` over a chunk (production path);
        bit-identical to the per-element loop."""
        if self.private_cache is None:
            return self.hierarchy.accel_elem_access_batch(
                cluster, addrs, is_write, elem_bytes
            )
        return self._private_fetch_many(cluster, addrs, is_write)

    def _private_fetch_many(self, cluster: int, addrs: np.ndarray,
                            is_write: bool) -> int:
        """Mono-CA chunk replay: the private cache advances per access in
        program order; the per-miss L3 accounting is pooled in an
        :class:`~repro.mem.hierarchy.L3DemandWindow`."""
        n = len(addrs)
        if n == 0:
            return 0
        self.energy.charge("accel", "private_cache_access", n)
        pc = self.private_cache
        writeback = self.hierarchy.writeback_line_from
        window = self.hierarchy.l3_demand_batch(cluster)
        total = n  # 1 cycle per private-cache lookup
        try:
            if n >= _PRIVATE_VEC_MIN:
                # advance the private cache set-parallel first: nothing
                # downstream (L3 window, victim writebacks) ever feeds
                # back into it, so visiting only the misses afterwards
                # keeps every downstream transition in scalar order
                hit, vline, vdirty = pc.access_batch(
                    addrs >> pc.line_shift,
                    np.full(n, is_write, dtype=bool),
                )
                for addr, vd, vl in zip(
                        addrs[~hit].tolist(),
                        vdirty[~hit].tolist(),
                        vline[~hit].tolist()):
                    if vd:
                        writeback(vl, cluster)
                    total += window.access(addr)
            else:
                access = pc.access
                for addr in addrs.tolist():
                    out = access(addr, is_write)
                    ev = out.evicted
                    if ev is not None and ev[1]:
                        writeback(ev[0], cluster)
                    if not out.hit:
                        total += window.access(addr)
        finally:
            window.flush()
        return total

    # ------------------------------------------------------------------
    # host configuration phase
    # ------------------------------------------------------------------
    def configure(self, offload: CompiledOffload,
                  clusters: Dict[int, int]) -> Tuple[int, int]:
        """Charge the MMIO configuration traffic; returns (ps, bytes)."""
        calls = offload.config.config_calls()
        total_bytes = mmio_bytes(calls)
        total_ps = 0
        traffic = self.hierarchy.traffic
        # distribute config messages to each partition's cluster
        per_part = max(1, len(calls) // max(len(clusters), 1))
        for part_idx, cluster in clusters.items():
            lat = traffic.record(
                MessageKind.MMIO_CONFIG, self.machine.noc.host_node, cluster,
                payload_bytes=per_part * 16,
            )
            total_ps += lat
        self.energy.charge("host_iface", "mmio_access", len(calls))
        self.energy.charge("scheduler", "sched_table_access",
                           sum(len(p.accesses)
                               for p in offload.config.partitions))
        # buffer allocation through the hardware scheduler
        ctx = self._ctx
        self._ctx += 1
        self._offload_ctx[id(offload)] = ctx
        for part in offload.config.partitions:
            cluster = clusters[part.partition_index]
            for acc in part.accesses:
                try:
                    self.scheduler.allocate(ctx, cluster, acc)
                except AllocationError:
                    pass  # SRAM pressure: access falls back to uncombined
        # substrate setup (microcode / CGRA configuration load)
        setup_cycles = max(
            (self.backend.setup_cycles(p)
             for p in offload.config.partitions), default=1
        )
        if hasattr(self.backend, "charge_setup"):
            for part in offload.config.partitions:
                self.backend.charge_setup(part, self.energy)
        total_ps += cycles_to_ps(setup_cycles, self.backend.freq_ghz)
        return total_ps, total_bytes

    # ------------------------------------------------------------------
    # main run
    # ------------------------------------------------------------------
    def run(self, offload: CompiledOffload, clusters: Dict[int, int],
            trips: int, invocations: int,
            site_streams: SiteStreams) -> EngineStats:
        """Execute one kernel call's worth of the offloaded loop."""
        self._fast = not reference_enabled()
        stats = EngineStats()
        if trips <= 0:
            return stats
        key = id(offload)
        if key not in self._configured_offloads:
            config_ps, config_bytes = self.configure(offload, clusters)
            stats.time_ps += config_ps
            stats.mmio_bytes += config_bytes
            self._configured_offloads.add(key)

        chunk = max(1, trips // TARGET_CHUNKS)
        nchunks = math.ceil(trips / chunk)
        chunk_sizes = [
            min(chunk, trips - c * chunk) for c in range(nchunks)
        ]
        sim = Simulator()
        # a centralized accelerator (Mono-CA) funnels every fill/drain
        # through one L3-bus port; distributed access units each have
        # their own cluster port
        shared_port = (
            Channel(sim, capacity=1, name="l3bus")
            if self.private_cache is not None else None
        )
        if shared_port is not None:
            shared_port._items.append(object())  # the single port token
        run_ctx = _RunContext(
            engine=self, offload=offload, clusters=clusters,
            chunk_sizes=chunk_sizes, site_streams=site_streams,
            sim=sim, stats=stats, shared_port=shared_port,
        )
        # run-scoped deferred accounting: one DRAM pool and pooled
        # batch-tail ledger counts across the whole replay (exact: the
        # pooled charges/records are linear and the ledgers order-free)
        win = self.hierarchy.open_accounting()
        try:
            run_ctx.build()
            sim.run()
        finally:
            self.hierarchy.close_accounting(win)
        OBS.inc("engine.sim_events", sim.events_executed)
        OBS.observe_max("engine.sim_peak_pending", sim.peak_pending)
        for chans in (run_ctx.channels, run_ctx.fill_tokens,
                      run_ctx.drain_tokens):
            for ch in chans.values():
                OBS.observe_max("engine.chan_max_occupancy",
                                ch.max_occupancy)
        OBS.inc("engine.offload_runs")
        OBS.inc("engine.accel_iterations", trips)
        OBS.observe_max("engine.peak_chunks", nchunks)
        stats.time_ps += sim.now
        stats.accel_iterations += trips
        # per-invocation host relaunch overhead for data-dependent inner
        # bounds (the paper's spmv Dist-DA-B effect); affine bounds are
        # iterated by the partition orchestrators themselves
        if (self._bounds_data_dependent(offload) and invocations > 1
                and not self.localized_control):
            sync_ps = cycles_to_ps(HOST_SYNC_CYCLES, MEM_FREQ_GHZ)
            stats.time_ps += (invocations - 1) * sync_ps
            stats.relaunches += invocations - 1
            self.energy.charge("host_iface", "mmio_access",
                               2 * (invocations - 1))
        return stats

    @staticmethod
    def _bounds_data_dependent(offload: CompiledOffload) -> bool:
        for expr in (offload.loop.lower, offload.loop.upper):
            if any(isinstance(n, Load) for n in expr.walk()):
                return True
        return False


@dataclass
class _RunContext:
    """Wires up all processes/channels of one offload execution."""

    engine: OffloadEngine
    offload: CompiledOffload
    clusters: Dict[int, int]
    chunk_sizes: List[int]
    site_streams: SiteStreams
    sim: Simulator
    stats: EngineStats
    shared_port: Optional[Channel] = None
    channels: Dict[int, Channel] = field(default_factory=dict)
    fill_tokens: Dict[int, Channel] = field(default_factory=dict)
    drain_tokens: Dict[int, Channel] = field(default_factory=dict)
    #: partition index -> unique read/write buffer keys (multi-access
    #: combining: one FSM serves every access sharing a buffer)
    read_bufs: Dict[int, List[int]] = field(default_factory=dict)
    write_bufs: Dict[int, List[int]] = field(default_factory=dict)
    #: (tag, id(acc), chunk) -> element/line address arrays; fill, drain
    #: and partition procs all re-derive the same chunk slices, and the
    #: per-chunk np.unique is measurable across ~100k chunk visits
    _chunk_memo: Dict[tuple, np.ndarray] = field(default_factory=dict)

    def build(self) -> None:
        config = self.offload.config
        groups = self._serial_groups()
        for ch in config.channels:
            # channels inside a fused serial group are modeled by the
            # group's per-iteration round-trip latency, not as buffers
            if self._intra_group(ch, groups):
                continue
            cap = self._token_capacity(ch.payload_bytes)
            self.channels[ch.channel_id] = Channel(
                self.sim, capacity=cap, name=f"ch{ch.channel_id}"
            )
        for part in config.partitions:
            cluster = self.clusters[part.partition_index]
            idx = part.partition_index
            self.read_bufs[idx] = []
            self.write_bufs[idx] = []
            for buf_key, acc in self._grouped(
                self._buffered_reads(part)
            ):
                self.read_bufs[idx].append(buf_key)
                cap = self._token_capacity(acc.elem_bytes)
                tok = Channel(self.sim, capacity=cap,
                              name=f"fill{buf_key}")
                self.fill_tokens[buf_key] = tok
                self.sim.spawn(
                    f"fsm-fill-{buf_key}",
                    self._fill_proc(acc, cluster, tok),
                )
            for buf_key, acc in self._grouped(
                self._buffered_writes(part)
            ):
                self.write_bufs[idx].append(buf_key)
                tok = Channel(self.sim, capacity=4,
                              name=f"drain{buf_key}")
                self.drain_tokens[buf_key] = tok
                self.sim.spawn(
                    f"fsm-drain-{buf_key}",
                    self._drain_proc(acc, cluster, tok),
                )
        for group in groups:
            if len(group) == 1:
                part = config.partition(group[0])
                self.sim.spawn(
                    f"part-{part.partition_index}",
                    self._partition_proc(
                        part, self.clusters[part.partition_index]
                    ),
                )
            else:
                self.sim.spawn(
                    f"group-{'-'.join(map(str, group))}",
                    self._fused_group_proc(group),
                )

    # -- serialization (partition-level channel cycles) ----------------------
    def _serial_groups(self) -> List[List[int]]:
        """Strongly connected components of the partition channel graph.

        A multi-partition SCC is a true per-iteration dependence cycle
        (e.g. pointer chasing through a remote object): its partitions
        execute serially, paying the operand round-trip every iteration.
        """
        config = self.offload.config
        n = config.num_partitions
        succ: Dict[int, List[int]] = {p: [] for p in range(n)}
        for ch in config.channels:
            succ[ch.producer_partition].append(ch.consumer_partition)
        index: Dict[int, int] = {}
        low: Dict[int, int] = {}
        on_stack: Dict[int, bool] = {}
        stack: List[int] = []
        out: List[List[int]] = []
        counter = [0]

        def strongconnect(v: int) -> None:
            index[v] = low[v] = counter[0]
            counter[0] += 1
            stack.append(v)
            on_stack[v] = True
            for w in succ[v]:
                if w not in index:
                    strongconnect(w)
                    low[v] = min(low[v], low[w])
                elif on_stack.get(w):
                    low[v] = min(low[v], index[w])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                out.append(sorted(comp))

        for v in range(n):
            if v not in index:
                strongconnect(v)
        return out

    def _intra_group(self, ch, groups: List[List[int]]) -> bool:
        for group in groups:
            if len(group) > 1 and (ch.producer_partition in group
                                   and ch.consumer_partition in group):
                return True
        return False

    # -- helpers -----------------------------------------------------------
    def _token_capacity(self, elem_bytes: int) -> int:
        buf_elems = (
            self.engine.machine.access_unit.buffer_bytes
            // 4 // max(elem_bytes, 1)
        )
        chunk = max(self.chunk_sizes[0], 1)
        return max(1, min(8, buf_elems // chunk))

    @staticmethod
    def _buffered_reads(part: PartitionConfig) -> List[AccessConfig]:
        return [
            a for a in part.accesses
            if a.kind is AccessKind.STREAM_READ and not a.is_write
        ]

    @staticmethod
    def _buffered_writes(part: PartitionConfig) -> List[AccessConfig]:
        return [
            a for a in part.accesses
            if a.kind is AccessKind.STREAM_WRITE and a.is_write
        ]

    def _grouped(self, accesses: List[AccessConfig]
                 ) -> List[Tuple[int, AccessConfig]]:
        """Group accesses by scheduler buffer; pick the representative
        access (longest element stream) that the one FSM will serve."""
        by_buf: Dict[int, List[AccessConfig]] = {}
        for acc in accesses:
            key = self.engine.buffer_key(self.offload, acc.access_id)
            by_buf.setdefault(key, []).append(acc)
        out = []
        for key, group in sorted(by_buf.items()):
            rep = max(
                group, key=lambda a: self.site_streams.length(a.site_ids)
            )
            out.append((key, rep))
        return out

    @staticmethod
    def _indirect(part: PartitionConfig) -> List[AccessConfig]:
        return [
            a for a in part.accesses
            if a.kind in (AccessKind.INDIRECT, AccessKind.RANDOM)
        ]

    def _elem_chunks(self, acc: AccessConfig) -> List[np.ndarray]:
        """Element-stream slices of every chunk, computed in one pass."""
        key = ("e", id(acc))
        out = self._chunk_memo.get(key)
        if out is None:
            stream = self.site_streams.for_sites(acc.site_ids)
            n = len(self.chunk_sizes)
            size = stream.size
            bounds = [(size * c) // n for c in range(n + 1)]
            out = [stream[bounds[c]:bounds[c + 1]] for c in range(n)]
            self._chunk_memo[key] = out
        return out

    def _addr(self, acc: AccessConfig, elem: int) -> int:
        alloc = self.engine.slab.by_name(acc.obj)
        return alloc.base + int(elem) * acc.elem_bytes

    def _line_chunks(self, acc: AccessConfig) -> List[np.ndarray]:
        """Unique line addresses each chunk's elements touch (64 B
        lines), all chunks in one vectorized pass.

        Streams are almost always monotone, so the per-chunk sorted
        dedup is a single global adjacent-difference mask re-anchored at
        each chunk boundary (~200k chunk visits per small matrix cell
        made the per-chunk set/np.unique cost measurable). Non-monotone
        streams keep the per-chunk reference dedup.
        """
        key = ("l", id(acc))
        out = self._chunk_memo.get(key)
        if out is not None:
            return out
        elem_chunks = self._elem_chunks(acc)
        stream = self.site_streams.for_sites(acc.site_ids)
        n = len(self.chunk_sizes)
        size = stream.size
        if size == 0:
            out = elem_chunks  # every chunk is the empty slice
        else:
            base = self.engine.slab.by_name(acc.obj).base
            eb = acc.elem_bytes
            lines = (base + stream * eb) >> 6
            bounds = [(size * c) // n for c in range(n + 1)]
            if size == 1 or bool((lines[1:] >= lines[:-1]).all()):
                keep = np.empty(size, dtype=bool)
                keep[0] = True
                np.not_equal(lines[1:], lines[:-1], out=keep[1:])
                out = []
                for c in range(n):
                    lo, hi = bounds[c], bounds[c + 1]
                    if lo == hi:
                        out.append(lines[:0])
                        continue
                    k = keep[lo:hi].copy()
                    k[0] = True  # dedup restarts at the chunk boundary
                    out.append(lines[lo:hi][k] << 6)
            else:
                out = [self._chunk_lines_ref(elems, base, eb)
                       for elems in elem_chunks]
        self._chunk_memo[key] = out
        return out

    @staticmethod
    def _chunk_lines_ref(elems: np.ndarray, base: int,
                         eb: int) -> np.ndarray:
        """Reference per-chunk line dedup (non-monotone streams)."""
        if elems.size == 0:
            return elems
        if elems.size <= 16:
            lines = sorted({(base + e * eb) >> 6 for e in elems.tolist()})
            return np.array(lines, dtype=np.int64) << 6
        lines = (base + elems * eb) >> 6
        if (lines[1:] >= lines[:-1]).all():
            keep = np.empty(lines.size, dtype=bool)
            keep[0] = True
            keep[1:] = lines[1:] != lines[:-1]
            return lines[keep] << 6
        return np.unique(lines) << 6

    def _is_invariant(self, acc: AccessConfig) -> bool:
        return acc.stride_elems == 0 and acc.kind is AccessKind.STREAM_READ

    def _fetch_chunk(self, at: int, lines: np.ndarray,
                     is_write: bool) -> int:
        """Line fetches for one chunk: batched replay on the production
        path, the per-line reference loop under ``REPRO_REFERENCE=1``."""
        engine = self.engine
        if engine._fast:
            return engine._line_fetch_many(at, lines, is_write)
        total = 0
        for line_addr in lines:
            total += engine._line_fetch(at, int(line_addr), is_write)
        return total

    def _indirect_chunk(self, acc: AccessConfig, at: int,
                        elems: np.ndarray) -> int:
        """Indirect element accesses for one chunk (same gating)."""
        engine = self.engine
        base = engine.slab.by_name(acc.obj).base
        eb = acc.elem_bytes
        if engine._fast:
            return engine._elem_access_many(
                at, base + elems * eb, acc.is_write, eb
            )
        total = 0
        for elem in elems.tolist():
            total += engine._elem_access(
                at, base + elem * eb, acc.is_write, eb
            )
        return total

    def _migrated(self, static_cluster: int, addr) -> int:
        """Cluster the access unit presents at for this chunk."""
        if not self.engine.migrating or addr is None:
            return static_cluster
        return self.engine.hierarchy.l3.home_cluster(int(addr))

    # -- processes -----------------------------------------------------------
    def _fill_proc(self, acc: AccessConfig, cluster: int, tok: Channel):
        # the per-chunk energy charges and Fig-9 byte tallies are
        # commutative integer accumulations: summing them locally and
        # flushing once per process is bit-identical to per-chunk calls
        engine = self.engine
        energy = engine.energy
        invariant = self._is_invariant(acc)
        line_chunks = self._line_chunks(acc)
        elem_chunks = None if invariant else self._elem_chunks(acc)
        fsm_n = buf_n = trans_n = d_a = 0
        for c, iters in enumerate(self.chunk_sizes):
            if invariant and c > 0:
                yield Put(tok, c)
                continue
            lines = line_chunks[c]
            if invariant:
                lines = lines[:1]
            if self.shared_port is not None:
                yield Get(self.shared_port)
            at = self._migrated(cluster, lines[0] if len(lines) else None)
            lat_cycles = self._fetch_chunk(at, lines, False)
            nlines = len(lines)
            if nlines:
                fsm_n += 1 if invariant else len(elem_chunks[c])
                buf_n += nlines
                trans_n += 1
                d_a += nlines * 64
            yield Delay(cycles_to_ps(
                lat_cycles / FSM_OVERLAP + nlines, MEM_FREQ_GHZ
            ))
            if self.shared_port is not None:
                yield Put(self.shared_port, True)
            yield Put(tok, c)
        if trans_n:
            energy.charge("access_unit", "fsm_step", fsm_n)
            energy.charge("access_unit", "buffer_access", buf_n)
            energy.charge("access_unit", "translation_lookup", trans_n)
            self.stats.d_a_bytes += d_a

    def _drain_proc(self, acc: AccessConfig, cluster: int, tok: Channel):
        engine = self.engine
        energy = engine.energy
        line_chunks = self._line_chunks(acc)
        buf_n = d_a = 0
        for _ in self.chunk_sizes:
            c = yield Get(tok)
            lines = line_chunks[c]
            if self.shared_port is not None:
                yield Get(self.shared_port)
            at = self._migrated(cluster, lines[0] if len(lines) else None)
            lat_cycles = self._fetch_chunk(at, lines, True)
            nlines = len(lines)
            if nlines:
                buf_n += nlines
                d_a += nlines * 64
            yield Delay(cycles_to_ps(
                lat_cycles / FSM_OVERLAP + nlines, MEM_FREQ_GHZ
            ))
            if self.shared_port is not None:
                yield Put(self.shared_port, True)
        if buf_n:
            energy.charge("access_unit", "fsm_step", buf_n)
            energy.charge("access_unit", "buffer_access", buf_n)
            self.stats.d_a_bytes += d_a

    def _partition_proc(self, part: PartitionConfig, cluster: int):
        engine = self.engine
        energy = engine.energy
        config = self.offload.config
        profile = PartitionProfile.from_config(part)
        timing = engine.backend.timing(profile)
        ii_ps = timing.ii_ps  # property: hoisted out of the chunk loop
        read_bufs = self.read_bufs[part.partition_index]
        write_bufs = self.write_bufs[part.partition_index]
        indirect = self._indirect(part)
        traffic = engine.hierarchy.traffic
        intra_per_iter = (
            profile.buffer_reads + profile.buffer_writes
        )
        ind_chunks = [(acc, self._elem_chunks(acc)) for acc in indirect]
        # hoist the per-chunk channel/token lookups out of the loop
        consume_chs = [self.channels[ch_id] for ch_id in part.consumes]
        read_toks = [self.fill_tokens[b] for b in read_bufs]
        write_toks = [self.drain_tokens[b] for b in write_bufs]
        produce_chs = [
            (self.channels[ch_id],
             self.clusters[config.channel(ch_id).consumer_partition],
             config.channel(ch_id).payload_bytes)
            for ch_id in part.produces
        ]
        overlap = 1.0 if self.offload.serial_chain else engine.io_overlap
        # deferred commutative accounting, flushed once after the loop
        # (bit-identical to per-chunk charges/records: the ledgers
        # accumulate exact integer counts)
        trans_n = d_a = total_iters = a_a = 0
        operand_recs: Dict[Tuple[int, int], int] = {}
        for c, iters in enumerate(self.chunk_sizes):
            for ch in consume_chs:
                yield Get(ch)
            for tok in read_toks:
                yield Get(tok)
            ind_cycles = 0
            for acc, chunks in ind_chunks:
                elems = chunks[c]
                at = self._migrated(
                    cluster,
                    self._addr(acc, elems[0]) if len(elems) else None,
                )
                ind_cycles += self._indirect_chunk(acc, at, elems)
                if len(elems):
                    trans_n += len(elems)
                    d_a += len(elems) * acc.elem_bytes
            compute_ps = ii_ps * iters
            # a loop-carried address chain (pointer chasing) serializes
            # indirect accesses on every substrate (overlap hoisted)
            indirect_ps = cycles_to_ps(ind_cycles / overlap, MEM_FREQ_GHZ)
            yield Delay(compute_ps + indirect_ps)
            total_iters += iters
            for ch, dst_cluster, payload_bytes in produce_chs:
                payload = payload_bytes * iters
                key = (dst_cluster, payload)
                operand_recs[key] = operand_recs.get(key, 0) + 1
                a_a += payload
                if c == 0:
                    lat_ps = traffic.latency_of(
                        cluster, dst_cluster, payload
                    )
                    if lat_ps:
                        yield Delay(lat_ps)  # pipeline fill latency, once
                yield Put(ch, c)
            for tok in write_toks:
                yield Put(tok, c)
        if trans_n:
            energy.charge("access_unit", "translation_lookup", trans_n)
            self.stats.d_a_bytes += d_a
        engine.backend.charge_iteration(profile, energy, count=total_iters)
        # operand reads/writes: access-unit SRAM buffers, or the
        # centralized private cache in Mono-CA
        operand_event = (
            "private_cache_access" if engine.private_cache is not None
            else "buffer_access"
        )
        energy.charge("access_unit", operand_event,
                      intra_per_iter * total_iters)
        self.stats.intra_bytes += intra_per_iter * total_iters * 4
        self.stats.a_a_bytes += a_a
        for (dst_cluster, payload), count in operand_recs.items():
            traffic.record(MessageKind.ACC_OPERAND, cluster, dst_cluster,
                           payload, count=count)
            # every operand message is matched by a zero-payload credit
            traffic.record(MessageKind.ACC_CREDIT, dst_cluster, cluster,
                           0, count=count)

    def _fused_group_proc(self, group: List[int]):
        """Serially executes a dependence cycle of partitions.

        Each iteration pays every member partition's issue time plus the
        NoC round trip of every intra-group operand channel — the physics
        of pointer chasing across distributed access units.
        """
        engine = self.engine
        energy = engine.energy
        config = self.offload.config
        mesh = engine.hierarchy.mesh
        traffic = engine.hierarchy.traffic
        members = [config.partition(p) for p in group]
        profiles = {p.partition_index: PartitionProfile.from_config(p)
                    for p in members}
        per_iter_ps = sum(
            engine.backend.timing(profiles[p.partition_index]).ii_ps
            for p in members
        )
        intra_channels = [
            ch for ch in config.channels
            if ch.producer_partition in group
            and ch.consumer_partition in group
        ]
        hop_ps = sum(
            mesh.latency_ps(
                self.clusters[ch.producer_partition],
                self.clusters[ch.consumer_partition],
                ch.payload_bytes, MEM_FREQ_GHZ,
            )
            for ch in intra_channels
        )
        group_set = set(group)
        external_consumes = [
            ch.channel_id for ch in config.channels
            if ch.consumer_partition in group_set
            and ch.producer_partition not in group_set
        ]
        external_produces = [
            ch for ch in config.channels
            if ch.producer_partition in group_set
            and ch.consumer_partition not in group_set
        ]
        ind_chunks = [
            (part, acc, self._elem_chunks(acc))
            for part in members for acc in self._indirect(part)
        ]
        # deferred commutative accounting (see _partition_proc)
        trans_n = d_a = total_iters = a_a = 0
        operand_recs: Dict[Tuple[int, int, int], int] = {}
        for c, iters in enumerate(self.chunk_sizes):
            for ch_id in external_consumes:
                yield Get(self.channels[ch_id])
            for part in members:
                for buf_key in self.read_bufs[part.partition_index]:
                    yield Get(self.fill_tokens[buf_key])
            ind_cycles = 0
            for part, acc, chunks in ind_chunks:
                cluster = self.clusters[part.partition_index]
                elems = chunks[c]
                at = self._migrated(
                    cluster,
                    self._addr(acc, elems[0]) if len(elems) else None,
                )
                ind_cycles += self._indirect_chunk(acc, at, elems)
                if len(elems):
                    trans_n += len(elems)
                    d_a += len(elems) * acc.elem_bytes
            # dependence cycle: no overlap across iterations
            yield Delay(
                iters * (per_iter_ps + hop_ps)
                + cycles_to_ps(ind_cycles, MEM_FREQ_GHZ)
            )
            total_iters += iters
            for ch in intra_channels:
                payload = ch.payload_bytes * iters
                key = (
                    self.clusters[ch.producer_partition],
                    self.clusters[ch.consumer_partition],
                    payload,
                )
                operand_recs[key] = operand_recs.get(key, 0) + 1
                a_a += payload
            for ch in external_produces:
                payload = ch.payload_bytes * iters
                key = (
                    self.clusters[ch.producer_partition],
                    self.clusters[ch.consumer_partition],
                    payload,
                )
                operand_recs[key] = operand_recs.get(key, 0) + 1
                a_a += payload
                yield Put(self.channels[ch.channel_id], c)
            for part in members:
                for buf_key in self.write_bufs[part.partition_index]:
                    yield Put(self.drain_tokens[buf_key], c)
        if trans_n:
            energy.charge("access_unit", "translation_lookup", trans_n)
            self.stats.d_a_bytes += d_a
        for part in members:
            profile = profiles[part.partition_index]
            engine.backend.charge_iteration(profile, energy,
                                            count=total_iters)
            intra = profile.buffer_reads + profile.buffer_writes
            energy.charge("access_unit", "buffer_access",
                          intra * total_iters)
            self.stats.intra_bytes += intra * total_iters * 4
        self.stats.a_a_bytes += a_a
        for (src, dst, payload), count in operand_recs.items():
            traffic.record(MessageKind.ACC_OPERAND, src, dst, payload,
                           count=count)
