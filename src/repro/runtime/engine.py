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
from typing import Callable, Dict, List, Optional, Tuple

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
from ..mem.cache import _ABSENT, Cache
from ..mem.hierarchy import MemoryHierarchy
from ..mem.slab import SlabAllocator
from ..noc import MessageKind
from ..obs import OBS
from ..params import MachineParams
from .streams import Plan, SiteStreams, chunk_homes

#: target number of chunks an innermost loop is simulated in
TARGET_CHUNKS = 128
#: outstanding fills the stride FSM sustains (burst MLP)
FSM_OVERLAP = 4
#: host->accelerator launch/sync round trip, cycles at 2 GHz
HOST_SYNC_CYCLES = 40
#: memory clock domain for latency accounting
MEM_FREQ_GHZ = 2.0


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

    def _line_fetch_each(self, cluster: int, line_addrs: np.ndarray,
                         is_write: bool) -> int:
        """Reference for :meth:`_line_fetch_many`: one call per line."""
        return sum(self._line_fetch(cluster, addr, is_write)
                   for addr in line_addrs.tolist())

    def _elem_access_each(self, cluster: int, addrs: np.ndarray,
                          is_write: bool, elem_bytes: int) -> int:
        """Reference for :meth:`_elem_access_many`: one call per element."""
        return sum(self._elem_access(cluster, addr, is_write, elem_bytes)
                   for addr in addrs.tolist())

    def _private_fetch_many(self, cluster: int, addrs: np.ndarray,
                            is_write: bool) -> int:
        """Mono-CA chunk replay: one program-order walk on the private
        cache's set dicts; each miss's L3 access is pooled in an
        :class:`~repro.mem.hierarchy.L3DemandWindow`."""
        n = len(addrs)
        if n == 0:
            return 0
        self.energy.charge("accel", "private_cache_access", n)
        pc = self.private_cache
        sets, nsets, ways = pc._sets, pc.num_sets, pc.ways
        shift = pc.line_shift
        writeback = self.hierarchy.writeback_line_from
        window = self.hierarchy.l3_demand_batch(cluster)
        demand = window.access
        total = n  # 1 cycle per private-cache lookup
        misses = wbs = 0
        try:
            for addr in addrs.tolist():
                ln = addr >> shift
                si = ln % nsets
                cset = sets[si]
                tag = ln // nsets
                d = cset.pop(tag, _ABSENT)
                if d is not _ABSENT:
                    cset[tag] = d or is_write  # move to MRU
                    continue
                misses += 1
                if len(cset) >= ways:
                    vt = next(iter(cset))
                    if cset.pop(vt):
                        wbs += 1
                        writeback(vt * nsets + si, cluster)
                cset[tag] = is_write
                total += demand(addr)
        finally:
            window.flush()
        pc.add_counts(n, misses, wbs)
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
        run_ctx.build()
        sim.run()
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
    #: the chunk walks every process binds (set by :meth:`build`)
    fetch_lines: Callable[..., int] = field(init=False)
    access_elems: Callable[..., int] = field(init=False)

    def build(self) -> None:
        engine = self.engine
        # batched on the production path, one hierarchy call per line or
        # element under REPRO_REFERENCE=1
        if engine._fast:
            self.fetch_lines = engine._line_fetch_many
            self.access_elems = engine._elem_access_many
        else:
            self.fetch_lines = engine._line_fetch_each
            self.access_elems = engine._elem_access_each
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

    def _plan(self, acc: AccessConfig, lines: bool) -> Plan:
        """The access's per-chunk line addresses (the L3's line size) or
        element byte addresses."""
        engine = self.engine
        return self.site_streams.chunk_plan(
            acc.site_ids, len(self.chunk_sizes),
            engine.slab.by_name(acc.obj).base, acc.elem_bytes,
            engine.machine.l3.line_bytes.bit_length() - 1, lines,
        )

    def _homes(self, plan: Plan, static_cluster: int) -> List[int]:
        """Cluster the access unit presents at for each chunk."""
        engine = self.engine
        if not engine.migrating:
            return [static_cluster] * len(self.chunk_sizes)
        return chunk_homes(plan, static_cluster, engine.hierarchy.l3)

    def _is_invariant(self, acc: AccessConfig) -> bool:
        return acc.stride_elems == 0 and acc.kind is AccessKind.STREAM_READ

    def _port_commands(self) -> Tuple[Optional[Get], Optional[Put]]:
        """Take and return Mono-CA's L3-bus port token (None elsewhere)."""
        port = self.shared_port
        if port is None:
            return None, None
        return Get(port), Put(port, True)

    # -- processes -----------------------------------------------------------
    # The per-chunk energy charges and Fig-9 byte tallies are commutative
    # integer counts: each process takes them from its plans and charges
    # them once after its chunk loop, bit-identical to per-chunk charges.
    def _fill_proc(self, acc: AccessConfig, cluster: int, tok: Channel):
        fetch = self.fetch_lines
        invariant = self._is_invariant(acc)
        plan = flat, cuts = self._plan(acc, lines=True)
        homes = self._homes(plan, cluster)
        take, give = self._port_commands()
        for c in range(len(self.chunk_sizes)):
            if invariant and c > 0:
                yield Put(tok, c)
                continue
            lines = flat[cuts[c]:cuts[c + 1]]
            if invariant:
                lines = lines[:1]
            if take is not None:
                yield take
            lat_cycles = fetch(homes[c], lines, False)
            yield Delay(cycles_to_ps(
                lat_cycles / FSM_OVERLAP + len(lines), MEM_FREQ_GHZ
            ))
            if give is not None:
                yield give
            yield Put(tok, c)
        if invariant:  # only chunk 0 fetched, and only its first line
            fsm_n = buf_n = trans_n = min(cuts[1], 1)
        else:
            fsm_n = self.site_streams.length(acc.site_ids)
            buf_n = flat.size
            trans_n = sum(lo < hi for lo, hi in zip(cuts, cuts[1:]))
        if trans_n:
            energy = self.engine.energy
            energy.charge("access_unit", "fsm_step", fsm_n)
            energy.charge("access_unit", "buffer_access", buf_n)
            energy.charge("access_unit", "translation_lookup", trans_n)
            self.stats.d_a_bytes += buf_n * self.engine.machine.l3.line_bytes

    def _drain_proc(self, acc: AccessConfig, cluster: int, tok: Channel):
        fetch = self.fetch_lines
        plan = flat, cuts = self._plan(acc, lines=True)
        homes = self._homes(plan, cluster)
        take, give = self._port_commands()
        next_chunk = Get(tok)
        for _ in self.chunk_sizes:
            c = yield next_chunk
            lines = flat[cuts[c]:cuts[c + 1]]
            if take is not None:
                yield take
            lat_cycles = fetch(homes[c], lines, True)
            yield Delay(cycles_to_ps(
                lat_cycles / FSM_OVERLAP + len(lines), MEM_FREQ_GHZ
            ))
            if give is not None:
                yield give
        buf_n = flat.size
        if buf_n:
            energy = self.engine.energy
            energy.charge("access_unit", "fsm_step", buf_n)
            energy.charge("access_unit", "buffer_access", buf_n)
            self.stats.d_a_bytes += buf_n * self.engine.machine.l3.line_bytes

    def _indirect_plans(self, part: PartitionConfig, cluster: int):
        """(flat, cuts, homes, is_write, elem bytes) of each indirect
        access, and their translation-lookup and byte totals."""
        plans = []
        lookups = moved = 0
        for acc in self._indirect(part):
            plan = flat, cuts = self._plan(acc, lines=False)
            plans.append((flat, cuts, self._homes(plan, cluster),
                          acc.is_write, acc.elem_bytes))
            lookups += flat.size
            moved += flat.size * acc.elem_bytes
        return plans, lookups, moved

    def _partition_proc(self, part: PartitionConfig, cluster: int):
        engine = self.engine
        energy = engine.energy
        config = self.offload.config
        profile = PartitionProfile.from_config(part)
        timing = engine.backend.timing(profile)
        ii_ps = timing.ii_ps  # property: hoisted out of the chunk loop
        traffic = engine.hierarchy.traffic
        intra_per_iter = (
            profile.buffer_reads + profile.buffer_writes
        )
        access = self.access_elems
        indirect, trans_n, d_a = self._indirect_plans(part, cluster)
        # hoist the per-chunk channel/token lookups out of the loop
        gets = [Get(self.channels[ch_id]) for ch_id in part.consumes]
        gets += [Get(self.fill_tokens[b])
                 for b in self.read_bufs[part.partition_index]]
        write_toks = [self.drain_tokens[b]
                      for b in self.write_bufs[part.partition_index]]
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
        total_iters = a_a = 0
        operand_recs: Dict[Tuple[int, int], int] = {}
        for c, iters in enumerate(self.chunk_sizes):
            for get in gets:
                yield get
            ind_cycles = 0
            for flat, cuts, homes, is_write, eb in indirect:
                ind_cycles += access(homes[c], flat[cuts[c]:cuts[c + 1]],
                                     is_write, eb)
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
        access = self.access_elems
        indirect = []
        trans_n = d_a = 0
        for part in members:
            plans, lookups, moved = self._indirect_plans(
                part, self.clusters[part.partition_index])
            indirect += plans
            trans_n += lookups
            d_a += moved
        gets = [Get(self.channels[ch_id]) for ch_id in external_consumes]
        gets += [Get(self.fill_tokens[b]) for part in members
                 for b in self.read_bufs[part.partition_index]]
        write_toks = [self.drain_tokens[b] for part in members
                      for b in self.write_bufs[part.partition_index]]
        # deferred commutative accounting (see _partition_proc)
        total_iters = a_a = 0
        operand_recs: Dict[Tuple[int, int, int], int] = {}
        for c, iters in enumerate(self.chunk_sizes):
            for get in gets:
                yield get
            ind_cycles = 0
            for flat, cuts, homes, is_write, eb in indirect:
                ind_cycles += access(homes[c], flat[cuts[c]:cuts[c + 1]],
                                     is_write, eb)
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
            for tok in write_toks:
                yield Put(tok, c)
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
