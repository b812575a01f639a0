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
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..accel.base import PartitionProfile
from ..compiler.pipeline import CompiledOffload
from ..energy import EnergyLedger
from ..envcfg import reference_enabled
from ..events import PS_PER_NS, Channel, Get, Put, Simulator, cycles_to_ps
from ..errors import AllocationError, InterfaceError
from ..interface.config import AccessConfig, AccessKind, PartitionConfig
from ..interface.intrinsics import mmio_bytes
from ..interface.scheduler import HardwareScheduler
from ..mem.hierarchy import AccelTally, MemoryHierarchy
from ..mem.slab import SlabAllocator
from ..noc import TrafficClass
from ..obs import OBS
from ..params import MachineParams
from .streams import KeptPlan, SiteStreams

#: target number of chunks an innermost loop is simulated in
TARGET_CHUNKS = 128
#: outstanding fills the stride FSM sustains (burst MLP)
FSM_OVERLAP = 4
#: host->accelerator launch/sync round trip, cycles at 2 GHz
HOST_SYNC_CYCLES = 40
#: memory clock domain for latency accounting
MEM_FREQ_GHZ = 2.0
#: picoseconds per memory cycle. A chunk delay of ``x`` cycles is
#: ``round(x * PS_PER_MEM_CYCLE)``, which equals
#: ``cycles_to_ps(x, MEM_FREQ_GHZ)`` exactly because the clock is a power
#: of two: dividing by it only shifts the exponent, so scaling by
#: ``1000 / MEM_FREQ_GHZ`` rounds once, where ``x * 1000 / MEM_FREQ_GHZ``
#: rounds once and then divides exactly
PS_PER_MEM_CYCLE = PS_PER_NS / MEM_FREQ_GHZ
#: a fill's or drain's chunk of ``x`` latency cycles and ``n`` lines
#: takes ``round((x / FSM_OVERLAP + n) * PS_PER_MEM_CYCLE)`` ps, which is
#: the integer ``FSM_PS_PER_CYCLE * x + FSM_PS_PER_LINE * n``: the memory
#: cycle is a whole number of picoseconds that FSM_OVERLAP divides, so
#: nothing rounds while every term stays below 2**53
FSM_PS_PER_LINE = int(PS_PER_MEM_CYCLE)
FSM_PS_PER_CYCLE = FSM_PS_PER_LINE // FSM_OVERLAP


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
                 io_overlap: float = 1.0,
                 localized_control: bool = False):
        self.machine = machine
        self.hierarchy = hierarchy
        self.energy = energy
        self.slab = slab
        self.backend = backend
        self.scheduler = HardwareScheduler(
            machine.l3_clusters, machine.access_unit
        )
        #: outstanding indirect accesses an accelerator core sustains
        #: (1 = blocking in-order; >1 with SW prefetch or dataflow)
        self.io_overlap = max(io_overlap, 1.0)
        #: DA configurations re-place each access unit at the cluster of
        #: the data it is currently sweeping (paper §V-B: "for every
        #: outer loop iteration, the home node placement decision is
        #: repeated"); the centralized Mono-CA accelerator, the one with
        #: a private cache, cannot move
        self.migrating = hierarchy.private is None
        #: BN annotation: the orchestrators own nested-loop control, so
        #: data-dependent inner bounds need no per-invocation host sync
        self.localized_control = localized_control
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
            OBS.inc("engine.fallback.unmapped-access")
            return 10_000_000 + access_id  # fell back to uncombined

    # ------------------------------------------------------------------
    # memory access paths
    # ------------------------------------------------------------------
    def _line_fetch(self, cluster: int, addr: int, is_write: bool) -> int:
        """One line between buffer and memory system; returns cycles."""
        hierarchy = self.hierarchy
        if hierarchy.private is None:
            return hierarchy.accel_line_fetch(cluster, addr, is_write)
        # Mono-CA: every line crosses the L3 bus into the private cache
        self.energy.charge("accel", "private_cache_access")
        out = hierarchy.private.access(addr, is_write)
        latency = 1
        if out.evicted and out.evicted[1]:
            hierarchy.writeback_line_from(out.evicted[0], cluster)
        if not out.hit:
            latency += hierarchy.l3_demand(addr, from_node=cluster)
        return latency

    def _elem_access(self, cluster: int, addr: int, is_write: bool,
                     elem_bytes: int) -> int:
        """One element, in place at its home bank (cp_read/cp_write)."""
        if self.hierarchy.private is None:
            return self.hierarchy.accel_elem_access(
                cluster, addr, is_write, elem_bytes
            )
        # centralized accelerator: no in-place access, pull the line
        return self._line_fetch(cluster, addr, is_write)

    def _walk_each(self, walk: tuple, c: int, is_write: bool,
                   tally) -> int:
        """Reference walk of chunk ``c``: one :meth:`_line_fetch` per line
        or, for an element walk (element bytes set), one
        :meth:`_elem_access` per element. ``walk`` is (each chunk's
        cluster, the plan's array, its cut points, element bytes); every
        call charges the ledgers itself, so ``tally`` stays empty."""
        homes, flat, cuts, elem_bytes = walk
        cluster = homes[c]
        addrs = flat[cuts[c]:cuts[c + 1]]
        if elem_bytes is None:
            return sum(self._line_fetch(cluster, addr, is_write)
                       for addr in addrs.tolist())
        return sum(self._elem_access(cluster, addr, is_write, elem_bytes)
                   for addr in addrs.tolist())

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
                TrafficClass.HOST_CTRL, self.machine.noc.host_node, cluster,
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
                    # SRAM pressure: the access falls back to uncombined
                    OBS.inc("engine.fallback.sram-pressure")
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
            if self.hierarchy.private is not None else None
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
        if (offload.bounds_data_dependent and invocations > 1
                and not self.localized_control):
            sync_ps = cycles_to_ps(HOST_SYNC_CYCLES, MEM_FREQ_GHZ)
            stats.time_ps += (invocations - 1) * sync_ps
            stats.relaunches += invocations - 1
            self.energy.charge("host_iface", "mmio_access",
                               2 * (invocations - 1))
        return stats


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
    #: whether the walks take their steps from the plans' chunk walks
    #: (the production path; REPRO_REFERENCE=1 turns it off)
    walk_plans: bool = field(init=False)
    #: how many chunks have each size, in chunk order: the full size,
    #: then at most one remainder
    size_counts: Dict[int, int] = field(init=False)

    def build(self) -> None:
        self.size_counts = Counter(self.chunk_sizes)
        engine = self.engine
        hierarchy = engine.hierarchy
        # On the production path every process walks the cache set dicts
        # from its plans' chunk walks into its tally, which it charges
        # once when it ends; Mono-CA's lines and elements all go through
        # its private cache. REPRO_REFERENCE=1 makes one hierarchy call
        # per line or element, which charges as it goes and leaves the
        # tally empty.
        self.walk_plans = engine._fast
        if not self.walk_plans:
            self.fetch_lines = self.access_elems = engine._walk_each
        elif hierarchy.private is not None:
            self.fetch_lines = self.access_elems = hierarchy.l3_demand_batch
        else:
            self.fetch_lines = hierarchy.accel_line_fetch_batch
            self.access_elems = hierarchy.accel_elem_access_batch
        config = self.offload.config
        # a group of two or more partitions is a true per-iteration
        # dependence cycle: its partitions execute serially, paying the
        # operand round trip every iteration
        groups = config.channel_components()
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

    def _steps(self, acc: AccessConfig, cluster: int, lines: bool,
               tally: AccelTally) -> Tuple[KeptPlan, tuple, Sequence[int]]:
        """The access's kept plan of line or element addresses (for an
        invariant stream, only chunk 0's first line), its walk bound for
        this run, and the latency of each chunk that no cache state
        changes.

        With :attr:`walk_plans`, the walk and the latencies come from
        what the record keeps for this L3 layout, and the kept counts
        no cache state changes go to ``tally`` here, once per run.
        Otherwise the walk is (each chunk's cluster, the plan's array,
        its cut points, element bytes or None for lines), and the bound
        walk returns each chunk's whole latency."""
        engine = self.engine
        hierarchy = engine.hierarchy
        l3 = hierarchy.l3
        nchunks = len(self.chunk_sizes)
        kept = self.site_streams.kept(
            acc.site_ids, (engine.slab.by_name(acc.obj).base,
                           _line_shift(engine.machine), l3.stripe_bytes,
                           l3.num_clusters),
            nchunks, acc.elem_bytes, lines, self._is_invariant(acc))
        flat, cuts = kept.plan
        if not self.walk_plans:
            # a migrating access unit presents each chunk at its data's
            # home
            homes = (kept.homes(cluster).tolist() if engine.migrating
                     else [cluster] * nchunks)
            return kept, (homes, flat, cuts,
                          None if lines else acc.elem_bytes), [0] * nchunks
        if hierarchy.private is not None:
            # Mono-CA: one cycle per private-cache access
            tally.private_acc += kept.accesses
            return kept, kept.private_steps(cluster), kept.spans
        free = hierarchy.accel_costs(kept.costs(cluster, acc.is_write),
                                     lines, tally)
        return kept, kept.line_steps() if lines else kept.elem_steps(), free

    def _is_invariant(self, acc: AccessConfig) -> bool:
        return acc.stride_elems == 0 and acc.kind is AccessKind.STREAM_READ

    def _port_commands(self) -> Tuple[Optional[Get], Optional[Put]]:
        """Take and return Mono-CA's L3-bus port token (None elsewhere)."""
        port = self.shared_port
        if port is None:
            return None, None
        return Get(port), Put(port, True)

    # -- processes -----------------------------------------------------------
    # A process charges what it adds up once, after its chunk loop: the
    # chunk walks' tally, and the energy charges and Fig-9 byte tallies
    # it takes from its plans or its chunk sizes. All are commutative
    # integer counts, so this is bit-identical to charging each chunk as
    # it runs. Each process builds its commands once per run, and a
    # chunk delay is an int of picoseconds. Tokens carry no information:
    # a drain counts its own chunks, since its one producer puts them in
    # order.
    def _fill_proc(self, acc: AccessConfig, cluster: int, tok: Channel):
        fetch = self.fetch_lines
        invariant = self._is_invariant(acc)
        tally = self.engine.hierarchy.accel_tally()
        kept, walk, free = self._steps(acc, cluster, True, tally)
        base = _fsm_base(free, kept.spans)
        take, give = self._port_commands()
        put = Put(tok, None)
        nchunks = len(self.chunk_sizes)
        # an invariant stream fetches once, then only hands out tokens
        for c in range(1 if invariant else nchunks):
            if take is not None:
                yield take
            yield base[c] + FSM_PS_PER_CYCLE * fetch(walk, c, False, tally)
            if give is not None:
                yield give
            yield put
        if invariant:
            for _ in range(nchunks - 1):
                yield put
        self.engine.hierarchy.charge_accel(tally)
        buf_n = kept.accesses
        # an invariant stream fetches one line for all its elements
        fsm_n = buf_n if invariant else self.site_streams.length(
            acc.site_ids)
        trans_n = kept.nonempty
        if trans_n:
            energy = self.engine.energy
            energy.charge("access_unit", "fsm_step", fsm_n)
            energy.charge("access_unit", "buffer_access", buf_n)
            energy.charge("access_unit", "translation_lookup", trans_n)
            self.stats.d_a_bytes += buf_n * self.engine.machine.l3.line_bytes

    def _drain_proc(self, acc: AccessConfig, cluster: int, tok: Channel):
        fetch = self.fetch_lines
        tally = self.engine.hierarchy.accel_tally()
        kept, walk, free = self._steps(acc, cluster, True, tally)
        base = _fsm_base(free, kept.spans)
        take, give = self._port_commands()
        next_chunk = Get(tok)
        for c in range(len(self.chunk_sizes)):
            yield next_chunk
            if take is not None:
                yield take
            yield base[c] + FSM_PS_PER_CYCLE * fetch(walk, c, True, tally)
            if give is not None:
                yield give
        self.engine.hierarchy.charge_accel(tally)
        buf_n = kept.accesses
        if buf_n:
            energy = self.engine.energy
            energy.charge("access_unit", "fsm_step", buf_n)
            energy.charge("access_unit", "buffer_access", buf_n)
            self.stats.d_a_bytes += buf_n * self.engine.machine.l3.line_bytes

    def _indirect_steps(self, parts: List[PartitionConfig],
                        tally: AccelTally):
        """(bound walk, is_write) of each indirect access of ``parts``,
        the summed latency of each chunk that no cache state changes,
        and the accesses' translation-lookup and byte totals."""
        walks = []
        free = [0] * len(self.chunk_sizes)
        lookups = moved = 0
        for part in parts:
            cluster = self.clusters[part.partition_index]
            for acc in self._indirect(part):
                kept, walk, lat = self._steps(acc, cluster, False, tally)
                walks.append((walk, acc.is_write))
                free = [a + b for a, b in zip(free, lat)]
                lookups += kept.accesses
                moved += kept.accesses * acc.elem_bytes
        return walks, free, lookups, moved

    def _operand_counts(self, channels: list
                        ) -> Tuple[int, Dict[Tuple[int, int, int], int]]:
        """The operand bytes ``channels`` carry over the whole run, and
        how many messages of each (source cluster, destination cluster,
        payload) they send: one per channel and chunk, keyed in the order
        the chunks would first send them."""
        clusters = self.clusters
        a_a = 0
        recs: Dict[Tuple[int, int, int], int] = {}
        for iters, count in self.size_counts.items():
            for ch in channels:
                payload = ch.payload_bytes * iters
                key = (clusters[ch.producer_partition],
                       clusters[ch.consumer_partition], payload)
                recs[key] = recs.get(key, 0) + count
                a_a += payload * count
        return a_a, recs

    def _partition_proc(self, part: PartitionConfig, cluster: int):
        engine = self.engine
        energy = engine.energy
        config = self.offload.config
        profile = PartitionProfile.from_config(part)
        timing = engine.backend.timing(profile)
        traffic = engine.hierarchy.traffic
        intra_per_iter = (
            profile.buffer_reads + profile.buffer_writes
        )
        access = self.access_elems
        tally = engine.hierarchy.accel_tally()
        indirect, free, trans_n, d_a = self._indirect_steps([part], tally)
        gets = [Get(self.channels[ch_id]) for ch_id in part.consumes]
        gets += [Get(self.fill_tokens[b])
                 for b in self.read_bufs[part.partition_index]]
        produces = [config.channel(ch_id) for ch_id in part.produces]
        # after its compute, a chunk puts to each operand channel and
        # then each drain; the first chunk waits out each operand's
        # pipeline fill latency before its put
        puts = [Put(self.channels[ch.channel_id], None) for ch in produces]
        first = []
        for ch, put in zip(produces, puts):
            lat_ps = traffic.latency_of(
                cluster, self.clusters[ch.consumer_partition],
                ch.payload_bytes * self.chunk_sizes[0])
            first += [lat_ps, put] if lat_ps else [put]
        puts += [Put(self.drain_tokens[b], None)
                 for b in self.write_bufs[part.partition_index]]
        first += puts[len(produces):]
        # the compute time of each chunk, its whole delay when the
        # partition makes no indirect access
        ii_ps = timing.ii_ps  # a property: read once
        delays = [ii_ps * iters for iters in self.chunk_sizes]
        overlap = 1.0 if self.offload.serial_chain else engine.io_overlap
        for c in range(len(delays)):
            for get in gets:
                yield get
            if indirect:
                ind_cycles = free[c]
                for walk, is_write in indirect:
                    ind_cycles += access(walk, c, is_write, tally)
                # a loop-carried address chain (pointer chasing)
                # serializes indirect accesses on every substrate
                # (overlap hoisted)
                yield delays[c] + round(
                    ind_cycles / overlap * PS_PER_MEM_CYCLE)
            else:
                yield delays[c]
            for put in (puts if c else first):
                yield put
        engine.hierarchy.charge_accel(tally)
        if trans_n:
            energy.charge("access_unit", "translation_lookup", trans_n)
            self.stats.d_a_bytes += d_a
        total_iters = sum(self.chunk_sizes)
        engine.backend.charge_iteration(profile, energy, count=total_iters)
        # operand reads/writes: access-unit SRAM buffers, or the
        # centralized private cache in Mono-CA
        operand_event = (
            "private_cache_access" if engine.hierarchy.private is not None
            else "buffer_access"
        )
        energy.charge("access_unit", operand_event,
                      intra_per_iter * total_iters)
        self.stats.intra_bytes += intra_per_iter * total_iters * 4
        a_a, operand_recs = self._operand_counts(produces)
        self.stats.a_a_bytes += a_a
        for (_, dst_cluster, payload), count in operand_recs.items():
            traffic.record(TrafficClass.ACC_DATA, cluster, dst_cluster,
                           payload, count=count)
            # every operand message is matched by a zero-payload credit
            traffic.record(TrafficClass.ACC_CTRL, dst_cluster, cluster,
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
        tally = engine.hierarchy.accel_tally()
        indirect, free, trans_n, d_a = self._indirect_steps(members, tally)
        gets = [Get(self.channels[ch_id]) for ch_id in external_consumes]
        gets += [Get(self.fill_tokens[b]) for part in members
                 for b in self.read_bufs[part.partition_index]]
        puts = [Put(self.channels[ch.channel_id], None)
                for ch in external_produces]
        puts += [Put(self.drain_tokens[b], None) for part in members
                 for b in self.write_bufs[part.partition_index]]
        # each chunk's serial time, its whole delay when the group makes
        # no indirect access: a dependence cycle has no overlap across
        # iterations
        delays = [iters * (per_iter_ps + hop_ps)
                  for iters in self.chunk_sizes]
        for c in range(len(delays)):
            for get in gets:
                yield get
            if indirect:
                ind_cycles = free[c]
                for walk, is_write in indirect:
                    ind_cycles += access(walk, c, is_write, tally)
                yield delays[c] + round(ind_cycles * PS_PER_MEM_CYCLE)
            else:
                yield delays[c]
            for put in puts:
                yield put
        engine.hierarchy.charge_accel(tally)
        if trans_n:
            energy.charge("access_unit", "translation_lookup", trans_n)
            self.stats.d_a_bytes += d_a
        total_iters = sum(self.chunk_sizes)
        for part in members:
            profile = profiles[part.partition_index]
            engine.backend.charge_iteration(profile, energy,
                                            count=total_iters)
            intra = profile.buffer_reads + profile.buffer_writes
            energy.charge("access_unit", "buffer_access",
                          intra * total_iters)
            self.stats.intra_bytes += intra * total_iters * 4
        a_a, operand_recs = self._operand_counts(
            intra_channels + external_produces)
        self.stats.a_a_bytes += a_a
        for (src, dst, payload), count in operand_recs.items():
            traffic.record(TrafficClass.ACC_DATA, src, dst, payload,
                           count=count)


def _fsm_base(free: Sequence[int], spans: Sequence[int]) -> List[int]:
    """Each chunk's fill or drain delay in ps before its cache walk adds
    ``FSM_PS_PER_CYCLE`` per cycle: its latency that no cache state
    changes, and its lines."""
    return [FSM_PS_PER_CYCLE * x + FSM_PS_PER_LINE * n
            for x, n in zip(free, spans)]


def _line_shift(machine: MachineParams) -> int:
    return machine.l3.line_bytes.bit_length() - 1
