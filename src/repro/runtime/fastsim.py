"""Analytic macro-chunk replay of one offload run (production path only).

The discrete-event engine in :mod:`repro.runtime.engine` spends most of
its time dispatching per-chunk generator resumes whose *timing* is fully
determined by a marked-graph recurrence, and whose *memory-system state
transitions* frequently cannot interact across processes at all. This
module replays such runs without any events:

* **Pass 0 — static safety proof.** The run qualifies only when (a) it
  has no Mono-CA shared L3-bus port (``private_cache is None``), (b) the
  cross-executor channel graph is acyclic (always true after SCC
  fusion, checked anyway), and (c) the (cache-instance, set) cells each
  stateful process can touch — L3 slice sets for fill/drain line
  fetches, ACP sets plus L3 sets (including the L3 sets of lines
  already resident in the touched ACPs, which eviction can retire) for
  indirect element accesses — are pairwise disjoint across processes.
  Set-associative LRU sets are independent state machines and every
  other side effect (energy, NoC records, DRAM counters, movement
  bytes) is a commutative integer accumulation, so under (c) *any*
  interleaving that preserves each process's program order produces
  bit-identical state, latencies and ledgers.

* **Pass 1 — per-process stateful sweep.** Each process's chunks
  execute back to back in program order: the same hierarchy calls, the
  same per-chunk energy/traffic accounting and the same per-chunk
  ``cycles_to_ps`` rounding as the event engine's process bodies.
  Consecutive chunks presenting at the same (migrated) cluster are
  coalesced into one widened, segment-delimited ``*_batch`` hierarchy
  call that returns per-chunk latency subtotals.

* **Pass 2 — closed-form schedule.** The per-chunk delays feed the
  exact timing recurrence of the bounded-channel process network
  (get: ``g = max(cursor, p)``; put with capacity ``K``:
  ``p[c] = max(cursor, g[c-K])``), evaluated chunk-major with
  producers before consumers. This reproduces pipelining, decoupled
  run-ahead *and* backpressure — the final time equals the event
  engine's ``sim.now`` exactly, with zero scheduler events.

Anything the proof does not cover falls back to the event engine, so
the replay is an optimization, never a semantic fork. Under
``REPRO_REFERENCE=1`` the engine never calls it, so equivalence is
enforced by ``tests/sim/test_fastpath_equiv.py`` (whole runs),
``tests/runtime/test_sched_equiv.py`` (analytic vs event-only replay)
and the differential oracle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..accel.base import PartitionProfile
from ..events import cycles_to_ps
from ..noc import MessageKind
from ..obs import OBS

#: drain-token channel capacity, mirroring ``_RunContext.build``
_DRAIN_CAP = 4


# ----------------------------------------------------------------------
# pass 0: structural + footprint safety proof
# ----------------------------------------------------------------------
def _executor_graph(ctx, groups: List[List[int]]
                    ) -> Optional[List[Tuple[int, ...]]]:
    """Topologically ordered executors (fused groups count as one);
    None when a cross-executor cycle (e.g. a self-loop channel) exists."""
    config = ctx.offload.config
    exec_of: Dict[int, int] = {}
    for i, group in enumerate(groups):
        for p in group:
            exec_of[p] = i
    succ: Dict[int, Set[int]] = {i: set() for i in range(len(groups))}
    indeg = [0] * len(groups)
    for ch in config.channels:
        if ctx._intra_group(ch, groups):
            continue
        a = exec_of[ch.producer_partition]
        b = exec_of[ch.consumer_partition]
        if a == b:
            return None  # channel cycle within one executor: let the
            # event engine produce its deadlock diagnostics
        if b not in succ[a]:
            succ[a].add(b)
            indeg[b] += 1
    order: List[int] = [i for i in range(len(groups)) if indeg[i] == 0]
    head = 0
    while head < len(order):
        for b in succ[order[head]]:
            indeg[b] -= 1
            if indeg[b] == 0:
                order.append(b)
        head += 1
    if len(order) != len(groups):
        return None
    return [tuple(groups[i]) for i in order]


def _l3_cells(ctx, line_addrs: np.ndarray) -> Set[int]:
    """(slice, set) cells of the L3 touched by these line addresses."""
    if line_addrs.size == 0:
        return set()
    l3 = ctx.engine.hierarchy.l3
    sets = l3.slices[0].num_sets
    lines = line_addrs >> l3.slices[0].line_shift
    homes = (line_addrs // l3.stripe_bytes) % l3.num_clusters
    return set((homes * sets + lines % sets).tolist())


def _acp_cells(ctx, addrs: np.ndarray) -> Tuple[Set[int], Set[int]]:
    """(ACP cells, extra L3 cells) for indirect element accesses.

    The extra L3 cells cover eviction retirement: a dirty ACP victim is
    filled into its own line's L3 set, and victims are either lines this
    process itself accesses (already in its L3 footprint) or lines
    resident in the touched ACPs when the run starts.
    """
    if addrs.size == 0:
        return set(), set()
    hier = ctx.engine.hierarchy
    l3 = hier.l3
    acp0 = hier.acps[0]
    asets = acp0.num_sets
    shift = acp0.line_shift
    lines = addrs >> shift
    homes = (addrs // l3.stripe_bytes) % l3.num_clusters
    acp_cells = set((homes * asets + lines % asets).tolist())
    resident: List[int] = []
    for home in set(homes.tolist()):
        resident.extend(
            ln << shift for ln in hier.acps[home].resident_lines()
        )
    extra = _l3_cells(ctx, np.asarray(resident, dtype=np.int64))
    return acp_cells, extra


def _full_lines(ctx, acc) -> np.ndarray:
    """Unique line addresses an access's whole stream touches."""
    stream = ctx.site_streams.for_sites(acc.site_ids)
    if stream.size == 0:
        return stream
    base = ctx.engine.slab.by_name(acc.obj).base
    return np.unique((base + stream * acc.elem_bytes) >> 6) << 6


def _full_addrs(ctx, acc) -> np.ndarray:
    stream = ctx.site_streams.for_sites(acc.site_ids)
    if stream.size == 0:
        return stream
    base = ctx.engine.slab.by_name(acc.obj).base
    return base + stream * acc.elem_bytes


def _disjoint(footprints: List[Tuple[Set[int], Set[int]]]) -> bool:
    """Pairwise disjointness of per-process (L3 cells, ACP cells)."""
    seen_l3: Set[int] = set()
    seen_acp: Set[int] = set()
    for l3_cells, acp_cells in footprints:
        if not l3_cells and not acp_cells:
            continue
        if seen_l3 & l3_cells or seen_acp & acp_cells:
            return False
        seen_l3 |= l3_cells
        seen_acp |= acp_cells
    return True


# ----------------------------------------------------------------------
# partial coalescing: processes private to the run
# ----------------------------------------------------------------------
def _prefetch_lats(ctx, acc, cluster: int, is_write: bool) -> List[int]:
    """Per-chunk fetch latencies of one fill/drain FSM, executed up
    front in program order (one widened call per same-cluster run)."""
    invariant = ctx._is_invariant(acc)
    line_chunks = ctx._line_chunks(acc)
    chunk_lines = []
    for c in range(len(ctx.chunk_sizes)):
        if invariant and c > 0:
            break
        lines = line_chunks[c]
        if invariant:
            lines = lines[:1]
        chunk_lines.append(
            (c, lines, ctx._migrated(cluster, lines[0] if len(lines)
                                     else None))
        )
    return _segmented_fetch(ctx, chunk_lines, is_write)


def _precompute_private(ctx, footprints, fill_accs, drain_accs,
                        groups) -> None:
    """Partial macro-chunk coalescing when the *global* disjointness
    proof fails: a process whose footprint cells no other process
    touches still commutes with the entire run, so its stateful sweep
    can execute up front as widened batch calls whose per-chunk
    latencies the (now stateless) event process replays. The event
    engine keeps ordering the processes that do share state.
    """
    l3_mult: Dict[int, int] = {}
    acp_mult: Dict[int, int] = {}
    for l3_cells, acp_cells in footprints:
        for cell in l3_cells:
            l3_mult[cell] = l3_mult.get(cell, 0) + 1
        for cell in acp_cells:
            acp_mult[cell] = acp_mult.get(cell, 0) + 1

    def _private(fp) -> bool:
        l3_cells, acp_cells = fp
        return (all(l3_mult[c] == 1 for c in l3_cells)
                and all(acp_mult[c] == 1 for c in acp_cells))

    coalesced = 0
    nf = len(fill_accs)
    nd = len(drain_accs)
    for i, (key, acc, cluster) in enumerate(fill_accs):
        if _private(footprints[i]):
            ctx.pre_fill[key] = _prefetch_lats(ctx, acc, cluster, False)
            coalesced += 1
    for i, (key, acc, cluster) in enumerate(drain_accs):
        if _private(footprints[nf + i]):
            ctx.pre_drain[key] = _prefetch_lats(ctx, acc, cluster, True)
            coalesced += 1
    for i, group in enumerate(groups):
        if len(group) != 1 or not _private(footprints[nf + nd + i]):
            continue
        part = ctx.offload.config.partition(group[0])
        indirect = ctx._indirect(part)
        if len(indirect) != 1:
            continue  # several accesses may interleave on shared cells
        cluster = ctx.clusters[part.partition_index]
        ctx.pre_ind[part.partition_index] = [
            lat for lat, _n in _segmented_indirect(
                ctx, indirect[0], cluster)
        ]
        coalesced += 1
    if coalesced:
        OBS.inc("engine.fastsim_coalesced", coalesced)


# ----------------------------------------------------------------------
# pass 1: per-process stateful sweeps
# ----------------------------------------------------------------------
def _fill_delays(ctx, acc, cluster: int) -> List[Optional[int]]:
    """Execute a fill FSM's fetches/accounting; per-chunk delays
    (None marks an invariant put-only chunk with no ``Delay``)."""
    from .engine import FSM_OVERLAP, MEM_FREQ_GHZ

    engine = ctx.engine
    energy = engine.energy
    invariant = ctx._is_invariant(acc)
    nchunks = len(ctx.chunk_sizes)
    delays: List[Optional[int]] = [None] * nchunks
    line_chunks = ctx._line_chunks(acc)
    chunk_lines = []
    for c in range(nchunks):
        if invariant and c > 0:
            break
        lines = line_chunks[c]
        if invariant:
            lines = lines[:1]
        chunk_lines.append(
            (c, lines, ctx._migrated(cluster, lines[0] if len(lines)
                                     else None))
        )
    lat_by_chunk = _segmented_fetch(ctx, chunk_lines, is_write=False)
    for (c, lines, _at), lat_cycles in zip(chunk_lines, lat_by_chunk):
        n_elems = (1 if invariant
                   else len(ctx._elems_for_chunk(acc, c)))
        if len(lines):
            energy.charge("access_unit", "fsm_step", n_elems)
            energy.charge("access_unit", "buffer_access", len(lines))
            energy.charge("access_unit", "translation_lookup", 1)
            ctx.stats.d_a_bytes += len(lines) * 64
        delays[c] = cycles_to_ps(
            lat_cycles / FSM_OVERLAP + len(lines), MEM_FREQ_GHZ
        )
    return delays


def _drain_delays(ctx, acc, cluster: int) -> List[Optional[int]]:
    from .engine import FSM_OVERLAP, MEM_FREQ_GHZ

    engine = ctx.engine
    energy = engine.energy
    line_chunks = ctx._line_chunks(acc)
    chunk_lines = []
    for c in range(len(ctx.chunk_sizes)):
        lines = line_chunks[c]
        chunk_lines.append(
            (c, lines, ctx._migrated(cluster, lines[0] if len(lines)
                                     else None))
        )
    lat_by_chunk = _segmented_fetch(ctx, chunk_lines, is_write=True)
    delays: List[Optional[int]] = [None] * len(ctx.chunk_sizes)
    for (c, lines, _at), lat_cycles in zip(chunk_lines, lat_by_chunk):
        if len(lines):
            energy.charge("access_unit", "fsm_step", len(lines))
            energy.charge("access_unit", "buffer_access", len(lines))
            ctx.stats.d_a_bytes += len(lines) * 64
        delays[c] = cycles_to_ps(
            lat_cycles / FSM_OVERLAP + len(lines), MEM_FREQ_GHZ
        )
    return delays


def _segmented_fetch(ctx, chunk_lines, is_write: bool) -> List[int]:
    """Line fetches for a list of (chunk, lines, at) in program order.

    Consecutive chunks presenting at the same cluster are widened into
    one segment-delimited hierarchy call (identical per-segment
    latencies and pooled commutative accounting).
    """
    out: List[int] = []
    hier = ctx.engine.hierarchy
    i = 0
    n = len(chunk_lines)
    while i < n:
        at = chunk_lines[i][2]
        j = i + 1
        while j < n and chunk_lines[j][2] == at:
            j += 1
        if j - i == 1:
            out.append(hier.accel_line_fetch_batch(
                at, chunk_lines[i][1], is_write
            ))
        else:
            arrays = [cl[1] for cl in chunk_lines[i:j]]
            seg_ends = np.cumsum([len(a) for a in arrays])
            lat = hier.accel_line_fetch_batch(
                at, np.concatenate(arrays), is_write, seg_ends=seg_ends
            )
            out.extend(int(x) for x in lat)
        i = j
    return out


def _partition_delays(ctx, part, cluster: int
                      ) -> Tuple[List[int], Dict[int, int]]:
    """Execute a partition's indirect accesses/accounting; returns
    (per-chunk delays, chunk-0 pipeline-fill latency per channel)."""
    from .engine import MEM_FREQ_GHZ

    engine = ctx.engine
    energy = engine.energy
    config = ctx.offload.config
    profile = PartitionProfile.from_config(part)
    timing = engine.backend.timing(profile)
    ii_ps = timing.ii_ps
    indirect = ctx._indirect(part)
    traffic = engine.hierarchy.traffic
    intra_per_iter = profile.buffer_reads + profile.buffer_writes
    overlap = (1.0 if ctx.offload.serial_chain else engine.io_overlap)
    nchunks = len(ctx.chunk_sizes)

    # widening coalesces chunks of ONE access; with several indirect
    # accesses their per-chunk interleave is this process's program
    # order (intra-process overlap is allowed by the disjointness
    # proof), so fall back to chunk-major per-chunk calls there
    ind_cycles = [0] * nchunks
    if len(indirect) == 1:
        acc = indirect[0]
        eb = acc.elem_bytes
        for c, (lat, n_elems) in enumerate(
                _segmented_indirect(ctx, acc, cluster)):
            ind_cycles[c] = lat
            if n_elems:
                energy.charge("access_unit", "translation_lookup", n_elems)
                ctx.stats.d_a_bytes += n_elems * eb
    else:
        for c in range(nchunks):
            for acc in indirect:
                elems = ctx._elems_for_chunk(acc, c)
                at = ctx._migrated(
                    cluster,
                    ctx._addr(acc, elems[0]) if len(elems) else None,
                )
                ind_cycles[c] += ctx._indirect_chunk(acc, at, elems)
                if len(elems):
                    energy.charge("access_unit", "translation_lookup",
                                  len(elems))
                    ctx.stats.d_a_bytes += len(elems) * acc.elem_bytes

    delays: List[int] = [0] * nchunks
    lat0: Dict[int, int] = {}
    for c, iters in enumerate(ctx.chunk_sizes):
        delays[c] = ii_ps * iters + cycles_to_ps(
            ind_cycles[c] / overlap, MEM_FREQ_GHZ
        )
        engine.backend.charge_iteration(profile, energy, count=iters)
        energy.charge("access_unit", "buffer_access",
                      intra_per_iter * iters)
        ctx.stats.intra_bytes += intra_per_iter * iters * 4
        for ch_id in part.produces:
            ch = config.channel(ch_id)
            dst_cluster = ctx.clusters[ch.consumer_partition]
            payload = ch.payload_bytes * iters
            lat_ps = traffic.record(
                MessageKind.ACC_OPERAND, cluster, dst_cluster, payload
            )
            traffic.record(
                MessageKind.ACC_CREDIT, dst_cluster, cluster, 0
            )
            ctx.stats.a_a_bytes += payload
            if c == 0:
                lat0[ch_id] = lat_ps
    return delays, lat0


def _segmented_indirect(ctx, acc, cluster: int
                        ) -> List[Tuple[int, int]]:
    """Per-chunk (latency cycles, element count) of one indirect access,
    widened across same-cluster chunk runs."""
    engine = ctx.engine
    nchunks = len(ctx.chunk_sizes)
    elem_chunks = ctx._elem_chunks(acc)
    chunks = []
    for c in range(nchunks):
        elems = elem_chunks[c]
        at = ctx._migrated(
            cluster, ctx._addr(acc, elems[0]) if len(elems) else None
        )
        chunks.append((c, elems, at))
    out: List[Tuple[int, int]] = [(0, 0)] * nchunks
    base = engine.slab.by_name(acc.obj).base
    eb = acc.elem_bytes
    hier = engine.hierarchy
    i = 0
    while i < nchunks:
        at = chunks[i][2]
        j = i + 1
        while j < nchunks and chunks[j][2] == at:
            j += 1
        if j - i == 1:
            c, elems, _ = chunks[i]
            lat = hier.accel_elem_access_batch(
                at, base + elems * eb, acc.is_write, eb
            )
            out[c] = (lat, len(elems))
        else:
            arrays = [base + cl[1] * eb for cl in chunks[i:j]]
            seg_ends = np.cumsum([len(a) for a in arrays])
            lat = hier.accel_elem_access_batch(
                at, np.concatenate(arrays), acc.is_write, eb,
                seg_ends=seg_ends,
            )
            for (c, elems, _), sub in zip(chunks[i:j], lat):
                out[c] = (int(sub), len(elems))
        i = j
    return out


def _group_delays(ctx, members: List) -> List[int]:
    """Execute a fused serial group's accesses/accounting; per-chunk
    delays (mirrors ``_fused_group_proc``)."""
    from .engine import MEM_FREQ_GHZ

    engine = ctx.engine
    energy = engine.energy
    config = ctx.offload.config
    mesh = engine.hierarchy.mesh
    traffic = engine.hierarchy.traffic
    profiles = {p.partition_index: PartitionProfile.from_config(p)
                for p in members}
    per_iter_ps = sum(
        engine.backend.timing(profiles[p.partition_index]).ii_ps
        for p in members
    )
    group = [p.partition_index for p in members]
    intra_channels = [
        ch for ch in config.channels
        if ch.producer_partition in group
        and ch.consumer_partition in group
    ]
    hop_ps = sum(
        mesh.latency_ps(
            ctx.clusters[ch.producer_partition],
            ctx.clusters[ch.consumer_partition],
            ch.payload_bytes, MEM_FREQ_GHZ,
        )
        for ch in intra_channels
    )
    group_set = set(group)
    external_produces = [
        ch for ch in config.channels
        if ch.producer_partition in group_set
        and ch.consumer_partition not in group_set
    ]
    nchunks = len(ctx.chunk_sizes)
    # chunk-major, member/access-minor: the fused process's own program
    # order (intra-process footprint overlap is allowed)
    ind_cycles = [0] * nchunks
    for c in range(nchunks):
        for part in members:
            cluster = ctx.clusters[part.partition_index]
            for acc in ctx._indirect(part):
                elems = ctx._elems_for_chunk(acc, c)
                at = ctx._migrated(
                    cluster,
                    ctx._addr(acc, elems[0]) if len(elems) else None,
                )
                ind_cycles[c] += ctx._indirect_chunk(acc, at, elems)
                if len(elems):
                    energy.charge("access_unit", "translation_lookup",
                                  len(elems))
                    ctx.stats.d_a_bytes += len(elems) * acc.elem_bytes
    delays: List[int] = [0] * nchunks
    for c, iters in enumerate(ctx.chunk_sizes):
        delays[c] = (
            iters * (per_iter_ps + hop_ps)
            + cycles_to_ps(ind_cycles[c], MEM_FREQ_GHZ)
        )
        for part in members:
            profile = profiles[part.partition_index]
            engine.backend.charge_iteration(profile, energy, count=iters)
            intra = profile.buffer_reads + profile.buffer_writes
            energy.charge("access_unit", "buffer_access", intra * iters)
            ctx.stats.intra_bytes += intra * iters * 4
        for ch in intra_channels + external_produces:
            payload = ch.payload_bytes * iters
            traffic.record(
                MessageKind.ACC_OPERAND,
                ctx.clusters[ch.producer_partition],
                ctx.clusters[ch.consumer_partition],
                payload,
            )
            ctx.stats.a_a_bytes += payload
    return delays


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def replay(ctx) -> Optional[int]:
    """Analytically replay ``ctx``'s offload run; returns the final
    simulation time in ps, or None when the run is not provably safe
    (the caller then falls back to the event engine)."""
    engine = ctx.engine
    if engine.private_cache is not None:
        return None  # Mono-CA shared-port contention is event-ordered
    config = ctx.offload.config
    groups = ctx._serial_groups()
    order = _executor_graph(ctx, groups)
    if order is None:
        return None

    # mirror build(): per-partition buffer groupings and channel caps
    fill_accs: List[Tuple[int, object, int]] = []   # (buf_key, acc, cluster)
    drain_accs: List[Tuple[int, object, int]] = []
    for part in config.partitions:
        cluster = ctx.clusters[part.partition_index]
        idx = part.partition_index
        ctx.read_bufs[idx] = []
        ctx.write_bufs[idx] = []
        for buf_key, acc in ctx._grouped(ctx._buffered_reads(part)):
            ctx.read_bufs[idx].append(buf_key)
            fill_accs.append((buf_key, acc, cluster))
        for buf_key, acc in ctx._grouped(ctx._buffered_writes(part)):
            ctx.write_bufs[idx].append(buf_key)
            drain_accs.append((buf_key, acc, cluster))

    # pass 0: footprint disjointness (pure reads; no state touched yet)
    footprints: List[Tuple[Set[int], Set[int]]] = []
    for _key, acc, _cl in fill_accs + drain_accs:
        footprints.append((_l3_cells(ctx, _full_lines(ctx, acc)), set()))
    for group in groups:
        l3_cells: Set[int] = set()
        acp_cells: Set[int] = set()
        for pidx in group:
            for acc in ctx._indirect(config.partition(pidx)):
                addrs = _full_addrs(ctx, acc)
                lines = np.unique(addrs >> 6) << 6 if addrs.size else addrs
                cells, extra = _acp_cells(ctx, addrs)
                acp_cells |= cells
                l3_cells |= _l3_cells(ctx, lines) | extra
        footprints.append((l3_cells, acp_cells))
    if not _disjoint(footprints):
        _precompute_private(ctx, footprints, fill_accs, drain_accs,
                            groups)
        OBS.inc("engine.fastsim_fallbacks")
        return None

    # pass 1: stateful sweeps in spawn order
    nchunks = len(ctx.chunk_sizes)
    fill_caps = {key: ctx._token_capacity(acc.elem_bytes)
                 for key, acc, _cl in fill_accs}
    chan_caps = {}
    for ch in config.channels:
        if not ctx._intra_group(ch, groups):
            chan_caps[ch.channel_id] = ctx._token_capacity(ch.payload_bytes)
    fill_d = {key: _fill_delays(ctx, acc, cl)
              for key, acc, cl in fill_accs}
    drain_d = {key: _drain_delays(ctx, acc, cl)
               for key, acc, cl in drain_accs}
    exec_d: Dict[Tuple[int, ...], List[int]] = {}
    exec_lat0: Dict[Tuple[int, ...], Dict[int, int]] = {}
    for group in order:
        if len(group) == 1:
            part = config.partition(group[0])
            d, lat0 = _partition_delays(
                ctx, part, ctx.clusters[part.partition_index]
            )
        else:
            members = [config.partition(p) for p in group]
            d = _group_delays(ctx, members)
            lat0 = {}
        exec_d[group] = d
        exec_lat0[group] = lat0

    # pass 2: exact marked-graph schedule, chunk-major
    fill_cur = {key: 0 for key, _a, _c in fill_accs}
    drain_cur = {key: 0 for key, _a, _c in drain_accs}
    exec_cur = {g: 0 for g in order}
    fill_put = {key: [0] * nchunks for key in fill_cur}     # token avail
    fill_get = {key: [0] * nchunks for key in fill_cur}     # consumption
    drain_put = {key: [0] * nchunks for key in drain_cur}
    drain_get = {key: [0] * nchunks for key in drain_cur}
    chan_put = {cid: [0] * nchunks for cid in chan_caps}
    chan_get = {cid: [0] * nchunks for cid in chan_caps}

    for c in range(nchunks):
        for key, _acc, _cl in fill_accs:
            cur = fill_cur[key]
            d = fill_d[key][c]
            if d is not None:
                cur += d
            cap = fill_caps[key]
            if c >= cap:
                g = fill_get[key][c - cap]
                if g > cur:
                    cur = g
            fill_put[key][c] = cur
            fill_cur[key] = cur
        for group in order:
            cur = exec_cur[group]
            if len(group) == 1:
                part = config.partition(group[0])
                consumes = part.consumes
                reads = ctx.read_bufs[part.partition_index]
                produces = part.produces
                writes = ctx.write_bufs[part.partition_index]
            else:
                group_set = set(group)
                consumes = [ch.channel_id for ch in config.channels
                            if ch.consumer_partition in group_set
                            and ch.producer_partition not in group_set]
                reads = [b for p in group for b in ctx.read_bufs[p]]
                produces = []
                writes = [b for p in group for b in ctx.write_bufs[p]]
                ext = [ch.channel_id for ch in config.channels
                       if ch.producer_partition in group_set
                       and ch.consumer_partition not in group_set]
            for ch_id in consumes:
                p = chan_put[ch_id][c]
                if p > cur:
                    cur = p
                chan_get[ch_id][c] = cur
            for buf in reads:
                p = fill_put[buf][c]
                if p > cur:
                    cur = p
                fill_get[buf][c] = cur
            cur += exec_d[group][c]
            lat0 = exec_lat0[group]
            if len(group) == 1:
                for ch_id in produces:
                    if c == 0 and lat0.get(ch_id):
                        cur += lat0[ch_id]
                    cap = chan_caps[ch_id]
                    if c >= cap:
                        g = chan_get[ch_id][c - cap]
                        if g > cur:
                            cur = g
                    chan_put[ch_id][c] = cur
            else:
                for ch_id in ext:
                    cap = chan_caps[ch_id]
                    if c >= cap:
                        g = chan_get[ch_id][c - cap]
                        if g > cur:
                            cur = g
                    chan_put[ch_id][c] = cur
            for buf in writes:
                if c >= _DRAIN_CAP:
                    g = drain_get[buf][c - _DRAIN_CAP]
                    if g > cur:
                        cur = g
                drain_put[buf][c] = cur
            exec_cur[group] = cur
        for key, _acc, _cl in drain_accs:
            cur = drain_cur[key]
            p = drain_put[key][c]
            if p > cur:
                cur = p
            drain_get[key][c] = cur
            cur += drain_d[key][c]
            drain_cur[key] = cur

    end = 0
    for cur in fill_cur.values():
        if cur > end:
            end = cur
    for cur in exec_cur.values():
        if cur > end:
            end = cur
    for cur in drain_cur.values():
        if cur > end:
            end = cur
    return end
