"""Simulated machine parameters (paper Table III).

All structural and timing parameters of the simulated system live here as
frozen dataclasses, so a configuration is an immutable value that can be
copied with :func:`dataclasses.replace` for sensitivity sweeps.

Paper reference (Table III):

* OoO core: 2 GHz, 2x4 decode/issue, x86, 5-way Ice Lake-like.
* L1 D/I: 8-way 32 KB, 8 MSHRs, latency 2.
* L2: 128 KB 16-way, 16 MSHRs, latency 4, stride prefetcher.
* L3: 2 MB static NUCA (256 KB per cluster), 8 clusters on a mesh NoC,
  16-way, 64 MSHRs, latency 10. (The paper's 4 banks per cluster are not
  modelled: a slice is one cache.)
* Memory: LPDDR 2 GB. (The capacity is not modelled: no working set
  comes near it.)
* Accelerators: CGRA @ 1 GHz or 1-issue in-order @ 2 GHz, 4 KB buffer per
  L3 cluster, ACP 1-way 1 KB.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from typing import Callable, Dict, List, Mapping

from .errors import ConfigError, MachineConfigError

CACHE_LINE_BYTES = 64
PAGE_BYTES = 4096
#: associativity of Mono-CA's private cache (``mono_private_bytes``)
MONO_PRIVATE_WAYS = 4


@dataclass(frozen=True)
class CacheParams:
    """Geometry and timing of one cache level."""

    size_bytes: int
    ways: int
    latency_cycles: int
    mshrs: int
    line_bytes: int = CACHE_LINE_BYTES

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.ways


@dataclass(frozen=True)
class NocParams:
    """Mesh NoC parameters.

    Nodes are numbered row-major over an arbitrary ``mesh_cols x
    mesh_rows`` rectangle. The host tile attaches at ``host_node`` (it
    must be co-located with an L3 cluster, i.e. ``host_node <
    l3_clusters``); the memory controller attaches at ``mc_node`` (any
    mesh node). Table III: 8 clusters on a 4x2 mesh, host at node 0,
    memory controller at node 3. Link width is in bytes per flit.
    """

    mesh_cols: int = 4
    mesh_rows: int = 2
    hop_latency_cycles: int = 2
    flit_bytes: int = 16
    #: mesh node where the host core (and its L1/L2) attaches
    host_node: int = 0
    #: mesh node where the memory controller attaches; ``-1`` resolves
    #: to the east end of the top row (node 3 on the default 4x2 mesh)
    mc_node: int = -1

    @property
    def num_nodes(self) -> int:
        return self.mesh_cols * self.mesh_rows

    def __post_init__(self) -> None:
        if self.mc_node == -1:
            object.__setattr__(self, "mc_node", self.mesh_cols - 1)


@dataclass(frozen=True)
class DramParams:
    """LPDDR main-memory model."""

    latency_cycles: int = 120
    bandwidth_bytes_per_cycle: float = 12.8  # ~25.6 GB/s at 2 GHz


@dataclass(frozen=True)
class CoreParams:
    """Host out-of-order core (5-way Ice Lake-like in the paper)."""

    freq_ghz: float = 2.0
    issue_width: int = 5
    mem_level_parallelism: int = 6


@dataclass(frozen=True)
class InOrderParams:
    """Lightweight single-issue in-order accelerator core."""

    freq_ghz: float = 2.0
    issue_width: int = 1


@dataclass(frozen=True)
class CgraParams:
    """Statically-mapped heterogeneous CGRA fabric (per L3 cluster).

    The paper provisions a 5x5 tile per L3 cluster for Dist-DA-F (four
    float, four complex, fifteen integer ALUs) and an 8x8 fabric for
    Mono-DA-F. Each ALU class needs at least one ALU, and the ALUs must
    fit the grid (``int_alus + float_alus + complex_alus <= rows x
    cols``); both are machine rules.
    """

    freq_ghz: float = 1.0
    rows: int = 5
    cols: int = 5
    int_alus: int = 15
    float_alus: int = 4
    complex_alus: int = 4

    @property
    def num_pes(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class AccessUnitParams:
    """Per-cluster access unit: local SRAM buffers + stride FSM + ACP."""

    buffer_bytes: int = 4096
    acp_ways: int = 1
    acp_bytes: int = 1024
    max_buffers: int = 16


@dataclass(frozen=True)
class EnergyTable:
    """Dynamic energy per event, in picojoules (pJ) at 32 nm.

    Magnitudes follow the published 32/45 nm characterizations used by
    McPAT [51], Cacti [52], and the near-data-processing literature (see
    :mod:`repro.energy.tables`). Part of :class:`MachineParams` so a
    machine-description document sources per-access energies alongside
    the structural parameters; experiments tweak entries with
    ``dataclasses.replace`` for sensitivity studies.
    """

    # --- host OoO core -------------------------------------------------
    #: per-instruction pipeline overhead (fetch/decode/rename/ROB/commit)
    ooo_inst_overhead: float = 45.0
    #: per-instruction overhead of a lightweight single-issue in-order core
    io_inst_overhead: float = 6.0
    #: per-op energy of a CGRA PE (op + local operand routing, no fetch)
    cgra_op: float = 2.0
    #: CGRA static-configuration load, per 64-bit config word
    cgra_config_word: float = 4.0

    # --- functional units (charged on top of pipeline overheads) -------
    int_op: float = 0.9
    float_op: float = 3.5
    complex_op: float = 14.0  # div / sqrt / exp-class
    reg_access: float = 1.0

    # --- memory hierarchy (per access of one line / element) -----------
    l1_access: float = 20.0
    l2_access: float = 50.0
    l3_access: float = 100.0
    #: private accelerator cache in Mono-CA (8 KB)
    private_cache_access: float = 8.0
    #: DRAM access per 64-byte line
    dram_line_access: float = 1300.0
    #: access-unit SRAM buffer, per element (<= 8 B) access
    buffer_access: float = 3.0
    #: ACP lookup (1 KB, 1-way)
    acp_access: float = 2.0
    #: TLB/translation-block lookup
    translation_lookup: float = 1.5

    # --- interconnect ---------------------------------------------------
    #: per byte per mesh hop (link traversal)
    noc_byte_hop: float = 1.0
    #: per flit per router traversal
    noc_router_flit: float = 0.6
    #: MMIO register write/read at an accelerator (config/ctrl intrinsics)
    mmio_access: float = 2.5

    # --- miscellaneous ---------------------------------------------------
    #: stride-FSM address generation step
    fsm_step: float = 0.4
    #: hardware-scheduler buffer-allocation-table lookup/update
    sched_table_access: float = 1.2


@dataclass(frozen=True)
class AreaTable:
    """Component areas in mm^2 at 32 nm (paper §VI-E overhead analysis).

    Part of :class:`MachineParams` so a machine-description document
    sources component areas; :class:`repro.energy.area.AreaModel`
    computes the per-cluster / per-chip overhead percentages from it.
    """

    l3_cluster: float = 2.10          # 256 KB SRAM + 4 bank ctl + router
    ooo_core: float = 12.5            # 5-way OoO + private L1 (McPAT-class)
    l2: float = 1.6                   # 128 KB + control
    uncore_misc: float = 73.0         # memory ctl, IO, SoC uncore, spare
    io_accel_core: float = 0.040      # 1-issue IO core, 2 complex + 2 FP ALU
    cgra_pe_int: float = 0.0013
    cgra_pe_float: float = 0.0030
    cgra_pe_complex: float = 0.0036
    cgra_network_per_pe: float = 0.0002
    access_buffer_4kb: float = 0.0060
    acp_1kb: float = 0.0025
    stride_fsm: float = 0.0012


@dataclass(frozen=True)
class MachineParams:
    """Complete parameter set for one simulated machine (Table III)."""

    core: CoreParams = field(default_factory=CoreParams)
    l1: CacheParams = field(
        default_factory=lambda: CacheParams(
            size_bytes=32 * 1024, ways=8, latency_cycles=2, mshrs=8
        )
    )
    l2: CacheParams = field(
        default_factory=lambda: CacheParams(
            size_bytes=128 * 1024, ways=16, latency_cycles=4, mshrs=16
        )
    )
    l3: CacheParams = field(
        default_factory=lambda: CacheParams(
            size_bytes=2 * 1024 * 1024, ways=16, latency_cycles=10, mshrs=64
        )
    )
    l3_clusters: int = 8
    l2_stride_prefetcher: bool = True
    noc: NocParams = field(default_factory=NocParams)
    dram: DramParams = field(default_factory=DramParams)
    inorder: InOrderParams = field(default_factory=InOrderParams)
    cgra: CgraParams = field(default_factory=CgraParams)
    access_unit: AccessUnitParams = field(default_factory=AccessUnitParams)
    #: Mono-CA's private cache on the L3 bus (8 KB in the paper)
    mono_private_bytes: int = 8 * 1024
    #: latency of a near-data access straight into a local L3 bank; the
    #: Table III "latency 10" includes the host-side slice controller and
    #: queueing that an access unit sitting at the bank does not pay
    l3_bank_latency: int = 4
    #: per-event dynamic energies (document-sourced; defaults = the
    #: calibrated 32 nm table)
    energy: EnergyTable = field(default_factory=EnergyTable)
    #: component areas (document-sourced; defaults = the 32 nm table)
    area: AreaTable = field(default_factory=AreaTable)

    def __post_init__(self) -> None:
        violations = machine_violations(self)
        if violations:
            raise MachineConfigError(violations)

    @property
    def l3_cluster_bytes(self) -> int:
        """Bytes of one L3 slice (validated divisible in __post_init__)."""
        return self.l3.size_bytes // self.l3_clusters

    def with_accel_freq(self, freq_ghz: float) -> "MachineParams":
        """Return a copy with both accelerator substrates re-clocked."""
        return replace(
            self,
            inorder=replace(self.inorder, freq_ghz=freq_ghz),
            cgra=replace(self.cgra, freq_ghz=freq_ghz),
        )


def _pow2(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


def machine_violations(m: MachineParams) -> List[str]:
    """Every structural rule ``m`` breaks, one message per broken rule.

    The one rule set for every machine, however it is made (a document,
    a sweep override, the ``topology`` alias, a factory): each message
    names its field, and the cache geometries checked are exactly the
    ones :class:`~repro.mem.hierarchy.MemoryHierarchy` builds (L1, L2,
    each L3 slice, each ACP, the Mono-CA private cache).
    """
    v: List[str] = []

    # written as "not ok" so that a NaN (which JSON documents may
    # carry) fails the rule instead of passing it
    def at_least(path: str, value, bound) -> None:
        if not value >= bound:
            v.append(f"{path} must be >= {bound}: {value}")

    def positive(path: str, value) -> None:
        if not value > 0:
            v.append(f"{path} must be positive: {value}")

    def geometry(path: str, size: int, ways_path: str, ways: int,
                 line: int) -> None:
        """``size`` bytes must hold a power-of-two count of sets of
        ``ways`` lines (rules above report the non-positive inputs)."""
        if size < 1 or ways < 1 or line < 1:
            return
        sets, rem = divmod(size, ways * line)
        if rem:
            v.append(f"{path} must be a multiple of {ways_path} x line "
                     f"({ways} x {line} B): {size}")
        elif not _pow2(sets):
            v.append(f"{path} has a non-power-of-two set count ({sets} "
                     f"sets of {ways_path} x line, {ways} x {line} B): "
                     f"{size}")

    for name in ("l1", "l2", "l3"):
        c = getattr(m, name)
        at_least(f"{name}.size_bytes", c.size_bytes, 1)
        at_least(f"{name}.ways", c.ways, 1)
        at_least(f"{name}.latency_cycles", c.latency_cycles, 1)
        at_least(f"{name}.mshrs", c.mshrs, 1)
        if c.line_bytes < 8 or not _pow2(c.line_bytes):
            v.append(f"{name}.line_bytes must be a power of two >= 8: "
                     f"{c.line_bytes}")
        if name != "l3":
            geometry(f"{name}.size_bytes", c.size_bytes, f"{name}.ways",
                     c.ways, c.line_bytes)
    line = m.l3.line_bytes
    if not m.l1.line_bytes == m.l2.line_bytes == line:
        v.append(f"l1.line_bytes, l2.line_bytes and l3.line_bytes must be "
                 f"equal: {m.l1.line_bytes}, {m.l2.line_bytes}, {line}")

    clusters = m.l3_clusters
    at_least("l3_clusters", clusters, 1)
    at_least("l3_bank_latency", m.l3_bank_latency, 1)
    if clusters >= 1:
        slice_bytes, rem = divmod(m.l3.size_bytes, clusters)
        if rem:
            v.append(f"l3.size_bytes must be a multiple of l3_clusters "
                     f"({clusters}): {m.l3.size_bytes}")
        else:
            geometry("l3.size_bytes / l3_clusters (one L3 slice)",
                     slice_bytes, "l3.ways", m.l3.ways, line)

    noc = m.noc
    cols, rows = noc.mesh_cols, noc.mesh_rows
    at_least("noc.mesh_cols", cols, 1)
    at_least("noc.mesh_rows", rows, 1)
    at_least("noc.hop_latency_cycles", noc.hop_latency_cycles, 0)
    at_least("noc.flit_bytes", noc.flit_bytes, 1)
    if cols >= 1 and rows >= 1:
        nodes = cols * rows
        for label, node in (("host_node", noc.host_node),
                            ("mc_node", noc.mc_node)):
            if not 0 <= node < nodes:
                v.append(f"noc.{label} must be a node of the {cols}x{rows} "
                         f"mesh (0..{nodes - 1}): {node}")
        if nodes < clusters:
            v.append(f"noc.mesh_cols x noc.mesh_rows ({cols}x{rows}, "
                     f"{nodes} nodes) too small for {clusters} L3 clusters "
                     f"(l3_clusters)")
        if clusters >= 1 and clusters <= noc.host_node < nodes:
            v.append(f"noc.host_node {noc.host_node} is not co-located "
                     f"with an L3 cluster (l3_clusters={clusters})")

    at_least("dram.latency_cycles", m.dram.latency_cycles, 0)
    positive("dram.bandwidth_bytes_per_cycle",
             m.dram.bandwidth_bytes_per_cycle)

    for name in ("core", "inorder"):
        group = getattr(m, name)
        positive(f"{name}.freq_ghz", group.freq_ghz)
        at_least(f"{name}.issue_width", group.issue_width, 1)
    at_least("core.mem_level_parallelism", m.core.mem_level_parallelism, 1)
    cgra = m.cgra
    positive("cgra.freq_ghz", cgra.freq_ghz)
    at_least("cgra.rows", cgra.rows, 1)
    at_least("cgra.cols", cgra.cols, 1)
    # the CGRA runs every op class, so each needs at least one ALU
    at_least("cgra.int_alus", cgra.int_alus, 1)
    at_least("cgra.float_alus", cgra.float_alus, 1)
    at_least("cgra.complex_alus", cgra.complex_alus, 1)
    alus = cgra.int_alus + cgra.float_alus + cgra.complex_alus
    if alus > cgra.num_pes:
        v.append(f"cgra.int_alus + cgra.float_alus + cgra.complex_alus "
                 f"({alus}) must fit the cgra.rows x cgra.cols grid "
                 f"({cgra.rows}x{cgra.cols}, {cgra.num_pes} PEs)")

    au = m.access_unit
    at_least("access_unit.buffer_bytes", au.buffer_bytes, 1)
    at_least("access_unit.acp_ways", au.acp_ways, 1)
    at_least("access_unit.acp_bytes", au.acp_bytes, 1)
    at_least("access_unit.max_buffers", au.max_buffers, 1)
    geometry("access_unit.acp_bytes (the ACP)", au.acp_bytes,
             "access_unit.acp_ways", au.acp_ways, line)
    at_least("mono_private_bytes", m.mono_private_bytes, 1)
    geometry("mono_private_bytes (the Mono-CA private cache)",
             m.mono_private_bytes, "its ways", MONO_PRIVATE_WAYS, line)

    for sheet in ("energy", "area"):
        for leaf, value in vars(getattr(m, sheet)).items():
            at_least(f"{sheet}.{leaf}", value, 0)
    return v


def default_machine() -> MachineParams:
    """The paper's Table III machine."""
    return MachineParams()


def mono_da_cgra_machine(base: MachineParams = None) -> MachineParams:
    """Mono-DA-F machine: one 8x8 CGRA fabric (larger monolithic offloads)."""
    base = base or MachineParams()
    big_fabric = replace(
        base.cgra, rows=8, cols=8, int_alus=40, float_alus=12, complex_alus=12
    )
    return replace(base, cgra=big_fabric)


def _builtin_loader(name: str) -> Callable[[], "MachineParams"]:
    def load() -> "MachineParams":
        from .machine import builtin_machine

        return builtin_machine(name)

    return load


#: named base machines a sweep spec / CLI can start from; every entry is
#: constructed from its committed machine-description document under
#: ``repro/machine/builtin/`` (the factories below are the reference
#: constructors the documents are pinned against)
BASE_MACHINES: Dict[str, Callable[[], "MachineParams"]] = {
    name: _builtin_loader(name)
    for name in (
        "table3", "experiment", "mono_da_cgra", "mono_ca",
        "experiment_mono_da_cgra", "experiment_mono_ca",
    )
}


def base_machine(name: str) -> MachineParams:
    """Resolve a named base machine or a machine-document path.

    ``name`` is either one of the :data:`BASE_MACHINES` builtin document
    names or a filesystem path to a machine-description JSON document
    (see :mod:`repro.machine`).
    """
    loader = BASE_MACHINES.get(name)
    if loader is not None:
        return loader()
    import os

    if os.path.exists(name):
        from .machine import load_document, machine_from_document

        return machine_from_document(load_document(name))
    raise ConfigError(
        f"unknown base machine {name!r}; known: {sorted(BASE_MACHINES)} "
        f"(or a path to a machine-description document)"
    )


def coerce_leaf(path: str, current: object, value: object) -> object:
    """``value`` for the leaf field ``path`` whose value is now
    ``current``, checked against its JSON type (ints widen to floats).
    Documents and overrides both set leaves through here."""
    if isinstance(current, bool):
        ok, kind = isinstance(value, bool), "a bool"
    elif isinstance(current, int):
        ok = isinstance(value, int) and not isinstance(value, bool)
        kind = "an int"
    else:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        kind = "a number"
        value = float(value) if ok else value
    if not ok:
        raise MachineConfigError([f"{path} expects {kind}, got {value!r}"])
    return value


def _apply_topology(top: Dict[str, object], value) -> None:
    """``topology`` alias: ``"CxR"`` (or ``[C, R]``) re-shapes the mesh
    to ``C x R`` nodes with one L3 cluster per node, clamping the host
    and memory-controller attachment points into the new mesh. Couples
    the cluster count to the mesh shape so a single sweep-axis value
    always derives a valid machine."""
    parts = value.lower().split("x") if isinstance(value, str) else value
    try:
        cols, rows = (int(p) for p in parts)
    except (TypeError, ValueError):
        raise MachineConfigError([
            f"topology expects 'CxR' or [C, R], got {value!r}"
        ]) from None
    nodes = cols * rows
    noc = top["noc"]
    top["noc"] = replace(
        noc, mesh_cols=cols, mesh_rows=rows,
        host_node=min(noc.host_node, nodes - 1),
        mc_node=min(noc.mc_node, nodes - 1),
    )
    top["l3_clusters"] = nodes


def _apply_accel_freq(top: Dict[str, object], value) -> None:
    """``accel_freq_ghz`` alias: both accelerator substrates are
    re-clocked together, as in the paper's §VI-E clocking study."""
    freq = coerce_leaf("accel_freq_ghz", top["cgra"].freq_ghz, value)
    top["inorder"] = replace(top["inorder"], freq_ghz=freq)
    top["cgra"] = replace(top["cgra"], freq_ghz=freq)


#: derived-override aliases: one spec key fans out to several fields of
#: the machine's top-level field dict
OVERRIDE_ALIASES: Dict[str, Callable[[Dict[str, object], object], None]] = {
    "accel_freq_ghz": _apply_accel_freq,
    # mesh shape + one-cluster-per-node topology (DSE topology sweeps)
    "topology": _apply_topology,
}


def _override_one(top: Dict[str, object], dotted: str, value) -> None:
    """Set the leaf ``dotted`` names in the top-level field dict."""
    head, _, leaf = dotted.partition(".")
    if head not in top:
        raise MachineConfigError([
            f"machine override {dotted!r}: MachineParams has no field "
            f"{head!r}; known: {sorted(top)}"
        ])
    current = top[head]
    if not leaf:
        if is_dataclass(current):
            raise MachineConfigError([
                f"machine override {dotted!r} targets the parameter group "
                f"{type(current).__name__}; override one of its fields "
                f"({', '.join(sorted(f.name for f in fields(current)))})"
            ])
        top[head] = coerce_leaf(dotted, current, value)
        return
    if not is_dataclass(current):
        raise MachineConfigError([
            f"machine override {dotted!r}: {head!r} is a leaf value, "
            f"cannot descend into {leaf!r}"
        ])
    known = [f.name for f in fields(current)]
    if leaf not in known:
        raise MachineConfigError([
            f"machine override {dotted!r}: {type(current).__name__} has "
            f"no field {leaf!r}; known: {sorted(known)}"
        ])
    top[head] = replace(current, **{
        leaf: coerce_leaf(dotted, getattr(current, leaf), value)})


def derive_machine(base: MachineParams,
                   overrides: Mapping[str, object]) -> MachineParams:
    """Return ``base`` with dotted-path field overrides applied.

    ``overrides`` maps parameter paths to values, e.g.::

        derive_machine(m, {
            "l3_clusters": 4,              # top-level field
            "l3.size_bytes": 1 << 20,      # nested dataclass field
            "noc.mesh_cols": 2,
            "accel_freq_ghz": 3.0,         # alias (see OVERRIDE_ALIASES)
        })

    Keys are applied in sorted order, so derivation is deterministic
    regardless of dict ordering, and the machine is constructed once
    from the result, as a document's is. Unknown paths, paths into leaf
    values, group-level targets, type-mismatched values and every
    structural rule the result breaks (:func:`machine_violations`)
    raise :class:`~repro.errors.MachineConfigError` naming the field.
    """
    top = {f.name: getattr(base, f.name) for f in fields(MachineParams)}
    for key in sorted(overrides):
        alias = OVERRIDE_ALIASES.get(key)
        if alias is not None:
            alias(top, overrides[key])
        else:
            _override_one(top, key, overrides[key])
    return MachineParams(**top)


def machine_digest(machine: MachineParams) -> str:
    """Short content hash of every machine parameter (hex digest).

    Two machines with identical parameters share a digest regardless of
    how they were constructed; used by the DSE result store to key
    points against the exact machine they ran on.
    """
    blob = json.dumps(asdict(machine), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


#: capacity scale factor of the experiment machine relative to Table III
EXPERIMENT_SCALE = 16


def experiment_machine() -> MachineParams:
    """The Table III machine with all *capacities* scaled down 16x.

    Pure-Python cycle-approximate simulation cannot execute multi-MB
    working sets at element granularity; instead every storage capacity
    (caches, ACP, access buffers, Mono-CA private cache) shrinks by
    :data:`EXPERIMENT_SCALE` while organization (ways, clusters),
    latencies, frequencies and compute resources stay at Table III
    values. Workload "small" datasets are sized so that working-set /
    LLC ratios match the paper's, which preserves every capacity-driven
    effect the evaluation depends on (see DESIGN.md §4).
    """
    s = EXPERIMENT_SCALE
    base = MachineParams()
    return replace(
        base,
        l1=replace(base.l1, size_bytes=base.l1.size_bytes // s),
        l2=replace(base.l2, size_bytes=base.l2.size_bytes // s),
        # the LLC shrinks further so "small" working sets land in the
        # paper's 0.5-12x WS/LLC range (Table IV vs the 2 MB L3)
        l3=replace(base.l3, size_bytes=base.l3.size_bytes // (2 * s)),
        access_unit=replace(
            base.access_unit,
            buffer_bytes=base.access_unit.buffer_bytes // 4,
            acp_bytes=base.access_unit.acp_bytes // s * 4,
        ),
        mono_private_bytes=base.mono_private_bytes // s,
    )
