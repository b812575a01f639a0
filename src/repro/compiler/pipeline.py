"""The full compilation pipeline (paper Figure 6).

``compile_kernel`` drives, per innermost loop: DFG classification ->
partitioning (per the target configuration's compute model) -> vertical
placement -> access specialization & intrinsic insertion -> offload
configuration / microcode emission. The output bundles everything the
runtime and the Table V/VI experiments need.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..analysis.verifier import assert_kernel_verified
from ..dfg.build import build_dfg
from ..dfg.classify import (
    Classification,
    classify_kernel_loop,
    has_serial_chain,
)
from ..dfg.graph import Dfg
from ..dfg.node import AccessNode
from ..errors import AllocationError, ConfigError
from ..interface.config import OffloadConfig
from ..interface.intrinsics import CoverageRecorder, mmio_bytes
from ..ir.expr import Load
from ..ir.program import Kernel
from ..ir.stmt import Loop
from ..partition.iterate import DfgPartitioning, partition_dfg
from ..placement.vertical import PlacementLevel, vertical_placement
from .specialize import specialize_offload


class CompileMode(enum.Enum):
    """Which architecture model the offload targets (paper §VI-A)."""

    #: distributed compute + decentralized accesses (Dist-DA)
    DIST = "dist"
    #: monolithic compute, decentralized access units (Mono-DA)
    MONO_DA = "mono_da"
    #: monolithic compute + centralized stream accesses on the L3 bus
    MONO_CA = "mono_ca"


@dataclass
class CompiledOffload:
    """Everything the compiler produced for one innermost loop."""

    kernel: Kernel
    loop: Loop
    dfg: Dfg
    classification: Classification
    partitioning: DfgPartitioning
    config: OffloadConfig
    coverage: CoverageRecorder
    mode: CompileMode
    #: partition index -> vertical placement level
    vertical: Dict[int, PlacementLevel] = field(default_factory=dict)
    trip_count_hint: Optional[int] = None
    #: loop-carried address dependence (pointer chasing): accesses cannot
    #: overlap on any substrate
    serial_chain: bool = False

    # -- Table VI characteristics ------------------------------------------
    @property
    def num_insts(self) -> int:
        return self.dfg.num_insts()

    @property
    def dfg_dims(self) -> Tuple[int, int]:
        return self.dfg.dims()

    @property
    def microcode_bytes(self) -> int:
        return max(
            (len(p.microcode) for p in self.config.partitions), default=0
        )

    @property
    def avg_buffers(self) -> float:
        """Average configured accesses per partition (pre-combining)."""
        per_part = [
            len([a for a in p.accesses]) for p in self.config.partitions
        ]
        return sum(per_part) / len(per_part) if per_part else 0.0

    def avg_physical_buffers(self, machine=None) -> float:
        """Average *allocated* buffers per partition after the hardware
        scheduler's multi-access combining — Table VI's #buf column."""
        from ..interface.scheduler import HardwareScheduler
        from ..params import default_machine

        machine = machine or default_machine()
        sched = HardwareScheduler(machine.l3_clusters, machine.access_unit)
        counts = []
        for k, part in enumerate(self.config.partitions):
            before = sched.buffers_allocated()
            cluster = k % machine.l3_clusters
            for acc in part.accesses:
                try:
                    sched.allocate(k, cluster, acc)
                except AllocationError:
                    counts.append(len(part.accesses))
                    break
            else:
                counts.append(sched.buffers_allocated() - before)
        return sum(counts) / len(counts) if counts else 0.0

    @property
    def init_mmio_bytes(self) -> int:
        return mmio_bytes(self.config.config_calls())

    @property
    def bounds_data_dependent(self) -> bool:
        """The loop's bounds load from memory (spmv's row pointers), so
        the host relaunches the offload for every invocation after the
        first, unless control is localized."""
        return any(isinstance(node, Load)
                   for expr in (self.loop.lower, self.loop.upper)
                   for node in expr.walk())


@dataclass
class CompiledKernel:
    """Compilation result for a whole kernel (possibly several loops)."""

    kernel: Kernel
    offloads: List[CompiledOffload]
    #: innermost loops rejected for offload (serial), run on the host
    rejected: List[Tuple[Loop, Classification]] = field(default_factory=list)
    coverage: CoverageRecorder = field(default_factory=CoverageRecorder)

    @property
    def fully_offloadable(self) -> bool:
        return not self.rejected and bool(self.offloads)


def compile_kernel(kernel: Kernel, mode: CompileMode = CompileMode.DIST,
                   max_partitions: Optional[int] = None,
                   trip_count_hint: Optional[int] = None,
                   coverage: Optional[CoverageRecorder] = None,
                   disable_stream_spec: bool = False) -> CompiledKernel:
    """Compile every offloadable innermost loop of ``kernel``."""
    # static legality guard (repro.analysis); REPRO_NO_VERIFY=1 opts out
    assert_kernel_verified(kernel, context="compiler")
    coverage = coverage if coverage is not None else CoverageRecorder()
    offloads: List[CompiledOffload] = []
    rejected: List[Tuple[Loop, Classification]] = []
    for index, loop in enumerate(kernel.innermost_loops()):
        classify = classify_kernel_loop(loop, kernel)
        if not classify.kind.offloadable:
            rejected.append((loop, classify.kind))
            continue
        dfg = build_dfg(loop, kernel, name=f"{kernel.name}.{loop.var}{index}")
        partitioning = _partition_for_mode(dfg, mode, max_partitions)
        config = specialize_offload(
            dfg, partitioning, kernel, offload_id=index,
            coverage=coverage, trip_count=trip_count_hint,
            disable_stream_spec=disable_stream_spec,
        )
        vertical = _vertical_placements(
            dfg, partitioning, kernel, trip_count_hint, mode
        )
        offloads.append(CompiledOffload(
            kernel=kernel, loop=loop, dfg=dfg,
            classification=classify.kind,
            partitioning=partitioning, config=config,
            coverage=coverage, mode=mode, vertical=vertical,
            trip_count_hint=trip_count_hint,
            serial_chain=has_serial_chain(loop, kernel),
        ))
    return CompiledKernel(
        kernel=kernel, offloads=offloads, rejected=rejected,
        coverage=coverage,
    )


def _partition_for_mode(dfg: Dfg, mode: CompileMode,
                        max_partitions: Optional[int]) -> DfgPartitioning:
    if mode is CompileMode.DIST:
        return partition_dfg(dfg, max_partitions=max_partitions)
    if mode is CompileMode.MONO_CA:
        assignment = {nid: 0 for nid in dfg.nodes}
        return DfgPartitioning(
            dfg=dfg, assignment=assignment, num_partitions=1,
            cut_cost_bits=0, objects=dfg.partition_objects(assignment),
        )
    if mode is CompileMode.MONO_DA:
        return _mono_da_partitioning(dfg)
    raise ConfigError(f"unknown compile mode {mode}")


def _mono_da_partitioning(dfg: Dfg) -> DfgPartitioning:
    """Mono-DA: one access partition per object, compute centralized.

    Access units sit at the data (decentralized accesses, buffered reuse)
    but the offloaded computation is mapped monolithically — the paper's
    "distributed access points from where the data are forwarded" with a
    single compute location.
    """
    objects: Dict[str, int] = {}
    assignment: Dict[int, int] = {}
    for node in dfg.nodes.values():
        if isinstance(node, AccessNode):
            if node.obj not in objects:
                objects[node.obj] = len(objects)
            assignment[node.id] = objects[node.obj]
    compute_part = len(objects)
    has_compute = False
    for node in dfg.nodes.values():
        if node.id not in assignment:
            assignment[node.id] = compute_part
            has_compute = True
    num = compute_part + (1 if has_compute else 0)
    return DfgPartitioning(
        dfg=dfg, assignment=assignment, num_partitions=num,
        cut_cost_bits=dfg.cut_cost_bits(assignment),
        objects=dfg.partition_objects(assignment),
    )


def _vertical_placements(dfg: Dfg, partitioning: DfgPartitioning,
                         kernel: Kernel, trip_hint: Optional[int],
                         mode: CompileMode) -> Dict[int, PlacementLevel]:
    out: Dict[int, PlacementLevel] = {}
    for p in range(partitioning.num_partitions):
        if mode is CompileMode.MONO_CA:
            out[p] = PlacementLevel.NEAR_HOST  # the L3-bus accelerator
            continue
        access_nodes = [
            dfg.nodes[nid] for nid in partitioning.nodes_of(p)
            if isinstance(dfg.nodes[nid], AccessNode)
        ]
        if not access_nodes:
            out[p] = PlacementLevel.L3_CLUSTER  # follow the data
            continue
        votes = [
            vertical_placement(
                node, kernel.objects.get(node.obj), trip_hint
            )
            for node in access_nodes
        ]
        # a partition with any L3-worthy access co-places at the LLC
        out[p] = (
            PlacementLevel.L3_CLUSTER
            if PlacementLevel.L3_CLUSTER in votes
            else PlacementLevel.NEAR_HOST
        )
    return out
