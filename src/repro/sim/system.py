"""Full-system simulation of one workload on one configuration.

Implements the six tested configurations of paper §VI-A and the
sensitivity variants (§VI-E). Every experiment enters through
``simulate_dataset`` (a registered workload's dataset, built only on a
trace-cache miss) or ``simulate_workload`` (an already built instance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple

from ..compiler.pipeline import CompiledKernel, CompileMode, compile_kernel
from ..energy import EnergyLedger
from ..errors import ConfigError
from ..events import cycles_to_ps
from ..interface.intrinsics import CoverageRecorder
from ..ir.vecinterp import VecInterpreter, make_interpreter
from ..mem.coherence import CoherenceManager, Domain
from ..mem.hierarchy import MemoryHierarchy
from ..mem.slab import SlabAllocator
from ..obs import OBS
from ..params import (
    PAGE_BYTES,
    MachineParams,
    default_machine,
    mono_da_cgra_machine,
)
from ..accel.inorder import InOrderBackend
from ..accel.cgra import CgraBackend
from ..placement.horizontal import place_partitions
from ..placement.vertical import PlacementLevel
from ..runtime.engine import OffloadEngine
from ..workloads import ALL_WORKLOADS
from ..workloads.base import WorkloadInstance
from .ooo import OooModel
from .results import AccessDistribution, RunResult
from .tracecache import (
    DatasetInfo,
    FunctionalCallRecord,
    TraceCache,
    WorkloadTrace,
    functional_key,
)


@dataclass(frozen=True)
class ConfigSpec:
    """One simulated machine configuration."""

    name: str
    mode: Optional[CompileMode]            # None = plain OoO baseline
    backend: Optional[str]                 # "io" | "cgra" | None
    #: Mono-CA's private 8 KB cache on the L3 bus
    private_cache: bool = False
    #: outstanding indirect accesses the accelerator sustains
    io_overlap: float = 1.0
    #: use the 8x8 fabric machine (monolithic CGRA configs)
    big_fabric: bool = False
    #: accelerator clock override (GHz); None keeps Table III defaults
    accel_freq: Optional[float] = None
    #: in-order issue width override (Dist-DA-IO+SW)
    io_issue_width: Optional[int] = None
    #: user-annotated blocked loop nests (Dist-DA-BN/BNS): partition
    #: orchestrators own the nest control, no per-invocation host sync
    localized_control: bool = False
    #: multithreading case study: stream-based access specialization is
    #: skipped (paper Fig 12b discussion)
    no_stream_spec: bool = False

    def machine(self, base: MachineParams) -> MachineParams:
        """The machine this configuration runs on: ``base`` with the
        8x8 fabric, accelerator clock and in-order issue width it asks
        for. The simulator and the AN-C cost model both derive it here."""
        if self.big_fabric:
            base = mono_da_cgra_machine(base)
        if self.accel_freq is not None:
            base = base.with_accel_freq(self.accel_freq)
        if self.io_issue_width is not None:
            base = replace(
                base, inorder=replace(
                    base.inorder, issue_width=self.io_issue_width
                )
            )
        return base


#: the paper's tested configurations (§VI-A)
CONFIGS: Dict[str, ConfigSpec] = {
    "ooo": ConfigSpec("ooo", None, None),
    "mono_ca": ConfigSpec(
        "mono_ca", CompileMode.MONO_CA, "cgra",
        private_cache=True, io_overlap=4.0, big_fabric=True, accel_freq=2.0,
    ),
    "mono_da_io": ConfigSpec(
        "mono_da_io", CompileMode.MONO_DA, "io", io_overlap=2.0,
    ),
    "mono_da_f": ConfigSpec(
        "mono_da_f", CompileMode.MONO_DA, "cgra",
        io_overlap=6.0, big_fabric=True,
    ),
    "dist_da_io": ConfigSpec(
        "dist_da_io", CompileMode.DIST, "io", io_overlap=2.0,
    ),
    "dist_da_f": ConfigSpec(
        "dist_da_f", CompileMode.DIST, "cgra", io_overlap=6.0,
    ),
    # §VI-E software-optimization variants
    "dist_da_io_sw": ConfigSpec(
        "dist_da_io_sw", CompileMode.DIST, "io",
        io_overlap=6.0, io_issue_width=4,
    ),
    # §VI-D case-study variants (Fig 12a): B = the automated compiler
    # offload (= dist_da_f), BN adds user-annotated localized nest
    # control, BNS adds a user block-transfer schedule (cp_fill_ra /
    # cp_drain_ra), modelled as twice BN's outstanding accesses
    "dist_da_b": ConfigSpec(
        "dist_da_b", CompileMode.DIST, "cgra", io_overlap=6.0,
    ),
    "dist_da_bn": ConfigSpec(
        "dist_da_bn", CompileMode.DIST, "cgra", io_overlap=6.0,
        localized_control=True,
    ),
    "dist_da_bns": ConfigSpec(
        "dist_da_bns", CompileMode.DIST, "cgra", io_overlap=12.0,
        localized_control=True,
    ),
    # multithreading case study (Fig 12b): per-thread slices are
    # scheduled individually, so stream specialization is skipped
    "dist_da_mt": ConfigSpec(
        "dist_da_mt", CompileMode.DIST, "cgra", io_overlap=6.0,
        no_stream_spec=True,
    ),
}

ConfigName = str


def config_spec(name: str) -> ConfigSpec:
    try:
        return CONFIGS[name]
    except KeyError:
        raise ConfigError(
            f"unknown configuration {name!r}; known: {sorted(CONFIGS)}"
        ) from None


class SystemSimulator:
    """Simulates one workload instance on one configuration."""

    def __init__(self, config: str,
                 machine: Optional[MachineParams] = None,
                 coverage: Optional[CoverageRecorder] = None,
                 trace_cache: Optional[TraceCache] = None,
                 trace_key: Optional[Tuple[str, str]] = None):
        self.spec = config_spec(config)
        self.machine = self.spec.machine(machine or default_machine())
        self.coverage = coverage if coverage is not None else CoverageRecorder()
        #: shared functional-trace store; the interpretation of a
        #: (workload, scale) pair is configuration-independent, so one
        #: cache entry serves all six configs of the experiment matrix
        self.trace_cache = trace_cache
        self.trace_key = trace_key

    # ------------------------------------------------------------------
    def run(self, instance: Optional[WorkloadInstance] = None, *,
            build: Optional[Callable[[], WorkloadInstance]] = None
            ) -> RunResult:
        """Simulate ``instance``, or what ``build()`` returns; a trace
        cache hit neither calls ``build`` nor touches ``instance``."""
        entry = self._functional(
            build if instance is None else (lambda: instance)
        )
        energy = EnergyLedger(self.machine.energy)
        hierarchy = MemoryHierarchy(self.machine, energy,
                                    private_cache=self.spec.private_cache)
        slab = SlabAllocator()
        stripe = hierarchy.l3.stripe_bytes
        # stripe alignment anchors each object at a home-cluster
        # boundary; the slab itself is page-granular, so topologies
        # whose stripe is smaller than a page align to the lcm (a page
        # boundary is then also a stripe boundary)
        align = math.lcm(stripe, PAGE_BYTES)
        allocations = {
            name: slab.allocate(name, obj.size_bytes, align=align)
            for name, obj in entry.info.objects.items()
        }
        coherence = CoherenceManager(hierarchy)
        ooo = OooModel(self.machine, hierarchy, energy, slab)
        if self.spec.mode is None:
            result = self._run_ooo(entry, ooo, hierarchy, energy)
        else:
            result = self._run_accel(
                entry, ooo, hierarchy, energy, slab, allocations,
                coherence,
            )
        return result

    # ------------------------------------------------------------------
    def _functional(self, build: Callable[[], WorkloadInstance]
                    ) -> WorkloadTrace:
        """The dataset's configuration-independent functional artifact.

        One cache lookup comes before anything is built. A miss builds,
        interprets and validates the whole dataset first, so every cell
        times the same complete artifact, whether it was cached or not.
        """
        cache, key = self.trace_cache, self.trace_key
        recording = cache is not None and key is not None
        if recording:
            entry = cache.get(*key)
            if entry is not None:
                return entry
        instance = build()
        # vectorized whole-loop interpretation; tree-walking under
        # REPRO_REFERENCE=1 — bit-identical either way
        interp = make_interpreter(record_trace=True)
        records = []
        for call in instance.calls():
            OBS.inc("interp.invocations")
            res = interp.run(call.kernel, instance.arrays, call.scalars)
            OBS.observe_max("interp.peak_trace_elems", len(res.trace or ()))
            records.append(FunctionalCallRecord.from_interp(
                call.kernel, call.scalars, res
            ))
        if isinstance(interp, VecInterpreter):
            # how each loop nest ran, and why it left the vector path
            OBS.inc("interp.vec_nests", interp.vectorized_nests)
            for code, n in interp.fallback_reasons.items():
                OBS.inc(f"interp.fallback.{code}", n)
        workload, scale = key or (instance.name, "")  # never cached
        entry = WorkloadTrace(
            workload=workload, scale=scale, calls=records,
            info=DatasetInfo(
                instance.short, dict(instance.objects),
                instance.host_insts_per_call, instance.serial_fraction,
            ),
            # the arrays are final: the one validation this dataset gets
            validated=instance.validate(),
        )
        if recording:
            cache.put(entry)
        return entry

    # ------------------------------------------------------------------
    def _run_ooo(self, entry: WorkloadTrace, ooo: OooModel,
                 hierarchy: MemoryHierarchy,
                 energy: EnergyLedger) -> RunResult:
        info = entry.info
        total_ps = 0
        insts = 0
        mem_ops = 0
        for rec in entry.calls:
            out = ooo.run(rec.kernel, rec.counts, rec.trace,
                          extra_host_insts=info.host_insts_per_call,
                          serial_fraction=info.serial_fraction)
            total_ps += out.time_ps
            insts += out.insts
            mem_ops += out.mem_ops
        return self._result(
            entry, "ooo", total_ps, insts, mem_ops, energy, hierarchy,
            AccessDistribution(), mmio=0, accel_iters=0,
        )

    # ------------------------------------------------------------------
    def _run_accel(self, entry: WorkloadTrace, ooo: OooModel,
                   hierarchy: MemoryHierarchy, energy: EnergyLedger,
                   slab: SlabAllocator, allocations, coherence
                   ) -> RunResult:
        spec = self.spec
        backend = self._make_backend()
        engine = OffloadEngine(
            self.machine, hierarchy, energy, slab, backend,
            io_overlap=spec.io_overlap,
            localized_control=spec.localized_control,
        )
        # this cell's compiled kernels, by kernel name and fingerprint
        compiled: Dict[Tuple[str, str], CompiledKernel] = {}
        dist = AccessDistribution()
        total_ps = 0
        insts = 0
        mem_ops = 0
        mmio = 0
        accel_iters = 0
        for rec in entry.calls:
            mem_ops += rec.counts.loads + rec.counts.stores
            kernel_key = rec.kernel_key()
            ck = compiled.get(kernel_key)
            if ck is None:
                ck = compiled[kernel_key] = self._compile(entry, rec)
            # split once per recorded call, shared by every replay
            streams = rec.site_streams()
            offloaded_insts = 0
            # iteration maps are keyed by structural loop position, so a
            # cached CompiledKernel built from a *different* (structurally
            # identical) kernel object still finds its trip counts
            loop_ids = ck.kernel.innermost_loop_ids()
            for off in ck.offloads:
                clusters = self._place(off, allocations, hierarchy)
                for part_idx in range(off.partitioning.num_partitions):
                    obj = off.partitioning.safe_anchor(part_idx)
                    if obj is not None:
                        coherence.acquire(
                            allocations[obj], Domain.ACCEL,
                            cluster=clusters[part_idx],
                        )
                loop_key = loop_ids[id(off.loop)]
                trips = rec.inner_iters_by_index.get(loop_key, 0)
                invocations = rec.inner_invocations_by_index.get(
                    loop_key, 1
                )
                stats = engine.run(off, clusters, trips, invocations,
                                   streams)
                total_ps += stats.time_ps
                mmio += stats.mmio_bytes
                accel_iters += stats.accel_iterations
                dist.intra += stats.intra_bytes
                dist.d_a += stats.d_a_bytes
                dist.a_a += stats.a_a_bytes
                # one per-iteration instruction count serves both sides
                # of the ledger: credited to the accelerator here and
                # subtracted from the host residual below. (Mixing the
                # microcode's static_insts with the DFG count over/under-
                # counted the residual.)
                per_iter = max(off.dfg.num_insts() + 2, 1)
                offloaded_insts += trips * per_iter
                insts += trips * per_iter
            # host residual: outer-loop control + non-offloaded work
            resid = max(
                rec.counts.total_insts - offloaded_insts, 0
            ) + entry.info.host_insts_per_call
            host_cycles = resid / self.machine.core.issue_width
            energy.charge("core", "ooo_inst_overhead", resid)
            total_ps += cycles_to_ps(host_cycles, self.machine.core.freq_ghz)
            insts += resid
        return self._result(
            entry, spec.name, total_ps, insts, mem_ops, energy,
            hierarchy, dist, mmio, accel_iters,
        )

    def _compile(self, entry: WorkloadTrace,
                 rec: FunctionalCallRecord) -> CompiledKernel:
        """``rec``'s kernel compiled for this configuration, once per
        dataset: the compiler's output depends on the kernel, the
        compile mode, the stream-spec flag and the trip hint of the
        kernel's first call, and on nothing a machine, cell or chunk
        changes. The compile records into its own coverage, which every
        cell that takes it merges into its own."""
        spec = self.spec
        key = (*rec.kernel_key(), spec.mode, spec.no_stream_spec)
        memo = entry.compiled.get(key)
        if memo is None:
            OBS.inc("compile.kernels")
            coverage = CoverageRecorder()
            memo = entry.compiled[key] = (compile_kernel(
                rec.kernel, spec.mode,
                trip_count_hint=max(rec.inner_iterations, 1),
                coverage=coverage,
                disable_stream_spec=spec.no_stream_spec,
            ), coverage)
        else:
            OBS.inc("compile.reused")
        self.coverage.merge(memo[1])
        return memo[0]

    def _make_backend(self):
        if self.spec.backend == "io":
            return InOrderBackend(self.machine.inorder)
        if self.spec.backend == "cgra":
            return CgraBackend(self.machine.cgra)
        raise ConfigError(f"config {self.spec.name} has no backend")

    def _place(self, off, allocations, hierarchy) -> Dict[int, int]:
        if self.spec.mode is CompileMode.MONO_CA:
            return {
                p: self.machine.noc.host_node
                for p in range(off.partitioning.num_partitions)
            }
        clusters = place_partitions(
            off.partitioning, allocations, hierarchy.l3
        )
        # vertical placement: near-host partitions sit at the host tile
        for part_idx, level in off.vertical.items():
            if level is PlacementLevel.NEAR_HOST:
                clusters[part_idx] = self.machine.noc.host_node
        return clusters

    # ------------------------------------------------------------------
    def _result(self, entry: WorkloadTrace, name: str, total_ps: int,
                insts: int, mem_ops: int, energy: EnergyLedger,
                hierarchy: MemoryHierarchy, dist: AccessDistribution,
                mmio: int, accel_iters: int) -> RunResult:
        hierarchy.record_obs()
        OBS.inc("sim.cells")
        return RunResult(
            workload=entry.info.short,
            config=name,
            time_ps=max(total_ps, 1),
            insts=insts,
            mem_ops=mem_ops,
            energy=energy,
            cache_stats=hierarchy.stats(),
            traffic_breakdown=hierarchy.traffic.breakdown(),
            # data movement = level-to-level line moves plus distance-
            # weighted NoC traversals (a centralized accelerator pulling
            # every line across the mesh is penalized accordingly)
            movement_bytes=(
                hierarchy.movement_bytes
                + hierarchy.traffic.total_byte_hops()
            ),
            access_dist=dist,
            validated=entry.validated,
            mmio_bytes=mmio,
            accel_iterations=accel_iters,
        )


def simulate_workload(instance: WorkloadInstance, config: str,
                      machine: Optional[MachineParams] = None,
                      coverage: Optional[CoverageRecorder] = None,
                      trace_cache: Optional[TraceCache] = None,
                      trace_key: Optional[Tuple[str, str]] = None
                      ) -> RunResult:
    """Simulate one workload instance on one named configuration.

    Pass a shared ``trace_cache`` plus a ``(workload, scale)``
    ``trace_key`` to reuse the functional interpretation across
    configurations of the same workload.
    """
    return SystemSimulator(
        config, machine, coverage,
        trace_cache=trace_cache, trace_key=trace_key,
    ).run(instance)


def simulate_dataset(workload: str, scale: str, config: str,
                     build_kwargs: Optional[Dict[str, object]] = None,
                     machine: Optional[MachineParams] = None,
                     coverage: Optional[CoverageRecorder] = None,
                     trace_cache: Optional[TraceCache] = None
                     ) -> RunResult:
    """Simulate a registered workload's dataset on one configuration,
    building it only on a ``trace_cache`` miss. The functional key comes
    from the same arguments as the build, so the two cannot disagree."""
    kwargs = dict(build_kwargs or {})
    return SystemSimulator(
        config, machine, coverage, trace_cache=trace_cache,
        trace_key=functional_key(workload, scale, kwargs),
    ).run(build=lambda: ALL_WORKLOADS[workload].build(scale, **kwargs))
