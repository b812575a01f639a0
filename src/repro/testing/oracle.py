"""Differential oracles over every execution path of a generated case.

One :class:`GeneratedCase` is pushed through the golden interpreter and
through :func:`~repro.sim.system.simulate_workload` for each requested
configuration twice: once on the production path (vectorized
interpretation, batched replay, analytic offload replay) and once with
``REPRO_REFERENCE=1`` (tree-walking interpretation, per-access replay,
event-only offload replay). The paths must agree on

* **analysis consistency** — the static verifier accepts exactly the
  kernels the interpreter executes without a fault, and the affine
  dependence analysis (:mod:`repro.analysis.deps`) never contradicts
  the DFG offload classifier (rule AN-D03);
* **numerical outputs** — every path's final output arrays equal the
  golden interpreter's bit for bit (all paths execute the functional
  program through the same interpreter semantics, so exact equality is
  the contract, not an allclose);
* **production vs reference** — for each configuration, the two paths
  produce the same time, instruction, memory-op, cache-access, NoC and
  energy-ledger numbers, counter for counter;
* **conservation** — functional quantities that are configuration-
  independent stay put: ``mem_ops`` equals the golden dynamic
  load+store count in every cell, the OoO baseline's instruction count
  equals the golden dynamic instruction count plus the per-call host
  work, the OoO L1 access count equals the access-trace length, and
  every ledger's float totals agree with their per-component and
  per-event breakdowns;
* **static cost bounds** — every measured traffic/time/energy metric
  of every cell falls inside the closed-form interval the AN-C cost
  model (:mod:`repro.analysis.cost`) derives for that configuration;
  an escape means the model's soundness claim is false for a kernel
  shape the generator found.

Any disagreement is reported as an :class:`OracleFailure`; the fuzz CLI
hands failing cases to the shrinker.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.deps import dependence_findings
from ..analysis.verifier import verify_kernel
from ..analysis.findings import errors_of
from ..envcfg import REPRO_REFERENCE
from ..errors import ReproError
from ..params import MachineParams, experiment_machine
from ..sim.results import RunResult
from ..sim.system import simulate_workload
from ..sim.tracecache import TraceCache
from .genkernel import HOST_INSTS_PER_CALL, GeneratedCase

#: the experiment configurations a case is checked across (§VI-A six)
DEFAULT_PATHS = (
    "ooo", "mono_ca", "mono_da_io", "mono_da_f", "dist_da_io", "dist_da_f",
)


@dataclass(frozen=True)
class OracleFailure:
    """One disagreement between execution paths of one case."""

    case: str
    check: str
    config: str          # "" for path-independent checks
    message: str

    def format(self) -> str:
        where = f" [{self.config}]" if self.config else ""
        return f"{self.case}{where} {self.check}: {self.message}"


@dataclass
class OracleReport:
    """Everything one oracle evaluation produced."""

    case: str
    shape: str
    failures: List[OracleFailure]
    paths: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


@contextmanager
def _reference_mode(on: bool):
    var = REPRO_REFERENCE.name
    prior = os.environ.get(var)
    os.environ[var] = "1" if on else "0"
    try:
        yield
    finally:
        if prior is None:
            os.environ.pop(var, None)
        else:
            os.environ[var] = prior


def _side(reference: bool) -> str:
    return "reference" if reference else "production"


def _metric_signature(r: RunResult) -> Dict[str, object]:
    """Every figure-visible metric plus the raw ledger counters."""
    return {
        "time_ps": r.time_ps,
        "insts": r.insts,
        "mem_ops": r.mem_ops,
        "movement_bytes": r.movement_bytes,
        "mmio_bytes": r.mmio_bytes,
        "accel_iterations": r.accel_iterations,
        "validated": r.validated,
        "cache_stats": r.cache_stats.as_dict(),
        "traffic_breakdown": r.traffic_breakdown,
        "energy_counts": dict(sorted(r.energy.counts().items())),
    }


class DifferentialOracle:
    """Runs one case through every path and collects disagreements."""

    def __init__(self, paths: Sequence[str] = DEFAULT_PATHS,
                 machine: Optional[MachineParams] = None):
        self.paths = tuple(paths)
        self.machine = machine or experiment_machine()

    # ------------------------------------------------------------------
    def _machine_for(self, case: GeneratedCase) -> MachineParams:
        """The machine a case is checked on.

        A machine-bearing case (``case.machine_doc`` set, the
        random-machine conformance axis) overrides the oracle's
        constructor machine; the document is validated on every call, so
        a shrinker candidate that corrupted it fails loudly here.
        """
        if case.machine_doc is None:
            return self.machine
        from ..machine import machine_from_document

        return machine_from_document(case.machine_doc)

    # ------------------------------------------------------------------
    def check_case(self, case: GeneratedCase) -> OracleReport:
        failures: List[OracleFailure] = []
        self._check_analysis(case, failures)
        golden, counts = self._golden(case, failures)
        if golden is None:
            return OracleReport(case.name, case.shape, failures, self.paths)
        runs = self._simulate_all(case, failures)
        self._check_outputs(case, golden, runs, failures)
        self._check_production_vs_reference(case, runs, failures)
        self._check_conservation(case, counts, runs, failures)
        self._check_static_bounds(case, runs, failures)
        return OracleReport(case.name, case.shape, failures, self.paths)

    # ------------------------------------------------------------------
    def _check_analysis(self, case: GeneratedCase,
                        failures: List[OracleFailure]) -> None:
        for kernel in case.kernels:
            errors = errors_of(verify_kernel(kernel))
            if errors:
                lines = "; ".join(f.format() for f in errors)
                failures.append(OracleFailure(
                    case.name, "verifier-accepts", "",
                    f"kernel {kernel.name!r} rejected by the static "
                    f"verifier: {lines}",
                ))
            # AN-D03 = deps classification contradicts the DFG offload
            # classifier; a generated kernel must never expose one
            contradictions = [
                f for f in dependence_findings(kernel) if f.rule == "AN-D03"
            ]
            for finding in contradictions:
                failures.append(OracleFailure(
                    case.name, "deps-vs-classifier", "", finding.format(),
                ))

    def _golden(self, case: GeneratedCase,
                failures: List[OracleFailure]):
        """The interpreter must execute every verifier-accepted case."""
        try:
            return case.golden_run()
        except ReproError as exc:
            failures.append(OracleFailure(
                case.name, "interpreter-succeeds", "",
                f"golden interpretation failed: {exc}",
            ))
            return None, None

    # ------------------------------------------------------------------
    def _simulate_all(self, case: GeneratedCase,
                      failures: List[OracleFailure]
                      ) -> Dict[Tuple[str, bool], RunResult]:
        """Simulate every (config, reference) cell of the case.

        One shared trace cache per case: the functional interpretation is
        path-independent, so each cell after the first replays it — the
        exact sharing discipline the experiment matrix uses. The trace
        key carries the mode (mirroring ``tracecache.functional_key``)
        so the reference side records its own tree-walking
        interpretation instead of replaying the production one — the
        comparison stays evidentiary.
        """
        runs: Dict[Tuple[str, bool], RunResult] = {}
        machine = self._machine_for(case)
        cache = TraceCache(max_entries=1)
        for reference in (False, True):
            variant = "fuzz+scalar" if reference else "fuzz"
            with _reference_mode(reference):
                for config in self.paths:
                    try:
                        runs[(config, reference)] = simulate_workload(
                            case.instance(), config,
                            machine=machine,
                            trace_cache=cache,
                            trace_key=(case.name, variant),
                        )
                    except Exception as exc:  # crashes are findings
                        failures.append(OracleFailure(
                            case.name, "simulates", config,
                            f"{_side(reference)}: "
                            f"{type(exc).__name__}: {exc}",
                        ))
        return runs

    # ------------------------------------------------------------------
    def _check_outputs(self, case: GeneratedCase,
                       golden: Dict[str, np.ndarray],
                       runs: Dict[Tuple[str, bool], RunResult],
                       failures: List[OracleFailure]) -> None:
        for (config, reference), run in runs.items():
            if not run.validated:
                failures.append(OracleFailure(
                    case.name, "outputs-validate", config,
                    f"{_side(reference)}: run failed output validation",
                ))

    def _check_production_vs_reference(
            self, case: GeneratedCase,
            runs: Dict[Tuple[str, bool], RunResult],
            failures: List[OracleFailure]) -> None:
        """Counter-for-counter agreement of the two paths per config."""
        for config in self.paths:
            prod = runs.get((config, False))
            ref = runs.get((config, True))
            if prod is None or ref is None:
                continue
            sig_p = _metric_signature(prod)
            sig_r = _metric_signature(ref)
            for field in sig_p:
                if sig_p[field] != sig_r[field]:
                    failures.append(OracleFailure(
                        case.name, "production-vs-reference", config,
                        f"{field} diverged: production={sig_p[field]!r} "
                        f"reference={sig_r[field]!r}",
                    ))

    # ------------------------------------------------------------------
    def _check_conservation(self, case: GeneratedCase, counts,
                            runs: Dict[Tuple[str, bool], RunResult],
                            failures: List[OracleFailure]) -> None:
        golden_mem_ops = counts.loads + counts.stores
        ncalls = len(case.calls)
        expected_ooo_insts = (
            counts.total_insts + ncalls * HOST_INSTS_PER_CALL
        )
        for (config, reference), run in runs.items():
            tag = _side(reference)
            # functional load/store volume is configuration-independent
            if run.mem_ops != golden_mem_ops:
                failures.append(OracleFailure(
                    case.name, "mem-ops-conserved", config,
                    f"{tag}: mem_ops={run.mem_ops}, golden interpreter "
                    f"counted {golden_mem_ops}",
                ))
            if config == "ooo":
                if run.insts != expected_ooo_insts:
                    failures.append(OracleFailure(
                        case.name, "host-inst-accounting", config,
                        f"{tag}: insts={run.insts}, golden counts + host "
                        f"work = {expected_ooo_insts}",
                    ))
                # one L1 access per traced element access, no more
                l1 = run.cache_stats.l1
                if l1 != golden_mem_ops:
                    failures.append(OracleFailure(
                        case.name, "cache-access-sum", config,
                        f"{tag}: l1 accesses={l1}, trace has "
                        f"{golden_mem_ops} element accesses",
                    ))
            self._check_ledger(case, config, tag, run, failures)

    def _check_static_bounds(self, case: GeneratedCase,
                             runs: Dict[Tuple[str, bool], RunResult],
                             failures: List[OracleFailure]) -> None:
        """Measured metrics must fall inside their AN-C intervals.

        The cost model claims soundness for the six validated
        configurations; the fuzzer's job is to find a kernel shape
        where a measured run escapes its interval (``AN-C05``
        territory). A model *crash* on a verifier-accepted case is a
        finding too — the model must be total over the kernel space the
        generator covers.
        """
        from ..analysis.cost import (
            VALIDATED_CONFIGS, check_bounds, cost_model_for_instance,
        )

        try:
            model = cost_model_for_instance(case.instance(),
                                            self._machine_for(case))
            predictions = {
                config: model.predict(config)
                for config in self.paths if config in VALIDATED_CONFIGS
            }
        except Exception as exc:  # noqa: BLE001 — crashes are findings
            failures.append(OracleFailure(
                case.name, "static-cost-bounds", "",
                f"cost model failed: {type(exc).__name__}: {exc}",
            ))
            return
        for (config, reference), run in runs.items():
            predicted = predictions.get(config)
            if predicted is None:
                continue
            for violation in check_bounds(predicted, run, config):
                failures.append(OracleFailure(
                    case.name, "static-cost-bounds", config,
                    f"{_side(reference)}: {violation.format()}",
                ))

    def _check_ledger(self, case: GeneratedCase, config: str, tag: str,
                      run: RunResult,
                      failures: List[OracleFailure]) -> None:
        ledger = run.energy
        total = ledger.total_pj()
        by_comp = sum(ledger.by_component().values())
        by_event = sum(ledger.by_event().values())
        for label, partial in (("component", by_comp), ("event", by_event)):
            if not math.isclose(total, partial, rel_tol=1e-9, abs_tol=1e-6):
                failures.append(OracleFailure(
                    case.name, "energy-breakdown-sums", config,
                    f"{tag}: total_pj={total!r} but per-{label} "
                    f"breakdown sums to {partial!r}",
                ))
        negative = [
            (key, n) for key, n in ledger.counts().items() if n < 0
        ]
        if negative:
            failures.append(OracleFailure(
                case.name, "ledger-nonnegative", config,
                f"{tag}: negative event counts {negative}",
            ))


def check_case(case: GeneratedCase,
               paths: Sequence[str] = DEFAULT_PATHS,
               machine: Optional[MachineParams] = None) -> OracleReport:
    """Convenience one-shot: run every oracle over ``case``."""
    return DifferentialOracle(paths, machine).check_case(case)
