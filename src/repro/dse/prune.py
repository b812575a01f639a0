"""Static pre-pass pruning for DSE sweeps (AN-C powered).

When a sweep spec sets ``"prune": true``, the scheduler asks this
module — before simulating anything — which pending *design points* are
already settled by rows in the result store. The argument is interval
dominance:

* a design point's coordinates on the report's Pareto frontier are the
  geomeans of its **measured** energy/time across the sweep's
  workload rows;
* the AN-C cost model gives a sound **lower bound** for each of those
  rows, hence (geomean is monotone) a sound lower bound on the design
  point's frontier coordinates;
* if some *completed* design point's measured geomeans are strictly
  below a pending design's lower-bound geomeans on *both* axes, the
  pending design can never reach the frontier — any row it would
  produce only moves it further up. Skipping it cannot change the
  frontier (a point it would have dominated is also dominated by the
  completed design, transitively).

Nothing is ever dropped silently: every skipped point is recorded in
the store as a ``"pruned"`` row carrying its bounds and the dominating
design, and the report prints them. Pruning is conservative three ways:
only designs with *no* measured rows yet are candidates (a partially
measured design keeps running so its frontier geomean stays honest),
only configurations/overrides inside the validated envelope get bounds
at all (:data:`PRUNE_SAFE_OVERRIDES`), and dominance must be strict on
both axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.cost import METRICS, VALIDATED_CONFIGS, CostModel
from ..params import MachineParams
from ..sim.system import functional_pass
from ..sim.tracecache import WorkloadTrace
from ..workloads import ALL_WORKLOADS
from .spec import SweepPoint, SweepSpec

#: machine-override keys (aliases or dotted paths) the cost model is
#: exactly parameterized over. Anything else (memory latencies, mesh
#: geometry, cache sizes, ...) may shift latencies the ``LATM_*``
#: margins were validated against, so such points never get bounds and
#: are never pruned.
PRUNE_SAFE_OVERRIDES = frozenset({
    "accel_freq_ghz",
    "inorder.issue_width",
    "cgra.int_alus",
    "cgra.float_alus",
    "cgra.complex_alus",
})

#: a bounds function maps a sweep point to {metric: (lo, hi)} or None
#: when the point is outside the model's validated envelope
BoundsFn = Callable[[SweepPoint], Optional[Dict[str, Tuple[float, float]]]]

#: the design-point identity used by the Pareto frontier
DesignKey = Tuple[str, Tuple[Tuple[str, object], ...]]


def design_key(point: SweepPoint) -> DesignKey:
    return (point.config, tuple(sorted(point.machine_overrides)))


def format_design(key: DesignKey) -> str:
    config, overrides = key
    ov = ", ".join(f"{k}={v}" for k, v in overrides) or "(base)"
    return f"{config} @ {ov}"


def _geomean(values: Sequence[float]) -> float:
    from ..experiments.runner import geomean

    return geomean([max(float(v), 1e-12) for v in values])


def static_bounds_fn(spec: SweepSpec, base: MachineParams) -> BoundsFn:
    """The production bounds function: AN-C cost model per point.

    The golden interpretation of each dataset (workload x kwargs) is
    shared across all its machine points and configurations, so the
    pre-pass costs one interpreter walk per dataset — the same unit of
    reuse the sweep scheduler itself exploits for traces.
    """
    analyzed: Dict[Tuple, WorkloadTrace] = {}
    models: Dict[Tuple, CostModel] = {}

    def bounds(point: SweepPoint) -> Optional[Dict[str, Tuple[float, float]]]:
        if point.config not in VALIDATED_CONFIGS:
            return None
        if any(k not in PRUNE_SAFE_OVERRIDES
               for k, _ in point.machine_overrides):
            return None
        dataset = (point.workload, point.scale, point.workload_kwargs)
        if dataset not in analyzed:
            analyzed[dataset] = functional_pass(
                lambda: ALL_WORKLOADS[point.workload].build(
                    point.scale, **dict(point.workload_kwargs)))
        model_key = (dataset, point.machine_overrides)
        model = models.get(model_key)
        if model is None:
            model = models[model_key] = CostModel(
                analyzed[dataset], point.machine(base))
        pred = model.predict(point.config)
        return {m: pred[m].as_pair() for m in METRICS}

    return bounds


@dataclass
class PrunePlan:
    """What the pre-pass decided for the pending points of one sweep."""

    #: point hash -> {metric: (lo, hi)} for every point that got bounds
    bounds: Dict[str, Dict[str, Tuple[float, float]]] = field(
        default_factory=dict)
    #: point hash -> human-readable dominating design
    pruned: Dict[str, str] = field(default_factory=dict)
    #: pruned design -> dominating design (for the report/log)
    pruned_designs: Dict[str, str] = field(default_factory=dict)


def plan_pruning(spec: SweepSpec,
                 pending: Sequence[Tuple[str, SweepPoint]],
                 completed_rows: Sequence[Dict[str, object]],
                 bounds_fn: BoundsFn) -> PrunePlan:
    """Decide which pending points are dominated by completed rows.

    ``completed_rows`` are ``ok`` store rows (typically loaded via
    ``--resume``); ``pending`` is every (hash, point) the scheduler is
    about to run.
    """
    plan = PrunePlan()
    expected_rows = max(
        1, len(spec.workloads)) * max(1, len(spec._workload_combos()))

    # measured geomeans of every *complete* stored design
    measured: Dict[DesignKey, List[Dict[str, object]]] = {}
    for row in completed_rows:
        if row.get("status") != "ok" or not row.get("metrics"):
            continue
        p = row["point"]
        key = (p["config"],
               tuple(sorted(p["machine_overrides"].items())))
        measured.setdefault(key, []).append(row)
    completed: Dict[DesignKey, Tuple[float, float]] = {}
    for key, rows in measured.items():
        if len(rows) < expected_rows:
            continue
        completed[key] = (
            _geomean([r["metrics"]["time_ps"] for r in rows]),
            _geomean([r["metrics"]["energy_pj"] for r in rows]),
        )

    # bounds for every pending point; group pending by design
    by_design: Dict[DesignKey, List[str]] = {}
    design_bounds: Dict[DesignKey, List[Optional[Dict]]] = {}
    for hash_, point in pending:
        b = bounds_fn(point)
        if b is not None:
            plan.bounds[hash_] = b
        key = design_key(point)
        by_design.setdefault(key, []).append(hash_)
        design_bounds.setdefault(key, []).append(b)

    for key, hashes in by_design.items():
        # a design with measured rows already in the store keeps
        # running — pruning its remainder would leave a partial geomean
        if key in measured:
            continue
        bnds = design_bounds[key]
        # every row of the design needs a bound to bound the geomean
        if len(hashes) < expected_rows or any(b is None for b in bnds):
            continue
        gm_time_lo = _geomean([b["time_ps"][0] for b in bnds])
        gm_energy_lo = _geomean([b["energy_pj"][0] for b in bnds])
        for done_key, (gm_time, gm_energy) in completed.items():
            if gm_time < gm_time_lo and gm_energy < gm_energy_lo:
                dominator = format_design(done_key)
                plan.pruned_designs[format_design(key)] = dominator
                for h in hashes:
                    plan.pruned[h] = dominator
                break
    return plan
