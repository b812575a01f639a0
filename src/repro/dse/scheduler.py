"""Sweep execution: sharding, trace reuse, failure rows, resume.

Expansion groups points by *dataset* (the functional cache key — same
workload, scale and dataset kwargs), because the golden interpretation
is machine-independent: one group is interpreted once, then every
machine point and configuration in it replays the recorded trace. A
group is also the unit of work :class:`~repro.dse.executor.Executor`
hands a worker process, so the trace never crosses a process boundary.

Failures never kill a sweep. A point that raises is recorded as a
``failed`` row (with the exception text) after one attempt: the
simulator is deterministic, so a second attempt would raise again. A
group whose worker process dies or times out becomes one ``failed`` row
per point (the executor's containment ladder). With ``resume=True``,
points whose hash already has an ``ok`` row in the store are skipped;
``failed`` rows are retried.
"""

from __future__ import annotations

from concurrent.futures import as_completed
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..obs import SweepProgress
from ..params import MachineParams
from ..sim.results import RunResult
from ..sim.system import simulate_dataset
from ..sim.tracecache import TraceCache
from .executor import Executor, GroupFailed, resolve_jobs
from .spec import STORE_VERSION, PlannedPoint, SweepSpec
from .store import open_result_store

#: a progress sink receives one human-readable line per completed unit
ProgressFn = Callable[[str], None]


def point_metrics(run: RunResult) -> Dict[str, object]:
    """The stored per-point metric record (exact, no wall-clock)."""
    from ..testing.golden import cell_record

    record = cell_record(run)
    record.update({
        "intra_bytes": run.access_dist.intra,
        "d_a_bytes": run.access_dist.d_a,
        "a_a_bytes": run.access_dist.a_a,
    })
    return record


def point_row(planned: PlannedPoint, status: str,
              metrics: Optional[Dict[str, object]] = None,
              error: Optional[str] = None, attempts: int = 1
              ) -> Dict[str, object]:
    """One store row (the schema in :mod:`repro.dse.store`)."""
    return {
        "hash": planned.hash,
        "version": STORE_VERSION,
        "status": status,
        "point": planned.point.as_dict(),
        "machine_digest": planned.digest,
        "metrics": metrics,
        "error": error,
        "attempts": attempts,
    }


def failed_rows_for_group(group: List[PlannedPoint], error: str,
                          attempts: int) -> List[Dict[str, object]]:
    """The ``failed`` row every point of a group gets when the executor
    gives up on the group as a whole."""
    return [point_row(planned, "failed", error=error, attempts=attempts)
            for planned in group]


def _run_point(planned: PlannedPoint,
               cache: TraceCache) -> Dict[str, object]:
    """Simulate one point; always return a row."""
    point = planned.point
    try:
        run = simulate_dataset(
            point.workload, point.scale, point.config,
            build_kwargs=dict(point.workload_kwargs),
            machine=planned.machine, trace_cache=cache,
        )
    except Exception as exc:  # noqa: BLE001 — recorded, not fatal
        return point_row(planned, "failed",
                         error=f"{type(exc).__name__}: {exc}")
    return point_row(planned, "ok", metrics=point_metrics(run))


def _run_group(group: List[PlannedPoint],
               cache: TraceCache) -> List[Dict[str, object]]:
    """Run one dataset group; returns its rows in point order."""
    return [_run_point(planned, cache) for planned in group]


def _sweep_worker(group: List[PlannedPoint]) -> List[Dict[str, object]]:
    """Executor unit: one dataset group, private single-entry trace
    cache."""
    return _run_group(group, TraceCache(max_entries=1))


@dataclass
class SweepResult:
    """Everything one sweep run produced (including resumed rows)."""

    spec: SweepSpec
    rows: Dict[str, Dict[str, object]] = field(default_factory=dict)
    store_path: Optional[str] = None
    skipped: int = 0

    def ok_rows(self) -> List[Dict[str, object]]:
        return [r for r in self.rows.values() if r["status"] == "ok"]

    def failed_rows(self) -> List[Dict[str, object]]:
        return [r for r in self.rows.values() if r["status"] == "failed"]

    def pruned_rows(self) -> List[Dict[str, object]]:
        return [r for r in self.rows.values() if r["status"] == "pruned"]

    def index(self) -> Dict[Tuple, Dict[str, object]]:
        """(workload, config, machine_overrides, workload_kwargs) ->
        metrics, for ``ok`` rows."""
        out = {}
        for row in self.ok_rows():
            p = row["point"]
            key = (
                p["workload"], p["config"],
                tuple(sorted(p["machine_overrides"].items())),
                tuple(sorted(p["workload_kwargs"].items())),
            )
            out[key] = row["metrics"]
        return out

    def metrics(self, workload: str, config: str,
                machine_overrides: Optional[Dict[str, object]] = None,
                workload_kwargs: Optional[Dict[str, object]] = None
                ) -> Dict[str, object]:
        key = (
            workload, config,
            tuple(sorted((machine_overrides or {}).items())),
            tuple(sorted((workload_kwargs or {}).items())),
        )
        return self.index()[key]


def _group_points(spec: SweepSpec, base: MachineParams,
                  stored: Dict[str, Dict[str, object]],
                  progress_track: SweepProgress
                  ) -> Tuple[List[List[PlannedPoint]],
                             Dict[str, Dict[str, object]]]:
    """Plan every point, split resumed rows from pending groups."""
    resumed: Dict[str, Dict[str, object]] = {}
    groups: Dict[Tuple[str, str], List[PlannedPoint]] = {}
    order: List[Tuple[str, str]] = []
    for point in spec.points():
        planned = point.plan(base)
        prior = stored.get(planned.hash)
        if prior is not None and prior.get("status") == "ok":
            resumed[planned.hash] = prior
            progress_track.skip()
            continue
        key = point.trace_key()
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(planned)
    return [groups[k] for k in order], resumed


def run_sweep(spec: SweepSpec,
              jobs: Optional[int] = None,
              store_path: Optional[str] = None,
              resume: bool = False,
              progress: Optional[ProgressFn] = None,
              base: Optional[MachineParams] = None,
              bounds_fn=None) -> SweepResult:
    """Execute a sweep spec and return every row (stored + computed).

    ``jobs`` (default ``$REPRO_JOBS`` or 1) shards dataset groups over
    the :class:`~repro.dse.executor.Executor`; results are row-identical
    to a serial run, and a group whose worker dies or times out becomes
    ``failed`` rows. With ``store_path``, every completed row is durably
    appended to a sqlite store as it arrives (a corrupt store file is
    quarantined and reported through ``progress``); with
    ``resume=True`` as well, points already stored ``ok`` are skipped
    and failed rows are retried. ``base`` overrides the
    spec's named base machine with an explicit
    :class:`~repro.params.MachineParams` (the experiment modules pass
    their fixture machine through this). With ``spec.prune`` set, an
    AN-C pre-pass skips design points whose static lower bounds are
    dominated by already-stored measurements, recording each skipped
    point as an explicit ``pruned`` row; ``bounds_fn`` overrides the
    static cost model (tests inject synthetic bounds here).
    """
    base = base if base is not None else spec.base_machine()
    jobs = resolve_jobs(jobs)
    store = open_result_store(store_path)
    if progress is not None and store is not None and store.quarantined:
        progress(f"warning: corrupt store quarantined to "
                 f"{store.quarantined}")
    stored = store.load() if (store is not None and resume) else {}

    points = spec.points()
    track = SweepProgress(total=len(points))
    groups, resumed = _group_points(spec, base, stored, track)
    result = SweepResult(spec=spec, rows=dict(resumed),
                         store_path=store_path, skipped=len(resumed))
    if progress is not None and resume and store is not None:
        # say exactly how much stored work the resume saved, even when
        # that is nothing (an empty or fully-stale store is worth
        # knowing about)
        stored_ok = sum(1 for r in stored.values()
                        if r.get("status") == "ok")
        progress(track.line(
            f"{spec.name}: resume from {store_path} skipped "
            f"{len(resumed)} of {stored_ok} stored-ok hashes "
            f"({len(stored)} stored rows)"
        ))

    prune_plan = None
    if spec.prune:
        from .prune import plan_pruning, static_bounds_fn

        pending = [(p.hash, p.point) for group in groups for p in group]
        prune_plan = plan_pruning(
            spec, pending, list(resumed.values()),
            bounds_fn or static_bounds_fn(spec, base),
        )

    def record(row: Dict[str, object]) -> None:
        if (prune_plan is not None and row["status"] == "ok"
                and row["hash"] in prune_plan.bounds):
            row["bounds"] = {
                m: list(pair)
                for m, pair in prune_plan.bounds[row["hash"]].items()
            }
        result.rows[row["hash"]] = row
        if store is not None:
            store.append(row)
        track.complete(failed=row["status"] == "failed")

    if prune_plan is not None and prune_plan.pruned:
        # emit an explicit row per skipped point, then drop it from the
        # work list; empty groups disappear entirely
        for design, dominator in sorted(prune_plan.pruned_designs.items()):
            if progress is not None:
                progress(track.line(
                    f"{spec.name}: pruned {design} "
                    f"(dominated by {dominator})"
                ))
        kept_groups = []
        for group in groups:
            kept = []
            for planned in group:
                hash_ = planned.hash
                if hash_ in prune_plan.pruned:
                    row = point_row(planned, "pruned", attempts=0)
                    row["bounds"] = {
                        m: list(pair) for m, pair in
                        prune_plan.bounds[hash_].items()
                    }
                    row["pruned_by"] = prune_plan.pruned[hash_]
                    record(row)
                else:
                    kept.append(planned)
            if kept:
                kept_groups.append(kept)
        groups = kept_groups

    try:
        if jobs > 1 and len(groups) > 1:
            with Executor(min(jobs, len(groups))) as executor:
                futures = {
                    executor.submit(_sweep_worker, group): group
                    for group in groups
                }
                for future in as_completed(futures):
                    group = futures[future]
                    rows = future.result()
                    if isinstance(rows, GroupFailed):
                        rows = failed_rows_for_group(
                            group, rows.error, rows.attempts)
                    for row in rows:
                        record(row)
                    if progress is not None:
                        progress(track.line(
                            f"{spec.name}: {group[0].point.workload} "
                            f"group done"
                        ))
        else:
            cache = TraceCache(max_entries=1)
            for group in groups:
                for row in _run_group(group, cache):
                    record(row)
                    if progress is not None:
                        p = row["point"]
                        progress(track.line(
                            f"{spec.name}: {p['workload']} x "
                            f"{p['config']}"
                        ))
    finally:
        if store is not None:
            store.close()
    return result
