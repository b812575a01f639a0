"""Job lifecycle and point bookkeeping for the sweep service.

A *job* is one submitted request — a whole sweep spec or a single-cell
query — expanded to content-hashed sweep points. The manager resolves
every point one of three ways, counted per job:

* **cached** — the store already holds an ``ok`` row for the hash; the
  point contributes no work (``serve.cache_hits``);
* **deduplicated** — another job is already computing the identical
  hash; this job subscribes to the in-flight point instead of enqueueing
  a duplicate (``serve.dedup_inflight``);
* **scheduled** — genuinely new; grouped by functional trace key and
  submitted to the :class:`~repro.serve.workers.WorkerPool`
  (``serve.cache_misses`` counts both this and the dedup case — a miss
  is "the store did not answer").

Job states follow :data:`repro.serve.protocol.JOB_STATES`:
``queued`` -> ``running`` (first group dequeued) -> ``done`` /
``failed`` (any point row ``failed``). Completed rows are appended to
the store *before* subscribers are notified, so a job observed ``done``
always has every row durably stored. The service keeps metadata for the
last :data:`MAX_JOBS` finished jobs; rows live in the store, which is
the durable artifact.

Every row the service stores is produced by the same
``dse.scheduler._run_point`` code path a batch ``run_sweep`` uses, so
service rows are byte-identical to batch rows for the same spec (pinned
by ``tests/serve/test_server.py`` and the CI smoke).
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from time import monotonic
from typing import Dict, List, Optional, Set, Tuple

from ..errors import ConfigError
from ..obs import OBS
from ..dse.spec import PlannedPoint, SweepPoint, SweepSpec
from ..dse.store import SqliteResultStore
from .workers import Group, WorkerPool

#: finished-job metadata kept before the oldest is dropped
MAX_JOBS = 1000


@dataclass
class Job:
    """Metadata for one submitted request (not the rows themselves)."""

    id: str
    #: "sweep" | "query"
    kind: str
    name: str
    state: str = "queued"
    #: every point hash the job covers, in expansion order
    hashes: List[str] = field(default_factory=list)
    #: hashes still without a row
    pending: Set[str] = field(default_factory=set)
    cached: int = 0
    deduped: int = 0
    failed_points: List[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.hashes)

    def as_dict(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "kind": self.kind,
            "name": self.name,
            "state": self.state,
            "points": {
                "total": self.total,
                "cached": self.cached,
                "deduped": self.deduped,
                "pending": len(self.pending),
                "failed": len(self.failed_points),
            },
            "failed_hashes": list(self.failed_points),
        }


class JobManager:
    """Owns jobs, the in-flight point index, and the result store."""

    def __init__(self, store: SqliteResultStore, pool: WorkerPool):
        self._store = store
        self._pool = pool
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        #: point hash -> job ids subscribed to its completion
        self._inflight: Dict[str, Set[str]] = {}
        self._jobs: Dict[str, Job] = {}
        self._ids = itertools.count(1)
        self._started_at = monotonic()

    # -- submission ----------------------------------------------------
    def submit_spec(self, spec: SweepSpec) -> Job:
        """Expand, dedup and enqueue a sweep; returns the new job."""
        base = spec.base_machine()
        return self._admit("sweep", spec.name,
                           [p.plan(base) for p in spec.points()])

    def submit_point(self, point: SweepPoint, base_name: str) -> Tuple[
            Job, Optional[Dict[str, object]]]:
        """Single-cell query. Returns ``(job, row)``; ``row`` is the
        stored answer when it was a pure cache hit (job born done)."""
        from ..params import base_machine

        planned = point.plan(base_machine(base_name))
        job = self._admit("query", f"{point.workload}/{point.config}",
                          [planned])
        row = self._store_get(planned.hash) if job.cached else None
        return job, row

    def _admit(self, kind: str, name: str,
               planned_points: List[PlannedPoint]) -> Job:
        groups: Dict[Tuple[str, str], Group] = {}
        order: List[Tuple[str, str]] = []
        with self._lock:
            job = Job(id=f"job-{next(self._ids)}", kind=kind, name=name)
            for planned in planned_points:
                hash_ = planned.hash
                job.hashes.append(hash_)
                row = self._store_get(hash_)
                if row is not None and row.get("status") == "ok":
                    job.cached += 1
                    OBS.inc("serve.cache_hits")
                    continue
                OBS.inc("serve.cache_misses")
                job.pending.add(hash_)
                if hash_ in self._inflight:
                    self._inflight[hash_].add(job.id)
                    job.deduped += 1
                    OBS.inc("serve.dedup_inflight")
                    continue
                self._inflight[hash_] = {job.id}
                key = planned.point.trace_key()
                if key not in groups:
                    groups[key] = []
                    order.append(key)
                groups[key].append(planned)
            if not job.pending:
                job.state = "done"
            self._jobs[job.id] = job
            self._trim_jobs_locked()
        # enqueue outside the lock: the pool's callbacks take it back
        for key in order:
            self._pool.submit(groups[key],
                              on_rows=self._on_rows,
                              on_start=self._on_start)
        return job

    # -- pool callbacks ------------------------------------------------
    def _on_start(self, group: Group) -> None:
        with self._lock:
            for planned in group:
                for job_id in self._inflight.get(planned.hash, ()):
                    job = self._jobs.get(job_id)
                    if job is not None and job.state == "queued":
                        job.state = "running"

    def _on_rows(self, rows: List[Dict[str, object]]) -> None:
        with self._cond:
            for row in rows:
                self._store.append(row)
                failed = row.get("status") == "failed"
                OBS.inc("serve.points_failed" if failed
                        else "serve.points_done")
                hash_ = row["hash"]
                for job_id in self._inflight.pop(hash_, ()):
                    job = self._jobs.get(job_id)
                    if job is None:
                        continue
                    job.pending.discard(hash_)
                    if failed:
                        job.failed_points.append(hash_)
                    if not job.pending:
                        job.state = ("failed" if job.failed_points
                                     else "done")
            self._cond.notify_all()

    # -- queries -------------------------------------------------------
    def _store_get(self, hash_: str):
        return self._store.get(hash_)

    def job(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def job_rows(self, job_id: str) -> List[Dict[str, object]]:
        """Rows the job's points have produced so far, expansion order."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise ConfigError(f"unknown job {job_id!r}")
            hashes = list(job.hashes)
        rows = []
        for hash_ in hashes:
            row = self._store_get(hash_)
            if row is not None:
                rows.append(row)
        return rows

    def result(self, hash_: str) -> Optional[Dict[str, object]]:
        return self._store_get(hash_)

    def wait_for_job(self, job_id: str, timeout_s: float) -> Optional[Job]:
        deadline = monotonic() + timeout_s
        with self._cond:
            while True:
                job = self._jobs.get(job_id)
                if job is None or job.state in ("done", "failed"):
                    return job
                remaining = deadline - monotonic()
                if remaining <= 0:
                    return job
                self._cond.wait(remaining)

    # -- stats ---------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        with self._lock:
            by_state: Dict[str, int] = {}
            for job in self._jobs.values():
                by_state[job.state] = by_state.get(job.state, 0) + 1
            inflight = len(self._inflight)
        hits = OBS.counter("serve.cache_hits")
        misses = OBS.counter("serve.cache_misses")
        done = OBS.counter("serve.points_done")
        uptime = monotonic() - self._started_at
        latency = OBS.timers.get("serve.queue_latency", [0.0, 0])
        return {
            "uptime_s": uptime,
            "jobs": by_state,
            "inflight_points": inflight,
            "queue_depth": self._pool.depth,
            "queue_depth_max": int(
                OBS.maxima.get("serve.queue_depth", 0)),
            "cache_hits": int(hits),
            "cache_misses": int(misses),
            "hit_ratio": (hits / (hits + misses)
                          if hits + misses else None),
            "dedup_inflight": int(OBS.counter("serve.dedup_inflight")),
            "points_done": int(done),
            "points_failed": int(OBS.counter("serve.points_failed")),
            "points_per_s": (done / uptime) if uptime > 0 else 0.0,
            "queue_latency_mean_ms": (
                1e3 * latency[0] / latency[1] if latency[1] else None),
            "store_rows": self._store.count(),
        }

    # -- internals -----------------------------------------------------
    def _trim_jobs_locked(self) -> None:
        if len(self._jobs) <= MAX_JOBS:
            return
        for job_id in list(self._jobs):
            job = self._jobs[job_id]
            if job.state in ("done", "failed"):
                del self._jobs[job_id]
            if len(self._jobs) <= MAX_JOBS:
                return


__all__ = ["Job", "JobManager", "MAX_JOBS"]
