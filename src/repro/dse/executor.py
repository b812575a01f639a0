"""The one process-pool executor: matrix workloads, sweep groups and
service jobs all fan out through it.

A *unit* is one picklable call ``fn(arg)``: a matrix workload
(:func:`repro.experiments.runner._matrix_worker`) or a sweep dataset
group (:func:`repro.dse.scheduler._sweep_worker`). :meth:`Executor.submit`
returns a :class:`~concurrent.futures.Future` that resolves to the
unit's return value, or to a :class:`GroupFailed` record; it never
raises for a failed unit. Each unit runs on one of ``workers``
supervisor threads, which hand it to the shared process pool, so a
unit's timeout counts from the moment it starts, not from submission.

Containment ladder:

* an exception or a timeout fails the unit at once (``attempts == 1``):
  the simulator is deterministic, so a second run would raise the same
  exception again. A timed-out worker process keeps computing until its
  unit ends, and its result is discarded;
* a worker process that dies (``BrokenProcessPool``: a segfault, the OOM
  killer, ``kill -9``) takes down every unit running in the pool with
  it, guilty or not. Each of those units is retried once in its own
  fresh single-worker process, and the shared pool is replaced once for
  later units;
* a unit that still fails resolves to ``GroupFailed(error, 2)``.

The executor owns the observability round trip: a worker process resets
the registry it inherited, runs the unit and ships a snapshot back,
which the parent merges once, only for the attempt that completed. With
``processes=False`` units run on the supervisor threads themselves,
report straight into the process-global registry, and have no timeout.

Counters (``repro.obs``): ``executor.units_retried``,
``executor.units_timeout`` and ``executor.units_failed``.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .. import envcfg
from ..obs import OBS


def resolve_jobs(jobs: Optional[int]) -> int:
    """CLI/env parallelism knob: explicit value, else $REPRO_JOBS, else 1.

    Serial is the default so tests and figure modules stay deterministic
    in ordering (results are identical either way, cell for cell).
    """
    if jobs is None:
        jobs = envcfg.default_jobs()
    return max(1, int(jobs))


@dataclass(frozen=True)
class GroupFailed:
    """What a unit resolves to when the containment ladder gives up."""

    #: ``"ExcType: message"`` of the last attempt
    error: str
    attempts: int


def _in_worker(fn: Callable[[Any], Any], arg: Any):
    """Run one unit in a worker process; ship its OBS records back."""
    OBS.reset()
    value = fn(arg)
    return value, OBS.snapshot()


class Executor:
    """``workers`` units at a time, each contained as the module says."""

    def __init__(self, workers: int, processes: bool = True,
                 timeout_s: float = 0.0):
        self.workers = max(1, int(workers))
        self.timeout_s = float(timeout_s)
        self._lock = threading.Lock()
        self._pool: Optional[ProcessPoolExecutor] = (
            ProcessPoolExecutor(max_workers=self.workers)
            if processes else None)
        self._supervisors = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="executor")

    def submit(self, fn: Callable[[Any], Any], arg: Any,
               on_start: Optional[Callable[[], None]] = None) -> Future:
        """Run ``fn(arg)``; ``on_start`` fires in this process when the
        unit leaves the queue."""
        return self._supervisors.submit(self._run, fn, arg, on_start)

    def _run(self, fn, arg, on_start):
        if on_start is not None:
            on_start()
        pool = self._pool
        try:
            return fn(arg) if pool is None else self._attempt(pool, fn, arg)
        except BrokenProcessPool:
            self._replace(pool)
        except Exception as exc:  # noqa: BLE001 — deterministic: no retry
            return self._failed(exc, 1)
        self._count("executor.units_retried")
        fresh = ProcessPoolExecutor(max_workers=1)
        try:
            return self._attempt(fresh, fn, arg)
        except Exception as exc:  # noqa: BLE001 — contained as a row
            return self._failed(exc, 2)
        finally:
            fresh.shutdown(wait=False, cancel_futures=True)

    def _attempt(self, pool: ProcessPoolExecutor, fn, arg):
        future = pool.submit(_in_worker, fn, arg)
        try:
            value, snapshot = future.result(self.timeout_s or None)
        except FutureTimeout:
            future.cancel()
            self._count("executor.units_timeout")
            raise TimeoutError(
                f"unit exceeded timeout_s={self.timeout_s:g}") from None
        with self._lock:
            OBS.merge(snapshot)
        return value

    def _replace(self, broken: ProcessPoolExecutor) -> None:
        """Swap in a fresh shared pool, once per broken one."""
        with self._lock:
            if self._pool is not broken:
                return
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        broken.shutdown(wait=False, cancel_futures=True)

    def _failed(self, exc: Exception, attempts: int) -> GroupFailed:
        self._count("executor.units_failed")
        return GroupFailed(f"{type(exc).__name__}: {exc}", attempts)

    def _count(self, name: str) -> None:
        with self._lock:
            OBS.inc(name)

    def close(self, wait: bool = True) -> None:
        """Stop taking units. ``wait=True`` finishes every submitted
        unit first; ``wait=False`` cancels the ones not yet started."""
        self._supervisors.shutdown(wait=wait, cancel_futures=not wait)
        with self._lock:
            pool = self._pool
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=True)

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = ["Executor", "GroupFailed", "resolve_jobs"]
