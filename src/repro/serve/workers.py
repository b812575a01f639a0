"""The service's worker pool: dataset groups of jobs on the executor.

The unit of work is the same one ``repro.dse.scheduler`` shards: a
*dataset group* — every pending point that shares a functional trace key
— so the golden interpretation runs once per dataset and every machine
point in the group replays it. Each group runs on the one
:class:`~repro.dse.executor.Executor` (``processes=True``, the default:
real parallelism, crash isolation) or on its threads
(``processes=False``: fork-free; tests and the storm bench use it).

Failure containment is the executor's ladder: a point that raises is a
``failed`` row after one attempt (``dse.scheduler._run_point``); a group
whose worker process dies is retried once in a fresh process; a group
that raises, times out (``timeout_s``) or dies twice gets a synthesized
``failed`` row per point, so the job completes with recorded errors
instead of wedging the service. A timed-out group's worker process may
keep computing until its group ends, so ``timeout_s`` bounds how long a
*job* can stall, not peak pool occupancy.

Observability (``repro.obs``): ``serve.queue_depth`` (max) and the
``serve.queue_latency`` timer here, plus the executor's ``executor.*``
counters.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional

from ..dse.executor import Executor, GroupFailed
from ..dse.scheduler import _sweep_worker, failed_rows_for_group
from ..dse.spec import PlannedPoint
from ..obs import OBS

#: one dataset's pending points, as the scheduler shards them
Group = List[PlannedPoint]

#: a runner maps a group to its rows — the
#: :func:`repro.dse.scheduler._sweep_worker` contract
Runner = Callable[[Group], List[Dict[str, object]]]


class WorkerPool:
    """Runs submitted dataset groups, ``workers`` at a time."""

    def __init__(self, workers: int = 2, processes: bool = True,
                 timeout_s: float = 0.0,
                 runner: Runner = _sweep_worker):
        self._executor = Executor(workers, processes=processes,
                                  timeout_s=timeout_s)
        self._runner = runner
        self._depth = 0
        self._lock = threading.Lock()
        self._closed = False

    def submit(self, group: Group,
               on_rows: Callable[[List[Dict[str, object]]], None],
               on_start: Optional[Callable[[Group], None]] = None
               ) -> None:
        """Run ``group``; ``on_start`` fires when it leaves the queue
        (jobs flip queued -> running), ``on_rows`` receives its rows."""
        if self._closed:
            raise RuntimeError("worker pool is closed")
        with self._lock:
            self._depth += 1
            OBS.observe_max("serve.queue_depth", self._depth)
        enqueued_at = perf_counter()

        def started() -> None:
            with self._lock:
                OBS.add_time("serve.queue_latency",
                             perf_counter() - enqueued_at)
            if on_start is not None:
                on_start(group)

        def finished(future) -> None:
            try:
                if future.cancelled():  # close(wait=False) dropped it
                    return
                rows = future.result()
                if isinstance(rows, GroupFailed):
                    rows = failed_rows_for_group(group, rows.error,
                                                 rows.attempts)
                on_rows(rows)
            finally:
                with self._lock:
                    self._depth -= 1

        self._executor.submit(self._runner, group,
                              on_start=started).add_done_callback(finished)

    @property
    def depth(self) -> int:
        """Groups submitted but not yet finished."""
        return self._depth

    def close(self, wait: bool = True) -> None:
        """Stop taking groups; optionally finish the queued ones first."""
        if self._closed:
            return
        self._closed = True
        self._executor.close(wait=wait)


__all__ = ["Group", "Runner", "WorkerPool"]
