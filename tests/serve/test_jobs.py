"""JobManager: lifecycle states, store-backed caching, in-flight dedup.

The dedup invariant under test: two jobs submitted concurrently for the
*identical* point hash must execute it once — the second job subscribes
to the in-flight point (``deduped``) and both jobs complete when the one
execution lands. A gated runner holds the point in flight for as long
as the test needs.
"""

import threading
import time

import pytest

from repro.params import base_machine
from repro.dse.spec import STORE_VERSION, SweepPoint
from repro.dse.store import SqliteResultStore
from repro.errors import ConfigError
from repro.serve.jobs import JobManager
from repro.serve.workers import WorkerPool

BASE = base_machine("experiment")
POINT = SweepPoint(workload="fdt", config="dist_da_f", scale="tiny")
HASH = POINT.content_hash(BASE)


def ok_rows(group):
    return [{"hash": p.hash, "version": STORE_VERSION, "status": "ok",
             "point": p.point.as_dict(), "metrics": {}, "error": None,
             "attempts": 1} for p in group]


@pytest.fixture
def store(tmp_path):
    with SqliteResultStore(str(tmp_path / "jobs.sqlite")) as s:
        yield s


def gated_manager(store, gate):
    """Manager whose runner blocks on ``gate`` before returning rows."""

    def runner(group):
        assert gate.wait(timeout=30.0)
        return ok_rows(group)

    pool = WorkerPool(workers=2, processes=False, runner=runner)
    return JobManager(store, pool), pool


class TestLifecycle:
    def test_queued_running_done(self, store):
        gate = threading.Event()
        manager, pool = gated_manager(store, gate)
        try:
            job, row = manager.submit_point(POINT, "experiment")
            assert row is None
            assert job.state in ("queued", "running")

            deadline = time.monotonic() + 10.0
            while (manager.job(job.id).state != "running"
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert manager.job(job.id).state == "running"

            gate.set()
            done = manager.wait_for_job(job.id, timeout_s=10.0)
            assert done.state == "done"
            assert not done.pending and not done.failed_points
            assert store.get(HASH)["status"] == "ok"
        finally:
            pool.close()

    def test_failed_runner_fails_the_job(self, store):
        def broken(group):
            raise RuntimeError("dead dataset")

        pool = WorkerPool(workers=1, processes=False, runner=broken)
        manager = JobManager(store, pool)
        try:
            job, _ = manager.submit_point(POINT, "experiment")
            done = manager.wait_for_job(job.id, timeout_s=10.0)
            assert done.state == "failed"
            assert done.failed_points == [HASH]
            assert store.get(HASH)["status"] == "failed"
        finally:
            pool.close()

    def test_unknown_job_rows_raise(self, store):
        pool = WorkerPool(workers=1, processes=False, runner=ok_rows)
        manager = JobManager(store, pool)
        try:
            with pytest.raises(ConfigError):
                manager.job_rows("job-nope")
        finally:
            pool.close()


class TestDedupAndCache:
    def test_concurrent_identical_point_executes_once(self, store):
        gate = threading.Event()
        executions = []
        orig_rows = ok_rows

        def counting_runner(group):
            executions.append(1)
            assert gate.wait(timeout=30.0)
            return orig_rows(group)

        pool = WorkerPool(workers=2, processes=False,
                          runner=counting_runner)
        manager = JobManager(store, pool)
        try:
            first, _ = manager.submit_point(POINT, "experiment")
            second, _ = manager.submit_point(POINT, "experiment")
            assert second.deduped == 1  # subscribed, not re-enqueued
            gate.set()
            assert manager.wait_for_job(first.id, 10.0).state == "done"
            assert manager.wait_for_job(second.id, 10.0).state == "done"
            assert len(executions) == 1
            assert store.count() == 1
        finally:
            pool.close()

    def test_stored_ok_row_is_a_cache_hit(self, store):
        gate = threading.Event()
        gate.set()
        manager, pool = gated_manager(store, gate)
        try:
            job, _ = manager.submit_point(POINT, "experiment")
            assert manager.wait_for_job(job.id, 10.0).state == "done"

            again, row = manager.submit_point(POINT, "experiment")
            assert again.state == "done"  # born done, no queue trip
            assert again.cached == 1
            assert row is not None and row["status"] == "ok"
            assert manager.job_rows(again.id) == [row]
        finally:
            pool.close()

    def test_stored_failed_row_is_not_a_hit(self, store):
        store.append({"hash": HASH, "version": STORE_VERSION,
                      "status": "failed", "point": POINT.as_dict(),
                      "metrics": None, "error": "E: old", "attempts": 1})
        gate = threading.Event()
        gate.set()
        manager, pool = gated_manager(store, gate)
        try:
            job, row = manager.submit_point(POINT, "experiment")
            assert row is None and job.cached == 0  # failed -> recompute
            done = manager.wait_for_job(job.id, 10.0)
            assert done.state == "done"
            assert store.get(HASH)["status"] == "ok"
        finally:
            pool.close()
