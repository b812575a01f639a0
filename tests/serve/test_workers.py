"""WorkerPool: execution, timeouts, synthesized failed rows.

The pool runs on the executor's containment ladder (see
``repro.dse.executor``): a group whose runner raises or times out fails
at once, and the pool synthesizes a ``failed`` row per point so the
submitting job completes instead of wedging. Also pins
``REPRO_SERVE_TIMEOUT_S`` (referenced by the README env table).

Injected runners run the pool inline (``processes=False``) so the tests
are fork-free and deterministic; the timeout test uses worker processes
because ``timeout_s`` is enforced on a process-pool future.
"""

import threading
import time

import pytest

from repro.params import base_machine
from repro.dse.spec import STORE_VERSION, SweepPoint
from repro.serve.config import ServeConfig
from repro.dse.scheduler import failed_rows_for_group
from repro.serve.workers import WorkerPool

BASE = base_machine("experiment")
POINT = SweepPoint(workload="fdt", config="dist_da_f", scale="tiny")
HASH = POINT.content_hash(BASE)
GROUP = [POINT.plan(BASE)]


def ok_rows(group):
    return [{"hash": p.hash, "version": STORE_VERSION, "status": "ok",
             "point": p.point.as_dict(), "metrics": {}, "error": None,
             "attempts": 1} for p in group]


def collect():
    """(rows_sink, event) pair for the pool's completion callback."""
    done = threading.Event()
    sink = []

    def on_rows(rows):
        sink.extend(rows)
        done.set()

    return sink, done, on_rows


def _sleep_runner(group):
    # module-level so a ProcessPoolExecutor can pickle it
    time.sleep(2.0)
    return ok_rows(group)


class TestExecution:
    def test_success_rows_and_start_callback(self):
        sink, done, on_rows = collect()
        started = []
        pool = WorkerPool(workers=1, processes=False,
                          runner=ok_rows)
        try:
            pool.submit(GROUP, on_rows=on_rows,
                        on_start=started.append)
            assert done.wait(10.0)
        finally:
            pool.close()
        assert started == [GROUP]
        assert [r["hash"] for r in sink] == [HASH]
        assert sink[0]["status"] == "ok"

    def test_depth_drains_to_zero(self):
        sink, done, on_rows = collect()
        pool = WorkerPool(workers=1, processes=False,
                          runner=ok_rows)
        try:
            pool.submit(GROUP, on_rows=on_rows)
            assert done.wait(10.0)
            deadline = time.monotonic() + 5.0
            while pool.depth and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pool.depth == 0
        finally:
            pool.close()

    def test_closed_pool_rejects_submission(self):
        pool = WorkerPool(workers=1, processes=False,
                          runner=ok_rows)
        pool.close()
        with pytest.raises(RuntimeError):
            pool.submit(GROUP, on_rows=lambda rows: None)


class TestRetries:
    def test_give_up_synthesizes_failed_rows(self):
        def always_broken(group):
            raise ValueError("boom")

        sink, done, on_rows = collect()
        pool = WorkerPool(workers=1, processes=False,
                          runner=always_broken)
        try:
            pool.submit(GROUP, on_rows=on_rows)
            assert done.wait(10.0)
        finally:
            pool.close()
        (row,) = sink
        assert row["status"] == "failed"
        assert row["hash"] == HASH
        assert "ValueError: boom" in row["error"]
        assert row["attempts"] == 1  # deterministic: never retried

    def test_failed_row_schema_matches_store_rows(self):
        (row,) = failed_rows_for_group(GROUP, "T: x", attempts=3)
        assert row["version"] == STORE_VERSION
        assert row["point"] == POINT.as_dict()
        assert row["metrics"] is None
        assert row["attempts"] == 3
        assert "machine_digest" in row


class TestTimeout:
    def test_timed_out_group_becomes_failed_rows(self):
        sink, done, on_rows = collect()
        pool = WorkerPool(workers=1, processes=True, timeout_s=0.2,
                          runner=_sleep_runner)
        try:
            pool.submit(GROUP, on_rows=on_rows)
            assert done.wait(30.0)
        finally:
            pool.close(wait=False)
        (row,) = sink
        assert row["status"] == "failed"
        assert "TimeoutError" in row["error"]

    def test_timeout_env_var_pinned(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_TIMEOUT_S", "12")
        assert ServeConfig.from_env().timeout_s == 12.0
