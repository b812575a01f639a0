"""Sweep determinism: serial == parallel, resume-after-kill == uninterrupted.

Rows carry no wall-clock fields, so the same spec must produce
byte-identical rows (modulo order) however it is executed: serially,
sharded over worker processes (``jobs``/``$REPRO_JOBS``), resumed from a
store that lost rows to a mid-sweep kill, or resumed after a worker
process died under one dataset group.
"""

import os
import shutil
import signal
import sqlite3
from contextlib import closing

import pytest

from repro.dse import SweepSpec, run_sweep, scheduler
from repro.dse.store import SqliteResultStore, row_text, store_digest


def sweep_spec():
    # 2 datasets (n=8, 10) x 2 clocks x 1 config = 4 points, 2 trace
    # groups — enough for the process-pool path to engage
    return SweepSpec(
        name="det", workloads=("fdt",), configs=("dist_da_f",),
        scale="tiny", base="experiment",
        machine_axes={"accel_freq_ghz": (1.0, 2.0)},
        workload_axes={"n": (8, 10), "timesteps": (1,)},
    )


def canonical(result):
    """hash -> canonical row text, the byte-identity comparison key."""
    return {h: row_text(r) for h, r in result.rows.items()}


def digest(path):
    with SqliteResultStore(path) as store:
        return store_digest(store)


@pytest.fixture(scope="module")
def serial_store(tmp_path_factory):
    """One uninterrupted serial run, with its store file."""
    path = str(tmp_path_factory.mktemp("dse") / "serial.sqlite")
    result = run_sweep(sweep_spec(), jobs=1, store_path=path)
    assert len(result.ok_rows()) == 4 and not result.failed_rows()
    return result, path


class TestParallelDeterminism:
    def test_jobs_rows_identical_to_serial(self, serial_store):
        serial, _ = serial_store
        parallel = run_sweep(sweep_spec(), jobs=4)
        assert canonical(parallel) == canonical(serial)

    def test_env_jobs_pinned(self, serial_store, monkeypatch):
        """$REPRO_JOBS is the default when jobs is not given."""
        serial, _ = serial_store
        monkeypatch.setenv("REPRO_JOBS", "4")
        parallel = run_sweep(sweep_spec())
        assert canonical(parallel) == canonical(serial)


class TestResume:
    def test_resume_after_kill_matches_uninterrupted(self, serial_store,
                                                     tmp_path):
        serial, serial_path = serial_store
        # simulate a kill after 2 committed rows
        killed = str(tmp_path / "killed.sqlite")
        shutil.copyfile(serial_path, killed)
        with closing(sqlite3.connect(killed)) as conn:
            conn.execute("DELETE FROM rows WHERE seq > 2")
            conn.commit()
        resumed = run_sweep(sweep_spec(), jobs=1, store_path=killed,
                            resume=True)
        assert resumed.skipped == 2
        assert canonical(resumed) == canonical(serial)
        # the store converges to the same row set too
        assert digest(killed) == digest(serial_path)

    def test_resume_of_complete_store_runs_nothing(self, serial_store):
        serial, serial_path = serial_store
        resumed = run_sweep(sweep_spec(), jobs=1, store_path=serial_path,
                            resume=True)
        assert resumed.skipped == 4
        assert canonical(resumed) == canonical(serial)


class TestFailurePolicy:
    def test_failed_point_recorded_not_fatal(self, tmp_path):
        # fdt's build() has no 'bogus' kwarg: the point fails, once
        # (a deterministic error is not retried), and must land as a
        # failed row, not an exception
        spec = SweepSpec(
            name="boom", workloads=("fdt",), configs=("dist_da_f",),
            scale="tiny", base="experiment",
            workload_axes={"bogus": (1,)},
        )
        path = str(tmp_path / "boom.sqlite")
        result = run_sweep(spec, jobs=1, store_path=path)
        [row] = result.failed_rows()
        assert row["attempts"] == 1
        assert "TypeError" in row["error"]
        assert not result.ok_rows()
        # failed rows are durably stored and retried on resume
        with SqliteResultStore(path) as store:
            stored = store.load()
        assert [r["status"] for r in stored.values()] == ["failed"]
        again = run_sweep(spec, jobs=1, store_path=path, resume=True)
        assert again.skipped == 0 and len(again.failed_rows()) == 1


class TestWorkerCrash:
    def test_killed_group_fails_alone_and_resume_converges(
            self, serial_store, tmp_path, monkeypatch):
        serial, serial_path = serial_store
        real_run_group = scheduler._run_group

        def run_group(group, cache):
            if dict(group[0].point.workload_kwargs)["n"] == 10:
                os.kill(os.getpid(), signal.SIGKILL)
            return real_run_group(group, cache)

        # the executor's pool forks, so the patch reaches its workers:
        # the n=10 group kills its worker on every attempt
        monkeypatch.setattr(scheduler, "_run_group", run_group)
        path = str(tmp_path / "crash.sqlite")
        crashed = run_sweep(sweep_spec(), jobs=2, store_path=path)
        failed = crashed.failed_rows()
        assert len(failed) == 2
        for row in failed:
            assert row["point"]["workload_kwargs"]["n"] == 10
            assert "BrokenProcessPool" in row["error"]
            assert row["attempts"] == 2
        expected = canonical(serial)
        ok = crashed.ok_rows()
        assert len(ok) == 2
        assert all(row_text(r) == expected[r["hash"]] for r in ok)

        monkeypatch.undo()
        resumed = run_sweep(sweep_spec(), jobs=2, store_path=path,
                            resume=True)
        assert resumed.skipped == 2
        assert canonical(resumed) == expected
        assert digest(path) == digest(serial_path)
