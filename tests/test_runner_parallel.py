"""Parallel matrix population must be cell-for-cell identical to serial,
and a worker that dies under one workload must not lose the others."""

import os
import signal

import pytest

from repro.dse.executor import resolve_jobs
from repro.errors import ReproError
from repro.experiments import runner
from repro.experiments.runner import ResultMatrix, run_matrix

# a deliberately tiny 2x2 slice so the process pool spins up fast
WORKLOADS = ("cho", "nw")
CONFIGS = ("ooo", "dist_da_io")


def cell_sig(run):
    return (
        run.workload, run.config, run.time_ps, run.insts, run.mem_ops,
        run.energy_nj, run.movement_bytes, run.mmio_bytes,
        run.accel_iterations, run.validated, run.traffic_breakdown,
        run.cache_stats,
    )


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs(None) == 4

    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_floor_at_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-3) == 1


class TestParallelEquality:
    @pytest.fixture(scope="class")
    def serial(self):
        return run_matrix(scale="tiny", workloads=WORKLOADS,
                          configs=CONFIGS, jobs=1)

    @pytest.fixture(scope="class")
    def parallel(self):
        return run_matrix(scale="tiny", workloads=WORKLOADS,
                          configs=CONFIGS, jobs=2)

    def test_same_cells_present(self, serial, parallel):
        assert set(serial.results) == set(parallel.results) == {
            (w, c) for w in WORKLOADS for c in CONFIGS
        }

    def test_cells_identical(self, serial, parallel):
        for key in serial.results:
            assert cell_sig(serial.results[key]) == cell_sig(
                parallel.results[key]
            ), key

    def test_all_validated(self, parallel):
        assert parallel.all_validated()

    def test_progress_lines_emitted(self):
        lines = []
        run_matrix(scale="tiny", workloads=("cho",), configs=CONFIGS,
                   jobs=1, progress=lines.append)
        assert len(lines) == len(CONFIGS)
        assert all("cho" in line for line in lines)


class TestWorkerCrash:
    def test_dead_workload_is_named_and_the_others_kept(
            self, monkeypatch):
        serial = run_matrix(scale="tiny", workloads=WORKLOADS,
                            configs=CONFIGS, jobs=1)
        real_simulate = runner.simulate_dataset

        def simulate(workload, *args, **kwargs):
            if workload == "nw":
                os.kill(os.getpid(), signal.SIGKILL)
            return real_simulate(workload, *args, **kwargs)

        # the executor's pool forks, so the patch reaches its workers:
        # nw kills its worker on every attempt
        monkeypatch.setattr(runner, "simulate_dataset", simulate)
        matrix = ResultMatrix(scale="tiny", workloads=WORKLOADS,
                              configs=CONFIGS)
        with pytest.raises(ReproError, match="nw .*BrokenProcessPool"):
            matrix.run_all(jobs=2)
        assert set(matrix.results) == {("cho", c) for c in CONFIGS}
        for key, run in matrix.results.items():
            assert cell_sig(run) == cell_sig(serial.results[key]), key


class TestLazyMatrix:
    def test_get_populates_and_reuses(self):
        matrix = ResultMatrix(scale="tiny", workloads=WORKLOADS,
                              configs=CONFIGS)
        first = matrix.get("cho", "ooo")
        assert matrix.get("cho", "ooo") is first
        # the shared trace cache has the workload's functional trace
        assert matrix.trace_cache.peak_trace_elems("cho", "tiny") > 0
