"""Each dataset's functional work happens once.

A trace-cache hit replays the cached per-dataset artifact: it builds no
workload instance, runs no NumPy reference and copies no arrays. Only
the cell that interprets a dataset builds and validates it, and every
cell still equals an uncached simulation of a fresh instance.
"""

import pytest

from repro.dse import SweepSpec, run_sweep
from repro.dse.scheduler import point_metrics
from repro.experiments.runner import ResultMatrix, _matrix_worker
from repro.obs import OBS
from repro.params import experiment_machine
from repro.sim import simulate_workload
from repro.workloads import ALL_WORKLOADS
from repro.workloads.base import WorkloadInstance


def run_sig(run):
    return (
        run.workload, run.config, run.time_ps, run.insts, run.mem_ops,
        run.energy_nj, run.movement_bytes, run.mmio_bytes,
        run.accel_iterations, run.validated, run.traffic_breakdown,
        run.cache_stats,
    )


@pytest.fixture
def counted(monkeypatch):
    """Count ``Workload.build`` per workload and ``validate`` calls."""
    counts = {"build": {}, "validate": 0}
    for short, workload in ALL_WORKLOADS.items():
        real_build = workload.build

        def build(*args, _short=short, _real=real_build, **kwargs):
            counts["build"][_short] = counts["build"].get(_short, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(workload, "build", build)
    real_validate = WorkloadInstance.validate

    def validate(self):
        counts["validate"] += 1
        return real_validate(self)

    monkeypatch.setattr(WorkloadInstance, "validate", validate)
    return counts


@pytest.fixture(scope="module")
def machine():
    return experiment_machine()


def uncached(workload, config, machine, **kwargs):
    return simulate_workload(
        ALL_WORKLOADS[workload].build("tiny", **kwargs), config,
        machine=machine,
    )


WORKLOADS = ("fdt", "bfs", "pch")
CONFIGS = ("ooo", "mono_da_io", "dist_da_f")


class TestMatrix:
    def test_one_build_and_validation_per_dataset(self, counted, machine):
        matrix = ResultMatrix(scale="tiny", machine=machine,
                              workloads=WORKLOADS, configs=CONFIGS)
        matrix.run_all(jobs=1)
        assert counted["build"] == {w: 1 for w in WORKLOADS}
        assert counted["validate"] == len(WORKLOADS)
        assert matrix.trace_cache.misses == len(WORKLOADS)
        assert matrix.trace_cache.hits == len(WORKLOADS) * (
            len(CONFIGS) - 1)
        for (w, c), run in matrix.results.items():
            assert run.validated
            assert run_sig(run) == run_sig(uncached(w, c, machine)), (w, c)

    def test_pool_worker_builds_once(self, counted, machine):
        """The executor unit populates a one-workload matrix: same cells
        and one cell record per config, one build."""
        OBS.reset()
        cells, cov, wall = _matrix_worker(
            ("bfs", CONFIGS, "tiny", machine)
        )
        assert counted["build"] == {"bfs": 1}
        assert counted["validate"] == 1
        assert [c for c, _ in cells] == list(CONFIGS)
        assert [(s.workload, s.config) for s in OBS.cells] == [
            ("bfs", c) for c in CONFIGS
        ]
        assert wall > 0
        assert cov.used()
        for config, run in cells:
            assert run_sig(run) == run_sig(uncached("bfs", config, machine))


class TestSweep:
    def test_one_build_and_validation_per_dataset(self, counted):
        spec = SweepSpec(
            name="once", workloads=("fdt",),
            configs=("ooo", "dist_da_f"), scale="tiny", base="experiment",
            machine_axes={"accel_freq_ghz": (1.0, 2.0)},
            workload_axes={"n": (10,)},
        )
        result = run_sweep(spec, jobs=1)
        assert len(result.ok_rows()) == 4 and not result.failed_rows()
        assert counted["build"] == {"fdt": 1}
        assert counted["validate"] == 1
        base = spec.base_machine()
        for point in spec.points():
            run = uncached(point.workload, point.config,
                           point.machine(base), n=10)
            row = result.rows[point.content_hash(base)]
            assert row["metrics"] == point_metrics(run), point
            assert row["metrics"]["validated"]
