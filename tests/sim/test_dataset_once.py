"""Each dataset's functional work and compiles happen once.

A trace-cache hit replays the cached per-dataset artifact: it builds no
workload instance, runs no NumPy reference and copies no arrays. Only
the cell that interprets a dataset builds and validates it. Each kernel
is compiled once per dataset for each compile mode and stream-spec
flag, and the compile keeps the coverage it recorded. Every cell still
equals an uncached simulation of a fresh instance.
"""

import pickle
import re

import pytest

from repro.compiler import CompileMode
from repro.dse import SweepSpec, run_sweep
from repro.dse.scheduler import point_metrics
from repro.experiments import table5
from repro.experiments.__main__ import main as report_main
from repro.experiments.runner import ResultMatrix, _matrix_worker
from repro.interface.intrinsics import CoverageRecorder
from repro.obs import OBS
from repro.params import experiment_machine
from repro.sim import simulate_workload, system
from repro.sim.system import simulate_dataset
from repro.sim.tracecache import TraceCache, functional_key
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


@pytest.fixture
def compiles(monkeypatch):
    """Record each compile the system simulator runs as (kernel name,
    fingerprint, compile mode, stream-spec flag)."""
    calls = []
    real = system.compile_kernel

    def compile_kernel(kernel, mode, **kwargs):
        calls.append((kernel.name, kernel.fingerprint(), mode,
                      kwargs["disable_stream_spec"]))
        return real(kernel, mode, **kwargs)

    monkeypatch.setattr(system, "compile_kernel", compile_kernel)
    return calls


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
        cells, wall = _matrix_worker(
            ("bfs", CONFIGS, "tiny", machine)
        )
        assert counted["build"] == {"bfs": 1}
        assert counted["validate"] == 1
        assert [c for c, _ in cells] == list(CONFIGS)
        assert [(s.workload, s.config) for s in OBS.cells] == [
            ("bfs", c) for c in CONFIGS
        ]
        assert wall > 0
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


#: each tiny workload's Table V row (mnemonics in ``Intrinsic`` order,
#: "." where unused): the mechanisms its kernels' Dist-DA compiles use
TABLE5_ROWS = {
    "adi": "CC.CCCCC......C", "bfs": "CCCCCCC.CC..CCC",
    "cho": "CC.CCCCC......C", "dis": "CCCCCCCC.C..CCC",
    "fdt": "CC.CCCCC......C", "nw": "CC.CCCCC......C",
    "pca": "CC.CCCCC......C", "pch": "CCCCCCCC.C....C",
    "pf": "CCCCCCCC.C..CCC", "pr": "CCCCCCCCCC..CCC",
    "sei": "CC.CCCCC......C", "tra": "CC.CCCCC......C",
}


class TestCompileOnce:
    def test_sweep_compiles_each_kernel_once(self, compiles):
        """Two configurations of one compile mode on two clocks: the
        dataset's kernels are compiled once, for the first cell."""
        spec = SweepSpec(
            name="compile-once", workloads=("fdt",),
            configs=("dist_da_io", "dist_da_f"), scale="tiny",
            base="experiment", machine_axes={"accel_freq_ghz": (1.0, 2.0)},
        )
        result = run_sweep(spec, jobs=1)
        assert len(result.ok_rows()) == 4 and not result.failed_rows()
        assert compiles and len(compiles) == len(set(compiles))
        assert {mode for _, _, mode, _ in compiles} == {CompileMode.DIST}
        base = spec.base_machine()
        for point in spec.points():
            run = uncached(point.workload, point.config, point.machine(base))
            row = result.rows[point.content_hash(base)]
            assert row["metrics"] == point_metrics(run), point

    def test_matrix_compiles_each_kernel_once_per_mode(self, compiles,
                                                       machine):
        OBS.reset()
        matrix = ResultMatrix(scale="tiny", machine=machine)
        matrix.run_all(jobs=1)
        compiled = list(compiles)
        assert len(compiled) == len(set(compiled))
        assert {mode for _, _, mode, _ in compiled} == set(CompileMode)
        assert OBS.counter("compile.kernels") == len(compiled)
        # every other accelerator cell took a compile of its dataset
        assert OBS.counter("compile.reused") > 0
        for (w, c), run in matrix.results.items():
            assert run_sig(run) == run_sig(uncached(w, c, machine)), (w, c)

    def test_table5_rows(self):
        rows = table5.compute(scale="tiny")["rows"]
        assert {w: "".join(v or "." for v in rows[w].values())
                for w in TABLE5_ROWS} == TABLE5_ROWS

    def test_table5_row_is_what_the_cells_compiles_record(self, compiles,
                                                          machine):
        """Dist-DA cells of one dataset on one trace cache: the compiles
        they share record, together, the dataset's Table V row, and a
        table lookup through the memo compiles nothing again."""
        cache = TraceCache(max_entries=1)
        for config in ("dist_da_io", "dist_da_f"):
            simulate_dataset("bfs", "tiny", config, machine=machine,
                             trace_cache=cache)
        before = len(compiles)
        entry = system.functional_pass(
            lambda: ALL_WORKLOADS["bfs"].build("tiny"),
            cache, functional_key("bfs", "tiny"),
        )
        recorded = CoverageRecorder()
        for rec in entry.first_calls():
            recorded.merge(system.compiled_kernel(
                entry, rec, CompileMode.DIST).coverage)
        assert len(compiles) == before
        assert recorded.row() == table5.coverage_for_workload("bfs").row()
        assert "".join(v or "." for v in recorded.row().values()) == (
            TABLE5_ROWS["bfs"])

    def test_pickled_entry_carries_no_compiled_kernel(self, compiles,
                                                      machine):
        cache = TraceCache(max_entries=1)
        first = simulate_dataset("fdt", "tiny", "dist_da_f",
                                 machine=machine, trace_cache=cache)
        entry = cache.get(*functional_key("fdt", "tiny"))
        assert entry.compiled
        blob = pickle.dumps(entry)
        assert b"CompiledKernel" not in blob
        assert b"CompiledOffload" not in blob
        clone = pickle.loads(blob)
        assert clone.compiled == {}
        # an unpickled entry compiles again and replays the same cell
        before = len(compiles)
        cache.put(clone)
        again = simulate_dataset("fdt", "tiny", "dist_da_f",
                                 machine=machine, trace_cache=cache)
        assert len(compiles) > before
        assert run_sig(again) == run_sig(first)

    def test_report_stats_count_compiles_and_reuses(self, capsys,
                                                    tmp_path):
        """``--stats`` on the tiny report: the lookups that took a
        dataset's compile, next to the compiles themselves. The matrix
        compiles 57 kernels and reuses 38, Fig 12 6 and 6, Fig 13 and
        Fig 14 19 and 38 each, Tables V and VI 19 each, the WSS sweep 8;
        together they are the 267 compiles of a run that compiles in
        every cell and table."""
        OBS.reset()
        report_main(["--scale", "tiny", "--jobs", "1", "--stats",
                     "--out", str(tmp_path / "report.txt")])
        out = capsys.readouterr().out
        counts = dict(re.findall(r"^ +(compile\.\w+) +([\d,]+)$", out,
                                 re.MULTILINE))
        assert counts == {"compile.kernels": "147", "compile.reused": "120"}
