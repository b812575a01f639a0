"""Experiment matrix: run (workload x configuration) simulations once and
share the results across every figure/table module.

The matrix can be populated three ways, all numerically identical:

* lazily, one cell at a time (``matrix.get(w, c)``);
* serially in paper order (``run_matrix()`` / ``run_all(jobs=1)``);
* in parallel over :class:`~repro.dse.executor.Executor`
  (``run_matrix(jobs=N)`` or ``REPRO_JOBS=N``), fanning the grid out one
  unit per workload so each worker interprets its workload's kernels
  once and replays the functional trace for all remaining configurations
  via the shared :class:`~repro.sim.tracecache.TraceCache`.

Workers ship their per-cell :class:`~repro.sim.results.RunResult`\\ s
back to the parent (the executor carries their observability records).
A workload whose unit raises, times out or loses its worker process
twice does not stop the others: ``run_all`` raises one error naming it
once every other workload's cells are in :attr:`ResultMatrix.results`.
"""

from __future__ import annotations

import math
from concurrent.futures import as_completed
from dataclasses import dataclass, field
from time import perf_counter
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import ConfigError, ReproError
from ..obs import OBS, CellStat
from ..params import MachineParams, experiment_machine
from ..sim.results import RunResult
from ..sim.system import simulate_dataset
from ..sim.tracecache import TraceCache
from ..workloads import ALL_WORKLOADS, PAPER_ORDER

#: the accelerator configurations of §VI-A, in presentation order
PAPER_CONFIGS = (
    "mono_ca", "mono_da_io", "mono_da_f", "dist_da_io", "dist_da_f",
)
BASELINE = "ooo"

#: a progress sink receives one human-readable line per completed unit
ProgressFn = Callable[[str], None]


def geomean(values: Iterable[float]) -> float:
    vals = [max(float(v), 1e-12) for v in values]
    if not vals:
        raise ConfigError("geomean of empty sequence")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


@dataclass
class ResultMatrix:
    """Lazily-populated (workload, config) -> RunResult matrix."""

    scale: str = "small"
    machine: Optional[MachineParams] = None
    workloads: Sequence[str] = PAPER_ORDER
    configs: Sequence[str] = (BASELINE,) + PAPER_CONFIGS
    results: Dict[Tuple[str, str], RunResult] = field(default_factory=dict)
    #: shared functional-trace store; one entry serves every config of a
    #: workload, so only the first config pays the interpreter (cells
    #: are visited one workload at a time, so it holds one dataset)
    trace_cache: Optional[TraceCache] = None

    def __post_init__(self) -> None:
        if self.machine is None:
            self.machine = experiment_machine()
        if self.trace_cache is None:
            self.trace_cache = TraceCache(max_entries=1)

    def get(self, workload: str, config: str) -> RunResult:
        key = (workload, config)
        if key not in self.results:
            if workload not in ALL_WORKLOADS:
                raise ConfigError(f"unknown workload {workload!r}")
            start = perf_counter()
            self.results[key] = simulate_dataset(
                workload, self.scale, config, machine=self.machine,
                trace_cache=self.trace_cache,
            )
            OBS.add_cell(CellStat(
                workload, config, perf_counter() - start,
                trace_elems=self.trace_cache.peak_trace_elems(
                    workload, self.scale
                ),
            ))
        return self.results[key]

    def baseline(self, workload: str) -> RunResult:
        return self.get(workload, BASELINE)

    def run_all(self, jobs: Optional[int] = None,
                progress: Optional[ProgressFn] = None) -> "ResultMatrix":
        """Populate every cell; ``jobs > 1`` fans workloads out over the
        executor. Cell results are identical either way."""
        # imported on use, not at module load: it pulls in the whole
        # repro.dse package, about 0.08 s that every matrix user would
        # otherwise pay at start-up
        from ..dse.executor import resolve_jobs

        jobs = resolve_jobs(jobs)
        if jobs > 1 and len(self.workloads) > 1:
            return self._run_all_parallel(jobs, progress)
        total = len(self.workloads) * len(self.configs)
        done = 0
        for workload in self.workloads:
            for config in self.configs:
                start = perf_counter()
                self.get(workload, config)
                done += 1
                if progress is not None:
                    progress(
                        f"[{done}/{total}] {workload} x {config}"
                        f" ({perf_counter() - start:.2f}s)"
                    )
        return self

    def _run_all_parallel(self, jobs: int,
                          progress: Optional[ProgressFn]) -> "ResultMatrix":
        from ..dse.executor import Executor, GroupFailed

        pending = [
            w for w in self.workloads
            if any((w, c) not in self.results for c in self.configs)
        ]
        for w in pending:
            if w not in ALL_WORKLOADS:
                raise ConfigError(f"unknown workload {w!r}")
        failed: List[str] = []
        with Executor(min(jobs, len(pending))) as executor:
            futures = {
                executor.submit(_matrix_worker, (
                    w, tuple(self.configs), self.scale, self.machine)): w
                for w in pending
            }
            for done, future in enumerate(as_completed(futures), 1):
                workload = futures[future]
                out = future.result()
                if isinstance(out, GroupFailed):
                    failed.append(f"{workload} ({out.attempts} attempts: "
                                  f"{out.error})")
                    continue
                cells, wall = out
                for config, result in cells:
                    self.results[(workload, config)] = result
                if progress is not None:
                    progress(
                        f"[{done}/{len(pending)} workloads] {workload}"
                        f" ({len(cells)} cells, {wall:.2f}s)"
                    )
        if failed:
            raise ReproError("matrix workload failed: " + "; ".join(failed))
        return self

    # -- normalized metric helpers (all relative to the OoO baseline) -----
    def energy_efficiency(self, workload: str, config: str) -> float:
        return self.get(workload, config).energy_efficiency_vs(
            self.baseline(workload)
        )

    def speedup(self, workload: str, config: str) -> float:
        return self.get(workload, config).speedup_vs(self.baseline(workload))

    def movement_reduction(self, workload: str, config: str) -> float:
        return self.get(workload, config).movement_reduction_vs(
            self.baseline(workload)
        )

    def gm(self, metric: str, config: str) -> float:
        fn = {
            "ee": self.energy_efficiency,
            "speedup": self.speedup,
            "movement": self.movement_reduction,
        }[metric]
        return geomean(fn(w, config) for w in self.workloads)

    def all_validated(self) -> bool:
        return all(r.validated for r in self.results.values())


def _matrix_worker(args: Tuple[str, Tuple[str, ...], str, MachineParams]):
    """Executor unit: simulate every configuration of one workload.

    Populates a one-workload :class:`ResultMatrix` (with its own
    single-entry trace cache); returns its ``(config, RunResult)`` cells
    and the wall seconds they took.
    """
    workload, configs, scale, machine = args
    start = perf_counter()
    matrix = ResultMatrix(scale=scale, machine=machine,
                          workloads=(workload,), configs=configs)
    cells = [(config, matrix.get(workload, config)) for config in configs]
    return cells, perf_counter() - start


def run_matrix(scale: str = "small",
               machine: Optional[MachineParams] = None,
               workloads: Sequence[str] = PAPER_ORDER,
               configs: Sequence[str] = (BASELINE,) + PAPER_CONFIGS,
               jobs: Optional[int] = None,
               progress: Optional[ProgressFn] = None) -> ResultMatrix:
    """Build and fully populate a result matrix.

    ``jobs`` (default: ``$REPRO_JOBS`` or 1) fans the grid out over the
    executor, one unit per workload; every cell's metrics are identical
    to the serial run.
    """
    return ResultMatrix(
        scale=scale, machine=machine, workloads=tuple(workloads),
        configs=tuple(configs),
    ).run_all(jobs=jobs, progress=progress)


def format_table(header: List[str], rows: List[List[str]]) -> str:
    widths = [
        max(len(str(row[col])) for row in [header] + rows)
        for col in range(len(header))
    ]
    def fmt(row):
        return "  ".join(str(v).rjust(w) for v, w in zip(row, widths))
    sep = "-" * (sum(widths) + 2 * (len(widths) - 1))
    return "\n".join([fmt(header), sep] + [fmt(r) for r in rows])
