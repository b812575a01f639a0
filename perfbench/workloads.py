"""The benchmark's workloads: seed -> inputs, set-up, timed cells.

Each workload is one class. ``inputs(seed, scale, seconds)`` is a pure
function of its arguments and returns plain data; the program only ever
sees those generated inputs. ``setup`` does what a user pays before the
first result (imports, machine build, spec validation), ``run`` does
the timed work and returns one :class:`Op` per simulated cell, already
checked against the expected digests; it calls ``tick()`` after each
cell (the program's own per-cell progress callback).

Each class carries ``WHY``: the one-line reason it is in the benchmark
(copied into ``BENCHMARK.json``).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence

#: the headline fields of one simulated cell
#: (``repro.testing.golden.cell_record``); a speed-only change must leave
#: every one of them identical
CELL_KEYS = (
    "time_ps", "insts", "mem_ops", "movement_bytes", "mmio_bytes",
    "accel_iterations", "noc_flits", "energy_pj", "l1", "l2", "l3", "dram",
    "validated",
)

#: the twelve paper workloads, Table IV order
PAPER_ORDER = ("dis", "tra", "adi", "fdt", "cho", "sei",
               "pf", "nw", "bfs", "pr", "pch", "pca")


@dataclass
class Op:
    """One simulated cell and whether its result was right."""

    key: str
    insts: int
    ok: bool
    error: str = ""


def cell_key(workload: str, config: str,
             overrides: Mapping[str, object] = (),
             kwargs: Mapping[str, object] = ()) -> str:
    """Stable name of one cell, used to look up its expected digest."""
    parts = [workload, config]
    parts += [str(v) for _, v in sorted(dict(overrides).items())]
    parts += [f"{k}={v}" for k, v in sorted(dict(kwargs).items())]
    return "/".join(parts)


def point_key(point: Mapping[str, object]) -> str:
    """:func:`cell_key` of a sweep point's dict form."""
    return cell_key(point["workload"], point["config"],
                    point.get("machine_overrides") or {},
                    point.get("workload_kwargs") or {})


def digest(record: Mapping[str, object]) -> str:
    """Digest of a cell's simulated record (a RunResult's
    ``cell_record`` or a stored sweep row's ``metrics``)."""
    blob = json.dumps({k: record[k] for k in CELL_KEYS}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class Checker:
    """Turns a cell's outcome into an :class:`Op`, checking its digest."""

    def __init__(self, expected: Mapping[str, str]):
        self.expected = expected

    def op(self, key: str, record: Optional[Mapping[str, object]],
           error: str = "") -> Op:
        if record is None or error:
            return Op(key, 0, False, error or "no result")
        want = self.expected.get(key)
        if not record["validated"]:
            error = "output validation failed"
        elif want is None:
            error = "no expected digest"
        elif digest(record) != want:
            error = f"digest {digest(record)} != expected {want}"
        return Op(key, int(record["insts"]), not error, error)


def _rng(workload: str, seed: int, part: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{part}")


def _passes(seconds: float, scale: str, pass_s: float) -> int:
    """Whole passes that fill ``seconds``; ``pass_s`` is the nominal time
    of one pass at scale small on a 2-core x86 host."""
    if scale != "small":
        return 1
    return max(1, int(seconds // pass_s))


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
class PaperMatrix:
    NAME = "paper-matrix"
    WHY = ("the paper reproduction a user runs: 12 workloads x ooo + 5 "
           "accelerator configs, so each trace is replayed by 5 configs")
    PASS_S = 20.0

    @classmethod
    def inputs(cls, seed: int, scale: str, seconds: float
               ) -> Dict[str, object]:
        # the datasets are the paper's: the seed only rotates the order.
        # A rotation keeps neighbours together, and the matrix's trace
        # cache holds two workloads at once, so peak memory stays put
        passes = []
        for p in range(_passes(seconds, scale, cls.PASS_S)):
            k = _rng(cls.NAME, seed, p).randrange(len(PAPER_ORDER))
            passes.append(list(PAPER_ORDER[k:] + PAPER_ORDER[:k]))
        return {"scale": scale, "passes": passes}

    def setup(self, inputs: Dict[str, object], checker: Checker,
              tmp: str) -> None:
        from repro.experiments.runner import (
            BASELINE, PAPER_CONFIGS, ResultMatrix)
        from repro.params import experiment_machine

        self.inputs = inputs
        self.checker = checker
        self.machine = experiment_machine()
        self.configs = (BASELINE,) + PAPER_CONFIGS
        self.matrix_cls = ResultMatrix

    def run(self, tick: Callable[..., None]) -> List[Op]:
        from repro.testing.golden import cell_record

        ops: List[Op] = []
        for order in self.inputs["passes"]:
            matrix = self.matrix_cls(
                scale=self.inputs["scale"], machine=self.machine,
                workloads=tuple(order), configs=self.configs)
            error = ""
            try:
                matrix.run_all(jobs=1, progress=tick)
            except Exception as exc:  # noqa: BLE001 — counted as failed
                error = _error(exc)
            for w in order:
                for c in self.configs:
                    run = matrix.results.get((w, c))
                    ops.append(self.checker.op(
                        cell_key(w, c),
                        cell_record(run) if run is not None else None,
                        error="" if run is not None else error))
        return ops


# ---------------------------------------------------------------------------
class MachineSweep:
    NAME = "machine-sweep"
    WHY = ("design-space sweep: 4 workloads x 2 distributed configs x 6 "
           "seeded machines; trace replay, memory walks and store appends")
    PASS_S = 10.0
    WORKLOADS = ("fdt", "sei", "pch", "pr")
    CONFIGS = ("dist_da_io", "dist_da_f")
    FREQS = (1.0, 1.5, 2.0, 2.5, 3.0)
    TOPOLOGIES = ("2x2", "4x2", "4x4", "8x4")

    @classmethod
    def spec(cls, scale: str, freqs: Sequence[float],
             topologies: Sequence[str]) -> Dict[str, object]:
        return {
            "name": "perfbench-machine-sweep", "scale": scale,
            "base": "experiment", "workloads": list(cls.WORKLOADS),
            "configs": list(cls.CONFIGS),
            "machine_axes": {"accel_freq_ghz": list(freqs),
                             "topology": list(topologies)},
        }

    @classmethod
    def inputs(cls, seed: int, scale: str, seconds: float
               ) -> Dict[str, object]:
        # 3 clocks x 2 meshes: a balanced draw, so every seed does the
        # same amount of work on a different design space
        specs = []
        for p in range(_passes(seconds, scale, cls.PASS_S)):
            rng = _rng(cls.NAME, seed, p)
            specs.append(cls.spec(scale, sorted(rng.sample(cls.FREQS, 3)),
                                  sorted(rng.sample(cls.TOPOLOGIES, 2))))
        return {"scale": scale, "passes": specs}

    def setup(self, inputs: Dict[str, object], checker: Checker,
              tmp: str) -> None:
        from repro.dse.scheduler import run_sweep
        from repro.dse.spec import SweepSpec

        self.checker = checker
        self.specs = [SweepSpec.from_dict(s) for s in inputs["passes"]]
        self.stores = [os.path.join(tmp, f"sweep-{i}.sqlite")
                       for i in range(len(self.specs))]
        self.run_sweep = run_sweep

    def run(self, tick: Callable[..., None]) -> List[Op]:
        ops: List[Op] = []
        for spec, store in zip(self.specs, self.stores):
            keys = [point_key(p.as_dict()) for p in spec.points()]
            try:
                rows = self.run_sweep(spec, jobs=1, store_path=store,
                                      progress=tick).rows
            except Exception as exc:  # noqa: BLE001 — counted as failed
                ops += [self.checker.op(k, None, _error(exc)) for k in keys]
                continue
            done = {point_key(r["point"]): r for r in rows.values()}
            for key in keys:
                row = done.get(key, {})
                ops.append(self.checker.op(key, row.get("metrics"),
                                           error=row.get("error") or ""))
        return ops


# ---------------------------------------------------------------------------
class FreshTraces:
    NAME = "fresh-traces"
    WHY = ("every dataset simulated once, on ooo only: no trace reuse, so "
           "the interpreter and OoO model do the work and replay does none")
    PASS_S = 14.0
    #: (build kwarg, tiny value, small value) of each workload's size
    SHAPES = {
        "dis": ("n", 8, 56), "tra": ("n", 8, 64), "adi": ("n", 8, 80),
        "fdt": ("n", 10, 112), "cho": ("n", 8, 56), "sei": ("n", 10, 128),
        "pf": ("cols", 16, 1024), "nw": ("n", 8, 128),
        "bfs": ("num_nodes", 32, 2048), "pr": ("num_nodes", 32, 8192),
        "pch": ("n", 64, 16384), "pca": ("n", 12, 128),
    }
    #: relative half-spread of the two shapes around the scale's size;
    #: kept narrow because the largest page-rank shape sets the run's
    #: peak memory
    SPREADS = (0.02, 0.04, 0.06)

    @classmethod
    def shapes(cls, workload: str, scale: str) -> List[Dict[str, int]]:
        """Every shape a seed can draw for one workload: per spread, one
        below and one above the scale's size, so a seed's total work
        stays close to constant."""
        kwarg, tiny, small = cls.SHAPES[workload]
        base = small if scale == "small" else tiny
        out = []
        for d in cls.SPREADS:
            lo = min(round(base * (1 - d)), base - 1)
            hi = max(round(base * (1 + d)), base + 1)
            out += [{kwarg: lo}, {kwarg: hi}]
        return out

    @classmethod
    def inputs(cls, seed: int, scale: str, seconds: float
               ) -> Dict[str, object]:
        passes = []
        for p in range(_passes(seconds, scale, cls.PASS_S)):
            rng = _rng(cls.NAME, seed, p)
            cells = []
            for w in PAPER_ORDER:
                i = 2 * rng.randrange(len(cls.SPREADS))
                cells += [[w, s] for s in cls.shapes(w, scale)[i:i + 2]]
            passes.append(cells)
        return {"scale": scale, "passes": passes}

    def setup(self, inputs: Dict[str, object], checker: Checker,
              tmp: str) -> None:
        from repro.params import experiment_machine
        from repro.sim.system import simulate_workload
        from repro.sim.tracecache import TraceCache, functional_key
        from repro.workloads import ALL_WORKLOADS

        self.inputs = inputs
        self.checker = checker
        self.machine = experiment_machine()
        self.simulate = simulate_workload
        self.cache_cls = TraceCache
        self.functional_key = functional_key
        self.workloads = ALL_WORKLOADS

    def run(self, tick: Callable[..., None]) -> List[Op]:
        from repro.testing.golden import cell_record

        scale = self.inputs["scale"]
        ops: List[Op] = []
        for cells in self.inputs["passes"]:
            # one cache, as the matrix runner keeps: every get misses
            cache = self.cache_cls(max_entries=2)
            for w, kwargs in cells:
                record, error = None, ""
                try:
                    instance = self.workloads[w].build(scale, **kwargs)
                    record = cell_record(self.simulate(
                        instance, "ooo", machine=self.machine,
                        trace_cache=cache,
                        trace_key=self.functional_key(w, scale, kwargs)))
                except Exception as exc:  # noqa: BLE001 — counted
                    error = _error(exc)
                ops.append(self.checker.op(
                    cell_key(w, "ooo", kwargs=kwargs), record, error))
                tick()
        return ops


WORKLOADS = {cls.NAME: cls for cls in (PaperMatrix, MachineSweep,
                                       FreshTraces)}
