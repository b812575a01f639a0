"""Whole-run equivalence gate: the production (fast) path must be
bit-identical to ``REPRO_REFERENCE=1`` on every metric a figure or
table reads.

Four workloads of different shapes (stencil, graph, streaming, sparse)
are simulated under all six configurations twice — once on the
production path (vectorized interpretation, batched replay) and once
with every layer on its reference implementation (tree-walking
interpreter, per-access OoO, stream and hierarchy replay) — and every
cell is compared field by field, including the float energy totals
(exact equality, not approx: the production path is required to
produce the same bits).
"""

import pytest

from repro import envcfg
from repro.experiments.runner import BASELINE, PAPER_CONFIGS, ResultMatrix

ENV_VAR = envcfg.REPRO_REFERENCE.name
WORKLOADS = ("fdt", "bfs", "dis", "spmv")
CONFIGS = (BASELINE,) + PAPER_CONFIGS


def run_matrix_mode(monkeypatch, fast: bool):
    monkeypatch.setenv(ENV_VAR, "0" if fast else "1")
    assert envcfg.reference_enabled() is not fast
    return ResultMatrix(
        scale="tiny", workloads=WORKLOADS, configs=CONFIGS
    ).run_all()


@pytest.fixture(scope="module")
def both_modes():
    mp = pytest.MonkeyPatch()
    try:
        fast = run_matrix_mode(mp, fast=True)
        reference = run_matrix_mode(mp, fast=False)
    finally:
        mp.undo()
    return fast, reference


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("config", CONFIGS)
def test_fast_path_bit_identical(both_modes, workload, config):
    fast, reference = both_modes
    f = fast.results[(workload, config)]
    r = reference.results[(workload, config)]
    assert f.time_ps == r.time_ps
    assert f.insts == r.insts
    assert f.mem_ops == r.mem_ops
    assert f.energy_nj == r.energy_nj  # exact, not approx
    assert f.movement_bytes == r.movement_bytes
    assert f.mmio_bytes == r.mmio_bytes
    assert f.accel_iterations == r.accel_iterations
    assert f.validated and r.validated
    assert f.traffic_breakdown == r.traffic_breakdown
    assert f.cache_stats.as_dict() == r.cache_stats.as_dict()
    assert f.energy.by_event() == r.energy.by_event()


def test_fast_path_defaults_on(monkeypatch):
    """The production path runs unless ``REPRO_REFERENCE`` is set to a
    true value."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert not envcfg.reference_enabled()
    for off in ("0", "false", "off", "no"):
        monkeypatch.setenv(ENV_VAR, off)
        assert not envcfg.reference_enabled()
    monkeypatch.setenv(ENV_VAR, "1")
    assert envcfg.reference_enabled()
