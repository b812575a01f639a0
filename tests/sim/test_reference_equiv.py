"""Reach of the ``REPRO_REFERENCE`` switch: set to ``1``, it selects the
reference implementation in every layer at once (tree-walking
interpreter, per-access OoO, stream and hierarchy replay, event-only
offload replay), so a reference run never enters production-only code.

That the two paths produce the same bits is the whole-run gate in
``tests/sim/test_fastpath_equiv.py``.
"""

import pytest

from repro import envcfg
from repro.experiments.runner import BASELINE, PAPER_CONFIGS
from repro.ir import nestjit
from repro.ir.trace import ColumnarTrace
from repro.ir.vecinterp import VecInterpreter
from repro.mem.cache import Cache
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.prefetch import StridePrefetcher
from repro.params import experiment_machine
from repro.runtime import fastsim
from repro.sim import simulate_workload
from repro.workloads import ALL_WORKLOADS

CONFIGS = (BASELINE,) + PAPER_CONFIGS

#: every production-only implementation the switch must bypass
PRODUCTION_ONLY = (
    (VecInterpreter, "run"),
    (nestjit, "compiled_nest"),
    (ColumnarTrace, "addresses"),
    (ColumnarTrace, "streams_by_site"),
    (MemoryHierarchy, "host_access_batch"),
    (MemoryHierarchy, "accel_line_fetch_batch"),
    (MemoryHierarchy, "accel_elem_access_batch"),
    (MemoryHierarchy, "l3_demand_batch"),
    (Cache, "access_batch"),
    (StridePrefetcher, "observe_batch"),
    (fastsim, "replay"),
)


@pytest.mark.parametrize("workload", ("fdt", "spmv"))
def test_reference_switch_reaches_no_production_path(monkeypatch,
                                                     workload):
    """``REPRO_REFERENCE=1`` selects the reference implementation in
    every layer at once: a run never enters production-only code."""
    def forbidden(*args, **kwargs):
        raise AssertionError("production path reached in reference mode")

    for owner, attr in PRODUCTION_ONLY:
        monkeypatch.setattr(owner, attr, forbidden)
    monkeypatch.setenv(envcfg.REPRO_REFERENCE.name, "1")
    machine = experiment_machine()
    for config in CONFIGS:
        result = simulate_workload(ALL_WORKLOADS[workload].build("tiny"),
                                   config, machine=machine)
        assert result.validated
