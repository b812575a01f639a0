"""An injected fault must shrink to a smaller, still-failing corpus repro."""

import numpy as np
import pytest

from repro.mem.hierarchy import MemoryHierarchy
from repro.testing import (
    DifferentialOracle,
    generate_case,
    load_case,
    save_corpus_entry,
    shrink,
)


@pytest.fixture
def fast_path_fault(monkeypatch):
    """Perturb the batched host-access stall counter (production path
    only)."""
    real = MemoryHierarchy.host_access_batch

    def perturbed(self, addrs, is_write, stream_ids):
        return real(self, addrs, is_write, stream_ids) + 1000

    monkeypatch.setattr(MemoryHierarchy, "host_access_batch", perturbed)


class TestStructuralShrinking:
    def test_size_only_decreases(self):
        case = generate_case(33, shape="multi")
        # an always-failing predicate shrinks as far as the moves allow
        minimal = shrink(case, lambda c: True, budget=120)
        assert minimal.size() < case.size()
        assert minimal.name == f"{case.name}-min"

    def test_vacuous_predicate_keeps_case(self):
        case = generate_case(33, shape="guarded")
        minimal = shrink(case, lambda c: False, budget=50)
        assert minimal.size() == case.size()

    def test_shrunk_case_stays_wellformed(self):
        case = generate_case(33, shape="nested")
        minimal = shrink(case, lambda c: True, budget=120)
        for kernel in minimal.kernels:
            kernel.validate()
        minimal.golden_run()  # still interprets cleanly


class TestFaultToCorpus:
    def test_injected_fault_shrinks_to_replayable_repro(
            self, fast_path_fault, tmp_path):
        """The acceptance pipeline: inject, detect, shrink, save, replay."""
        oracle = DifferentialOracle(paths=("ooo",))
        case = generate_case(33, shape="multi")
        assert not oracle.check_case(case).ok

        def still_fails(c):
            return not oracle.check_case(c).ok

        minimal = shrink(case, still_fails, budget=80)
        assert minimal.size() < case.size()
        assert still_fails(minimal)

        path = save_corpus_entry(minimal, str(tmp_path))
        replayed = load_case(path)
        assert [k.fingerprint() for k in replayed.kernels] == [
            k.fingerprint() for k in minimal.kernels
        ]
        for name, arr in minimal.arrays.items():
            assert np.array_equal(replayed.arrays[name], arr)
        # the deserialized repro still reproduces the failure...
        report = oracle.check_case(replayed)
        assert not report.ok
        assert any(f.check == "production-vs-reference"
                   for f in report.failures)

    def test_repro_passes_once_fault_removed(self, tmp_path):
        """...and the same bytes pass once the fault is gone (the corpus
        entry becomes a regression test after the fix)."""
        oracle = DifferentialOracle(paths=("ooo",))
        case = generate_case(33, shape="multi")
        path = save_corpus_entry(case, str(tmp_path))
        assert oracle.check_case(load_case(path)).ok
