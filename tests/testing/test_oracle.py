"""The differential oracle must pass clean cases and catch injected faults."""

import pytest

from repro.mem.hierarchy import MemoryHierarchy
from repro.params import experiment_machine
from repro.sim import simulate_workload
from repro.testing import SHAPES, check_case, generate_case


class TestCleanCases:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_all_paths_agree(self, shape):
        report = check_case(generate_case(21, shape=shape))
        assert report.ok, [f.format() for f in report.failures]

    def test_report_shape_metadata(self):
        case = generate_case(21, shape="guarded")
        report = check_case(case, paths=("ooo",))
        assert report.case == case.name
        assert report.shape == "guarded"
        assert report.paths == ("ooo",)


class TestInjectedFaults:
    def test_perturbed_batch_counter_is_caught(self, monkeypatch):
        """A production-only perturbation must trip the cross-path
        oracle.

        ``host_access_batch`` never runs under ``REPRO_REFERENCE=1``;
        inflating its returned stall cycles makes the production
        replay's timing diverge from the reference on the OoO baseline.
        """
        real = MemoryHierarchy.host_access_batch

        def perturbed(self, addrs, is_write, stream_ids):
            return real(self, addrs, is_write, stream_ids) + 1000

        monkeypatch.setattr(MemoryHierarchy, "host_access_batch", perturbed)
        report = check_case(
            generate_case(21, shape="elementwise"), paths=("ooo",)
        )
        assert not report.ok
        assert any(f.check == "production-vs-reference"
                   for f in report.failures)
        assert any("time_ps" in f.message for f in report.failures)

    def test_fault_invisible_without_fast_mode(self, monkeypatch):
        """The reference side alone cannot see a fast-path fault — the
        divergence really is cross-path, not a broken case."""
        case = generate_case(21, shape="elementwise")

        def reference_run():
            r = simulate_workload(case.instance(), "ooo",
                                  machine=experiment_machine())
            return r.time_ps, r.validated, r.energy.counts()

        real = MemoryHierarchy.host_access_batch

        def perturbed(self, addrs, is_write, stream_ids):
            return real(self, addrs, is_write, stream_ids) + 1000

        monkeypatch.setenv("REPRO_REFERENCE", "1")
        clean = reference_run()
        monkeypatch.setattr(MemoryHierarchy, "host_access_batch", perturbed)
        assert reference_run() == clean

    def test_broken_functional_result_is_caught(self, monkeypatch):
        """Corrupting the interpreted outputs fails output validation.

        On each side (production, reference) the first config interprets
        the case and validates its outputs once; every later config
        replays that entry and carries its verdict. Corrupting an output
        array of the interpreting cell after its last kernel call must
        therefore fail the interpreting cell *and* the replayed one. Two
        configs give each side one replayed cell.
        """
        from repro.workloads.base import WorkloadInstance

        real_calls = WorkloadInstance.calls

        def corrupting_calls(self):
            yield from real_calls(self)
            # every kernel call has run: the arrays are final
            out = self.arrays[self.outputs[0]]
            out.flat[0] += 1.0

        monkeypatch.setattr(WorkloadInstance, "calls", corrupting_calls)
        report = check_case(
            generate_case(21, shape="elementwise"),
            paths=("ooo", "dist_da_f"),
        )
        assert not report.ok
        broken = {(f.config, f.message.split(":")[0])
                  for f in report.failures if f.check == "outputs-validate"}
        assert broken == {
            (config, side)
            for config in ("ooo", "dist_da_f")
            for side in ("production", "reference")
        }
