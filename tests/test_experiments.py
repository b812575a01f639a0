"""Tests for the experiment harness (tiny scale so they stay fast)."""

import pytest

from repro.errors import ConfigError
from repro.experiments import (
    ResultMatrix,
    fig12,
    geomean,
    run_matrix,
)
from repro.experiments.runner import format_table
from repro.params import experiment_machine

TINY_WORKLOADS = ("fdt", "pch")
TINY_CONFIGS = ("ooo", "mono_da_io", "dist_da_f")


@pytest.fixture(scope="module")
def tiny_matrix():
    return run_matrix(
        scale="tiny", machine=experiment_machine(),
        workloads=TINY_WORKLOADS,
        configs=TINY_CONFIGS,
    )


class TestGeomean:
    def test_identity(self):
        assert geomean([1.0, 1.0]) == pytest.approx(1.0)

    def test_known_value(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            geomean([])


class TestMatrix:
    def test_lazy_population_and_cache(self, tiny_matrix):
        r1 = tiny_matrix.get("fdt", "ooo")
        r2 = tiny_matrix.get("fdt", "ooo")
        assert r1 is r2

    def test_all_validated(self, tiny_matrix):
        assert tiny_matrix.all_validated()

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigError):
            ResultMatrix().get("nope", "ooo")

    def test_normalized_metrics(self, tiny_matrix):
        assert tiny_matrix.energy_efficiency("fdt", "ooo") == 1.0
        assert tiny_matrix.speedup("fdt", "ooo") == 1.0
        assert tiny_matrix.energy_efficiency("fdt", "dist_da_f") > 1.0


class TestFigureModules:
    def test_fig07_structure(self, tiny_matrix):
        # restrict configs to those in the tiny matrix

        rows = {
            w: {
                c: tiny_matrix.energy_efficiency(w, c)
                for c in ("mono_da_io", "dist_da_f")
            }
            for w in TINY_WORKLOADS
        }
        assert all(v > 0 for r in rows.values() for v in r.values())

    def test_fig09_fractions_sum_to_one(self, tiny_matrix):
        for w in TINY_WORKLOADS:
            fr = tiny_matrix.get(w, "dist_da_f").access_dist.fractions()
            assert sum(fr.values()) == pytest.approx(1.0)

    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [["1", "22"], ["333", "4"]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert len(set(len(l) for l in lines)) == 1  # rectangular


class TestCaseStudyAnnotations:
    def test_user_coverage_rows(self):
        cov = fig12.user_annotation_coverage("nw")
        row = cov.row()
        assert row["cp_fill_ra"] == "U"
        assert row["cp_produce"] == "U"

    def test_unknown_workload_gets_base_row(self):
        row = fig12.user_annotation_coverage("whatever").row()
        assert row["cp_produce"] == "U"
        assert row["cp_fill_ra"] == ""
