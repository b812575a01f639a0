"""Sweep-spec expansion, validation and content hashing."""

import pytest

from repro.dse import SweepSpec, load_spec, shipped_specs
from repro.dse.spec import SweepPoint
from repro.errors import ConfigError, MachineConfigError
from repro.params import experiment_machine


def small_spec(**over):
    raw = {
        "name": "t",
        "workloads": ["fdt", "sei"],
        "configs": ["ooo", "dist_da_f"],
        "scale": "tiny",
        "base": "experiment",
        "machine_axes": {"accel_freq_ghz": [1.0, 2.0]},
        "workload_axes": {},
    }
    raw.update(over)
    return SweepSpec.from_dict(raw)


class TestExpansion:
    def test_cartesian_count(self):
        spec = small_spec()
        # 2 workloads x 2 freqs x 2 configs
        assert len(spec.points()) == 8

    def test_dataset_points_consecutive(self):
        """All points of one dataset are adjacent (trace-sharing order)."""
        spec = small_spec()
        keys = [p.trace_key() for p in spec.points()]
        seen = []
        for k in keys:
            if not seen or seen[-1] != k:
                assert k not in seen, f"dataset {k} split across the order"
                seen.append(k)

    def test_workload_axes_expand(self):
        spec = small_spec(workloads=["fdt"],
                          workload_axes={"n": [8, 10], "timesteps": [1]})
        pts = spec.points()
        assert len(pts) == 8  # 2 n x 1 ts x 2 freqs x 2 configs
        assert {dict(p.workload_kwargs)["n"] for p in pts} == {8, 10}

    def test_expansion_is_deterministic(self):
        assert small_spec().points() == small_spec().points()


class TestValidation:
    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown sweep spec keys"):
            small_spec(frobnicate=1)

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="lacks 'workloads'"):
            SweepSpec.from_dict({"name": "t", "configs": ["ooo"]})

    def test_unknown_workload(self):
        with pytest.raises(ConfigError, match="unknown workload"):
            small_spec(workloads=["nope"])

    def test_unknown_config(self):
        with pytest.raises(ConfigError, match="unknown config"):
            small_spec(configs=["nope"])

    def test_unknown_scale(self):
        with pytest.raises(ConfigError, match="unknown scale"):
            small_spec(scale="huge")

    def test_empty_axis(self):
        with pytest.raises(ConfigError, match="has no values"):
            small_spec(machine_axes={"accel_freq_ghz": []})

    def test_bad_machine_axis_rejected_up_front(self):
        with pytest.raises(ConfigError):
            small_spec(machine_axes={"no.such.field": [1]})

    def test_bad_machine_axis_type_rejected(self):
        with pytest.raises(ConfigError):
            small_spec(machine_axes={"l3.size_bytes": ["two megabytes"]})

    def test_alus_beyond_the_grid_rejected_at_load(self):
        # 30 + 4 + 4 ALUs do not fit the experiment machine's 5x5 grid
        with pytest.raises(MachineConfigError, match=r"cgra\.int_alus"):
            small_spec(machine_axes={"cgra.int_alus": [15, 30]})

    def test_scalar_axis_rejected_naming_the_axis(self):
        with pytest.raises(ConfigError, match="'l1.ways' must be a list"):
            small_spec(machine_axes={"l1.ways": 8})

    def test_string_axis_rejected_not_split_into_characters(self):
        with pytest.raises(ConfigError, match="'n' must be a list"):
            small_spec(workloads=["fdt"], workload_axes={"n": "64"})

    def test_axes_must_be_an_object(self):
        with pytest.raises(ConfigError, match="machine_axes must be an"):
            small_spec(machine_axes=[["accel_freq_ghz", 1.0]])

    def test_unknown_dataset_keyword_in_axes_names_key_and_workload(self):
        with pytest.raises(ConfigError, match="'bogus' for workload 'fdt'"):
            small_spec(workload_axes={"bogus": [1]})

    def test_dataset_keyword_checked_for_every_workload(self):
        # fdt takes n, bfs does not: the spec is refused, naming bfs
        with pytest.raises(ConfigError, match="'n' for workload 'bfs'"):
            small_spec(workloads=["fdt", "bfs"], workload_axes={"n": [8]})

    def test_scale_is_not_a_dataset_keyword(self):
        with pytest.raises(ConfigError, match="'scale' for workload"):
            small_spec(workloads=["fdt"], workload_axes={"scale": ["tiny"]})


class TestPointValidation:
    def test_unknown_dataset_keyword_rejected(self):
        with pytest.raises(ConfigError, match="'bogus' for workload 'fdt'"):
            SweepPoint.from_dict({"workload": "fdt", "config": "ooo",
                                  "workload_kwargs": {"bogus": 1}})

    def test_known_dataset_keywords_accepted(self):
        point = SweepPoint.from_dict({
            "workload": "fdt", "config": "ooo", "scale": "tiny",
            "workload_kwargs": {"n": 10, "timesteps": 1}})
        assert dict(point.workload_kwargs) == {"n": 10, "timesteps": 1}


class TestContentHash:
    def test_stable(self):
        base = experiment_machine()
        a = small_spec().points()
        b = small_spec().points()
        assert [p.content_hash(base) for p in a] == \
               [p.content_hash(base) for p in b]

    def test_unique_per_point(self):
        base = experiment_machine()
        hashes = [p.content_hash(base) for p in small_spec().points()]
        assert len(set(hashes)) == len(hashes)

    def test_machine_override_changes_hash(self):
        base = experiment_machine()
        p1 = SweepPoint("fdt", "ooo", "tiny",
                        machine_overrides=(("accel_freq_ghz", 1.0),))
        p2 = SweepPoint("fdt", "ooo", "tiny",
                        machine_overrides=(("accel_freq_ghz", 2.0),))
        assert p1.content_hash(base) != p2.content_hash(base)

    def test_base_machine_change_invalidates(self):
        p = SweepPoint("fdt", "ooo", "tiny")
        base = experiment_machine()
        assert p.content_hash(base) != \
            p.content_hash(base.with_accel_freq(3.0))

    def test_trace_key_ignores_machine(self):
        p1 = SweepPoint("fdt", "ooo", "tiny",
                        machine_overrides=(("accel_freq_ghz", 1.0),))
        p2 = SweepPoint("fdt", "dist_da_f", "tiny",
                        machine_overrides=(("accel_freq_ghz", 2.0),))
        assert p1.trace_key() == p2.trace_key()

    def test_trace_key_tracks_dataset(self):
        p1 = SweepPoint("fdt", "ooo", "tiny",
                        workload_kwargs=(("n", 8),))
        p2 = SweepPoint("fdt", "ooo", "tiny",
                        workload_kwargs=(("n", 10),))
        assert p1.trace_key() != p2.trace_key()


class TestShippedSpecs:
    def test_all_shipped_specs_validate(self):
        names = shipped_specs()
        assert {"wss", "clocking", "smoke"} <= set(names)
        for name in names:
            spec = load_spec(name)
            assert spec.points()

    def test_load_spec_unknown(self):
        with pytest.raises(ConfigError, match="no sweep spec named"):
            load_spec("definitely-not-a-spec")

    def test_wss_matches_experiment_module(self):
        """The shipped wss.json is the area_wss study."""
        from repro.experiments.area_wss import wss_spec

        assert load_spec("wss").as_dict() == wss_spec().as_dict()

    def test_clocking_matches_experiment_module(self):
        from repro.experiments.fig13 import clocking_spec

        shipped = load_spec("clocking")
        ours = clocking_spec(workloads=shipped.workloads)
        assert shipped.as_dict() == ours.as_dict()
