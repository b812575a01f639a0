"""Machine-derivation API used by the DSE engine (repro.params)."""

import pytest

from repro.errors import ConfigError, MachineConfigError
from repro.params import (
    base_machine,
    default_machine,
    derive_machine,
    experiment_machine,
    machine_digest,
)


class TestBaseMachines:
    def test_named_bases(self):
        assert base_machine("table3") == default_machine()
        assert base_machine("experiment") == experiment_machine()

    def test_unknown_base(self):
        with pytest.raises(ConfigError, match="unknown base machine"):
            base_machine("laptop")


class TestDeriveMachine:
    def test_top_level_field(self):
        m = derive_machine(default_machine(), {"l3_clusters": 4})
        assert m.l3_clusters == 4
        assert default_machine().l3_clusters == 8  # base untouched

    def test_nested_field(self):
        m = derive_machine(default_machine(), {"l3.size_bytes": 1 << 20})
        assert m.l3.size_bytes == 1 << 20
        # sibling fields of the rebuilt group survive
        assert m.l3.ways == default_machine().l3.ways

    def test_alias_fans_out(self):
        m = derive_machine(default_machine(), {"accel_freq_ghz": 3.0})
        assert m.inorder.freq_ghz == 3.0 and m.cgra.freq_ghz == 3.0

    def test_multiple_overrides_deterministic(self):
        # the overrides apply in sorted key order and the machine is
        # built once, so the spelling order of the mapping cannot matter
        over = {"l3.size_bytes": 1 << 20, "accel_freq_ghz": 2.0,
                "l3_clusters": 4, "noc.mesh_cols": 2}
        a = derive_machine(default_machine(), over)
        b = derive_machine(default_machine(),
                           dict(reversed(list(over.items()))))
        assert a == b

    def test_topology_alias(self):
        m = derive_machine(default_machine(), {"topology": "2x2"})
        assert (m.noc.mesh_cols, m.noc.mesh_rows) == (2, 2)
        assert m.l3_clusters == 4
        # attachment points are clamped into the smaller mesh
        assert 0 <= m.noc.host_node < m.l3_clusters
        assert 0 <= m.noc.mc_node < m.noc.num_nodes
        # the identity topology reproduces the base machine exactly
        assert derive_machine(default_machine(),
                              {"topology": "4x2"}) == default_machine()

    def test_topology_alias_rejects_garbage(self):
        for bad in ("8", "0x2", 7, "axb"):
            with pytest.raises(ConfigError):
                derive_machine(default_machine(), {"topology": bad})

    def test_empty_overrides_is_identity(self):
        assert derive_machine(default_machine(), {}) == default_machine()

    def test_unknown_field(self):
        with pytest.raises(ConfigError, match="no field 'warp_drive'"):
            derive_machine(default_machine(), {"warp_drive": 1})

    @pytest.mark.parametrize("path", [
        "noc.credits_per_link", "core.rob_entries", "l3.writeback",
        "inorder.sw_prefetch", "access_unit.fill_burst_elems",
        "l3_banks_per_cluster", "dram.size_bytes",
        "inorder.mem_level_parallelism"])
    def test_unmodelled_field_rejected_by_name(self, path):
        """A sweep axis on a field the simulator never modelled fails,
        naming the field, instead of sweeping flat rows."""
        leaf = path.rpartition(".")[2]
        with pytest.raises(ConfigError, match=f"{path!r}.*no field {leaf!r}"):
            derive_machine(default_machine(), {path: 1})

    def test_descend_into_leaf(self):
        with pytest.raises(ConfigError, match="leaf value"):
            derive_machine(default_machine(), {"l3_clusters.size": 1})

    def test_group_target_rejected(self):
        with pytest.raises(ConfigError, match="parameter group"):
            derive_machine(default_machine(), {"l3": 42})

    def test_type_mismatch(self):
        with pytest.raises(ConfigError, match="expects an int"):
            derive_machine(default_machine(), {"l3.size_bytes": "big"})
        with pytest.raises(ConfigError, match="expects an int"):
            derive_machine(default_machine(), {"l3.size_bytes": True})

    def test_structural_validation_still_applies(self):
        # the rules documents obey apply to overrides, naming the field
        with pytest.raises(MachineConfigError) as err:
            derive_machine(default_machine(), {"l3.size_bytes": 1000})
        assert any(v.startswith("l3.size_bytes ")
                   for v in err.value.violations)


class TestMachineDigest:
    def test_construction_independent(self):
        a = machine_digest(derive_machine(default_machine(),
                                          {"accel_freq_ghz": 3.0}))
        b = machine_digest(default_machine().with_accel_freq(3.0))
        assert a == b

    def test_any_parameter_moves_the_digest(self):
        base = machine_digest(default_machine())
        for over in ({"l3.size_bytes": 1 << 20}, {"topology": "2x2"},
                     {"accel_freq_ghz": 2.0}):
            assert machine_digest(
                derive_machine(default_machine(), over)) != base
