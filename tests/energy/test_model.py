"""Tests for the energy ledger."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy import EnergyLedger, default_energy_table

EVENTS = ["l1_access", "l2_access", "l3_access", "int_op", "noc_byte_hop"]


class TestLedgerBasics:
    def test_empty_ledger_zero(self):
        assert EnergyLedger().total_pj() == 0.0

    def test_single_charge(self):
        led = EnergyLedger()
        led.charge("l1", "l1_access")
        assert led.total_pj() == pytest.approx(default_energy_table().l1_access)

    def test_count_multiplier(self):
        led = EnergyLedger()
        led.charge("noc", "noc_byte_hop", 128)
        t = default_energy_table()
        assert led.total_pj() == pytest.approx(128 * t.noc_byte_hop)

    def test_unknown_event_raises_eagerly(self):
        led = EnergyLedger()
        with pytest.raises(AttributeError):
            led.charge("l1", "no_such_event")

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            EnergyLedger().charge("l1", "l1_access", -1)

    def test_by_component(self):
        led = EnergyLedger()
        led.charge("l1", "l1_access", 2)
        led.charge("l2", "l2_access", 1)
        by = led.by_component()
        t = default_energy_table()
        assert by["l1"] == pytest.approx(2 * t.l1_access)
        assert by["l2"] == pytest.approx(t.l2_access)

    def test_by_event_aggregates_across_components(self):
        led = EnergyLedger()
        led.charge("l3", "l3_access", 1)
        led.charge("l3_remote", "l3_access", 2)
        assert led.by_event()["l3_access"] == pytest.approx(
            3 * default_energy_table().l3_access
        )

    def test_total_nj(self):
        led = EnergyLedger()
        led.charge("dram", "dram_line_access", 1000)
        assert led.total_nj() == pytest.approx(led.total_pj() / 1000)


class TestLedgerProperties:
    @given(
        charges=st.lists(
            st.tuples(
                st.sampled_from(["core", "l1", "noc"]),
                st.sampled_from(EVENTS),
                st.integers(min_value=0, max_value=1000),
            ),
            max_size=50,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_total_equals_sum_of_components(self, charges):
        led = EnergyLedger()
        for component, event, n in charges:
            led.charge(component, event, n)
        assert led.total_pj() == pytest.approx(sum(led.by_component().values()))
        assert led.total_pj() == pytest.approx(sum(led.by_event().values()))

    @given(
        n1=st.integers(min_value=0, max_value=10**6),
        n2=st.integers(min_value=0, max_value=10**6),
    )
    def test_charge_additivity(self, n1, n2):
        led1 = EnergyLedger()
        led1.charge("l1", "l1_access", n1)
        led1.charge("l1", "l1_access", n2)
        led2 = EnergyLedger()
        led2.charge("l1", "l1_access", n1 + n2)
        assert led1.total_pj() == pytest.approx(led2.total_pj())
