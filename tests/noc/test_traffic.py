"""Tests for the NoC traffic ledger (Figure-10 accounting)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy import EnergyLedger
from repro.noc import Mesh, MessageKind, TrafficClass, TrafficLedger
from repro.noc.traffic import HEADER_BYTES
from repro.params import NocParams


def make_ledger(with_energy=False):
    mesh = Mesh(NocParams())
    energy = EnergyLedger() if with_energy else None
    return TrafficLedger(mesh, energy), energy


class TestClassification:
    def test_kind_maps_to_class(self):
        assert MessageKind.MMIO_CONFIG.value is TrafficClass.HOST_CTRL
        assert MessageKind.CACHE_FILL.value is TrafficClass.HOST_DATA
        assert MessageKind.ACC_CREDIT.value is TrafficClass.ACC_CTRL
        assert MessageKind.ACC_OPERAND.value is TrafficClass.ACC_DATA

    def test_record_accumulates_bytes(self):
        led, _ = make_ledger()
        led.record(MessageKind.ACC_OPERAND, 0, 1, payload_bytes=8)
        assert led.class_bytes(TrafficClass.ACC_DATA) == 8 + HEADER_BYTES

    def test_multiple_count(self):
        led, _ = make_ledger()
        led.record(MessageKind.CACHE_FILL, 0, 3, payload_bytes=64, count=10)
        assert led.class_bytes(TrafficClass.HOST_DATA) == 10 * (64 + HEADER_BYTES)
        assert led.messages_by_class[TrafficClass.HOST_DATA] == 10

    def test_breakdown_has_all_four_classes(self):
        led, _ = make_ledger()
        led.record(MessageKind.MMIO_CONFIG, 0, 1, 16)
        bd = led.breakdown()
        assert set(bd) == {"ctrl", "data", "acc_ctrl", "acc_data"}
        assert bd["ctrl"] > 0 and bd["data"] == 0


class TestByteHops:
    def test_local_message_no_hops(self):
        led, _ = make_ledger()
        led.record(MessageKind.ACC_OPERAND, 2, 2, 8)
        assert led.total_byte_hops() == 0
        assert led.total_bytes() > 0

    def test_byte_hops_scale_with_distance(self):
        led, _ = make_ledger()
        led.record(MessageKind.ACC_OPERAND, 0, 1, 8)
        one_hop = led.total_byte_hops()
        led2, _ = make_ledger()
        led2.record(MessageKind.ACC_OPERAND, 0, 3, 8)
        assert led2.total_byte_hops() == 3 * one_hop


class TestEnergyCoupling:
    def test_energy_charged_for_remote(self):
        led, energy = make_ledger(with_energy=True)
        led.record(MessageKind.ACC_OPERAND, 0, 7, 64)
        assert energy.total_pj() > 0

    def test_no_energy_for_local(self):
        led, energy = make_ledger(with_energy=True)
        led.record(MessageKind.ACC_OPERAND, 4, 4, 64)
        assert energy.total_pj() == 0

    def test_latency_returned(self):
        led, _ = make_ledger()
        lat = led.record(MessageKind.ACC_OPERAND, 0, 7, 64)
        assert lat > 0
        assert led.record(MessageKind.ACC_OPERAND, 3, 3, 8) == 0

    def test_energy_proportional_to_count(self):
        led1, e1 = make_ledger(with_energy=True)
        led1.record(MessageKind.ACC_OPERAND, 0, 1, 8, count=5)
        led2, e2 = make_ledger(with_energy=True)
        for _ in range(5):
            led2.record(MessageKind.ACC_OPERAND, 0, 1, 8)
        assert e1.total_pj() == pytest.approx(e2.total_pj())


#: every message kind name; the nine names alias four enum members
KIND_NAMES = tuple(MessageKind.__members__)
MESH_NODES = Mesh(NocParams()).num_nodes


class TestCountOnlyLedger:
    """Every per-class total and NoC energy count, derived on read from
    per-shape message counts, equals a per-message sum over the mesh."""

    @given(
        messages=st.lists(
            st.tuples(
                st.sampled_from(KIND_NAMES),
                st.integers(0, MESH_NODES - 1),
                st.integers(0, MESH_NODES - 1),
                st.integers(0, 128),
                st.integers(1, 40),
            ),
            max_size=30,
        ),
        rnd=st.randoms(use_true_random=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_derived_totals_match_per_message_sums(self, messages, rnd):
        led, energy = make_ledger(with_energy=True)
        mesh = led.mesh
        records = []
        for name, src, dst, payload, count in messages:
            # split each message's count into random parts
            while count:
                part = rnd.randint(1, count)
                records.append((name, src, dst, payload, part))
                count -= part
        rnd.shuffle(records)
        for name, src, dst, payload, count in records:
            lat = led.record(MessageKind[name], src, dst, payload,
                             count=count)
            assert lat == led.latency_of(src, dst, payload)

        nbytes = dict.fromkeys(TrafficClass, 0)
        byte_hops = dict.fromkeys(TrafficClass, 0)
        counted = dict.fromkeys(TrafficClass, 0)
        noc_byte_hops = noc_flits = 0
        for name, src, dst, payload, count in messages:
            tclass = MessageKind[name].value
            unit = payload + HEADER_BYTES
            hops = mesh.hops(src, dst)
            nbytes[tclass] += unit * count
            byte_hops[tclass] += unit * count * hops
            counted[tclass] += count
            if hops:
                noc_byte_hops += unit * count * hops
                noc_flits += mesh.num_flits(unit) * (hops + 1) * count

        def same(actual, expected, kind):
            assert actual == expected
            assert all(type(v) is kind for v in actual.values())

        same(led.breakdown(),
             {tc.value: float(n) for tc, n in nbytes.items()}, float)
        same(led.bytes_by_class,
             {tc: float(n) for tc, n in nbytes.items()}, float)
        same(led.byte_hops_by_class,
             {tc: float(n) for tc, n in byte_hops.items()}, float)
        same(led.messages_by_class, counted, int)
        total = led.total_byte_hops()
        assert total == sum(byte_hops.values()) and type(total) is float
        for event, expected in (("noc_byte_hop", noc_byte_hops),
                                ("noc_router_flit", noc_flits)):
            n = energy.count("noc", event)
            assert n == expected and type(n) is float
            # a count is present only once a message left its node
            assert (("noc", event) in energy.counts()) == (
                noc_byte_hops > 0)
