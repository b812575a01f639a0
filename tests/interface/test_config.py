"""Tests for offload-configuration records."""

import random

import pytest

from repro.errors import InterfaceError
from repro.interface import (
    AccessConfig,
    AccessKind,
    ChannelConfig,
    Intrinsic,
    OffloadConfig,
    PartitionConfig,
)


def stream_access(access_id=0, obj="A", **kw):
    return AccessConfig(access_id=access_id, kind=AccessKind.STREAM_READ,
                        obj=obj, **kw)


def simple_offload():
    p0 = PartitionConfig(
        partition_index=0, anchor_object="A",
        accesses=[stream_access(0, "A")],
        produces=[0],
        microcode=b"\x00" * 24,
    )
    p1 = PartitionConfig(
        partition_index=1, anchor_object="B",
        accesses=[
            AccessConfig(access_id=1, kind=AccessKind.STREAM_WRITE,
                         obj="B", is_write=True),
            AccessConfig(access_id=2, kind=AccessKind.CHANNEL),
        ],
        consumes=[0],
        rf_presets={0: 2.5},
    )
    ch = ChannelConfig(channel_id=0, producer_partition=0,
                       consumer_partition=1, producer_access_id=3,
                       consumer_access_id=2, width_bits=32)
    return OffloadConfig(offload_id=7, kernel_name="k",
                         partitions=[p0, p1], channels=[ch])


class TestAccessConfig:
    def test_stream_requires_object(self):
        with pytest.raises(InterfaceError):
            AccessConfig(access_id=0, kind=AccessKind.STREAM_READ)

    def test_channel_needs_no_object(self):
        AccessConfig(access_id=0, kind=AccessKind.CHANNEL)

    def test_bad_elem_bytes(self):
        with pytest.raises(InterfaceError):
            AccessConfig(access_id=0, kind=AccessKind.CHANNEL, elem_bytes=0)


class TestOffloadConfig:
    def test_lookup_helpers(self):
        off = simple_offload()
        assert off.num_partitions == 2
        assert off.partition(1).anchor_object == "B"
        assert off.channel(0).consumer_partition == 1
        assert off.partition(1).access(2).kind is AccessKind.CHANNEL

    def test_unknown_channel(self):
        with pytest.raises(InterfaceError):
            simple_offload().channel(99)

    def test_unknown_access(self):
        with pytest.raises(InterfaceError):
            simple_offload().partition(0).access(42)

    def test_bad_partition_indices_rejected(self):
        p = PartitionConfig(partition_index=1, anchor_object=None)
        with pytest.raises(InterfaceError):
            OffloadConfig(offload_id=0, kernel_name="k", partitions=[p])

    def test_channel_partition_bounds_checked(self):
        p = PartitionConfig(partition_index=0, anchor_object=None)
        ch = ChannelConfig(channel_id=0, producer_partition=0,
                           consumer_partition=5, producer_access_id=0,
                           consumer_access_id=1)
        with pytest.raises(InterfaceError):
            OffloadConfig(offload_id=0, kernel_name="k",
                          partitions=[p], channels=[ch])

    def test_static_insts_from_microcode(self):
        off = simple_offload()
        assert off.partition(0).static_insts == 3

    def test_channel_payload_bytes(self):
        ch = ChannelConfig(channel_id=0, producer_partition=0,
                           consumer_partition=0, producer_access_id=0,
                           consumer_access_id=1, width_bits=1,
                           is_predicate=True)
        assert ch.payload_bytes == 1


class TestConfigCalls:
    def test_call_sequence_structure(self):
        off = simple_offload()
        calls = off.config_calls()
        kinds = [c.intrinsic for c in calls]
        assert kinds.count(Intrinsic.CP_CONFIG) == 2
        assert kinds.count(Intrinsic.CP_CONFIG_STREAM) == 3  # A, B, channel
        assert kinds.count(Intrinsic.CP_SET_RF) == 1
        assert kinds[-1] is Intrinsic.CP_RUN

    def test_call_sequence_mmio_overhead_is_small(self):
        from repro.interface import mmio_bytes

        off = simple_offload()
        assert 0 < mmio_bytes(off.config_calls()) < 1024


def graph_offload(n, edges):
    """An offload of ``n`` bare partitions with one channel per edge."""
    return OffloadConfig(
        offload_id=0, kernel_name="g",
        partitions=[PartitionConfig(partition_index=p, anchor_object=None)
                    for p in range(n)],
        channels=[
            ChannelConfig(channel_id=c, producer_partition=a,
                          consumer_partition=b, producer_access_id=2 * c,
                          consumer_access_id=2 * c + 1)
            for c, (a, b) in enumerate(edges)
        ],
    )


def recursive_components(n, edges):
    """Textbook recursive Tarjan over the same successor order."""
    succ = {p: [] for p in range(n)}
    for a, b in edges:
        succ[a].append(b)
    index, low, stack, out = {}, {}, [], []

    def connect(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        for w in succ[v]:
            if w not in index:
                connect(w)
                low[v] = min(low[v], low[w])
            elif w in stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp = []
            while True:
                w = stack.pop()
                comp.append(w)
                if w == v:
                    break
            out.append(sorted(comp))

    for v in range(n):
        if v not in index:
            connect(v)
    return out


class TestChannelComponents:
    def test_chain_has_singletons(self):
        assert simple_offload().channel_components() == [[1], [0]]

    def test_cycle_and_self_loop(self):
        off = graph_offload(4, [(0, 1), (1, 2), (2, 0), (3, 3), (2, 3)])
        assert off.channel_components() == [[3], [0, 1, 2]]

    def test_matches_recursive_tarjan_in_order(self):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randrange(1, 9)
            edges = [(rng.randrange(n), rng.randrange(n))
                     for _ in range(rng.randrange(0, 3 * n))]
            assert graph_offload(n, edges).channel_components() == (
                recursive_components(n, edges)), (n, edges)

    def test_long_chain_needs_no_recursion(self):
        n = 5000
        off = graph_offload(n, [(p, p + 1) for p in range(n - 1)]
                            + [(n - 1, 0)])
        assert off.channel_components() == [list(range(n))]
