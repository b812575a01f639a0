"""Tests for the full compilation pipeline."""

from repro.accel.microcode import Opcode, disassemble
from repro.compiler import CompileMode, compile_kernel
from repro.dfg.classify import Classification
from repro.interface import Intrinsic
from repro.ir import (
    FLOAT32,
    INT32,
    Kernel,
    Loop,
    LoopVar,
    MemObject,
)
from repro.placement import PlacementLevel

I, J = LoopVar("i"), LoopVar("j")


def vaddmul(n=64):
    A, B, C = (MemObject(x, n, FLOAT32) for x in "ABC")
    loop = Loop("i", 0, n, [C.store(I, A[I] * 2.0 + B[I])])
    return Kernel("vaddmul", {"A": A, "B": B, "C": C}, [loop])


def gather(n=64):
    idx = MemObject("idx", n, INT32)
    D = MemObject("D", n, FLOAT32)
    E = MemObject("E", n, FLOAT32)
    loop = Loop("i", 0, n, [E.store(I, D[idx[I]] + 1.0)])
    return Kernel("gather", {"idx": idx, "D": D, "E": E}, [loop])


class TestDistMode:
    def test_one_partition_per_object(self):
        ck = compile_kernel(vaddmul(), CompileMode.DIST, trip_count_hint=64)
        off = ck.offloads[0]
        assert off.config.num_partitions == 3
        anchors = {p.anchor_object for p in off.config.partitions}
        assert anchors == {"A", "B", "C"}

    def test_channels_connect_partitions(self):
        ck = compile_kernel(vaddmul(), CompileMode.DIST, trip_count_hint=64)
        off = ck.offloads[0]
        assert len(off.config.channels) == 2
        for ch in off.config.channels:
            assert ch.producer_partition != ch.consumer_partition

    def test_microcode_valid_and_self_contained(self):
        ck = compile_kernel(vaddmul(), CompileMode.DIST, trip_count_hint=64)
        for part in ck.offloads[0].config.partitions:
            insts = disassemble(part.microcode)
            assert insts[0].op is Opcode.LOOP_BEGIN
            assert insts[-1].op is Opcode.LOOP_END

    def test_every_channel_produced_and_consumed_once(self):
        ck = compile_kernel(vaddmul(), CompileMode.DIST, trip_count_hint=64)
        off = ck.offloads[0]
        for ch in off.config.channels:
            producer = off.config.partition(ch.producer_partition)
            consumer = off.config.partition(ch.consumer_partition)
            prod_insts = disassemble(producer.microcode)
            cons_insts = disassemble(consumer.microcode)
            assert any(
                i.op is Opcode.PRODUCE and i.imm == ch.producer_access_id
                for i in prod_insts
            )
            assert any(
                i.op is Opcode.CONSUME and i.imm == ch.consumer_access_id
                for i in cons_insts
            )

    def test_indirect_access_uses_cp_read(self):
        ck = compile_kernel(gather(), CompileMode.DIST, trip_count_hint=64)
        off = ck.offloads[0]
        d_part = next(
            p for p in off.config.partitions if p.anchor_object == "D"
        )
        insts = disassemble(d_part.microcode)
        assert any(i.op is Opcode.CP_READ for i in insts)
        assert Intrinsic.CP_READ in off.coverage.used()

    def test_table6_characteristics_populated(self):
        ck = compile_kernel(vaddmul(), CompileMode.DIST, trip_count_hint=64)
        off = ck.offloads[0]
        assert off.num_insts > 0
        depth, width = off.dfg_dims
        assert depth >= 2 and width >= 1
        assert off.microcode_bytes % 8 == 0
        assert off.init_mmio_bytes > 0
        assert off.avg_buffers > 0

    def test_vertical_placement_long_streams_at_l3(self):
        ck = compile_kernel(vaddmul(4096), CompileMode.DIST,
                            trip_count_hint=4096)
        off = ck.offloads[0]
        assert all(
            lvl is PlacementLevel.L3_CLUSTER for lvl in off.vertical.values()
        )

    def test_vertical_placement_short_loops_near_host(self):
        ck = compile_kernel(vaddmul(8), CompileMode.DIST, trip_count_hint=8)
        off = ck.offloads[0]
        assert all(
            lvl is PlacementLevel.NEAR_HOST for lvl in off.vertical.values()
        )


class TestMonoModes:
    def test_mono_ca_single_partition(self):
        ck = compile_kernel(vaddmul(), CompileMode.MONO_CA,
                            trip_count_hint=64)
        off = ck.offloads[0]
        assert off.config.num_partitions == 1
        assert off.config.channels == []
        assert off.config.partitions[0].anchor_object is None

    def test_mono_da_access_partitions_plus_compute(self):
        ck = compile_kernel(vaddmul(), CompileMode.MONO_DA,
                            trip_count_hint=64)
        off = ck.offloads[0]
        # 3 object partitions + 1 compute partition
        assert off.config.num_partitions == 4
        compute = off.config.partitions[3]
        assert compute.anchor_object is None
        assert sum(compute.compute_ops.values()) == 2  # mul + add

    def test_mono_da_cut_higher_than_dist(self):
        """Sub-computation placement is what Dist-DA buys (paper §VI-B)."""
        dist = compile_kernel(vaddmul(), CompileMode.DIST,
                              trip_count_hint=64).offloads[0]
        mono = compile_kernel(vaddmul(), CompileMode.MONO_DA,
                              trip_count_hint=64).offloads[0]
        assert mono.partitioning.cut_cost_bits >= dist.partitioning.cut_cost_bits


class TestRejection:
    def test_serial_loop_rejected(self):
        A = MemObject("A", 64, INT32)
        loop = Loop("i", 0, 8, [A.store(I * I, A[I * I] + 1)])
        k = Kernel("serial", {"A": A}, [loop])
        ck = compile_kernel(k)
        assert not ck.offloads
        assert ck.rejected[0][1] is Classification.SERIAL
        assert not ck.fully_offloadable

    def test_nested_loop_compiles_innermost(self):
        A = MemObject("A", (8, 8), FLOAT32)
        B = MemObject("B", (8, 8), FLOAT32)
        inner = Loop("j", 0, 8, [B.store((I, J), A[I, J] * 0.5)])
        outer = Loop("i", 0, 8, [inner])
        k = Kernel("nest", {"A": A, "B": B}, [outer])
        ck = compile_kernel(k, trip_count_hint=8)
        assert len(ck.offloads) == 1
        assert ck.offloads[0].loop is inner

