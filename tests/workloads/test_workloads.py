"""Per-workload validation: IR semantics match the NumPy references."""

import numpy as np
import pytest

from repro.compiler import CompileMode, compile_kernel
from repro.errors import ConfigError
from repro.ir import Interpreter
from repro.workloads import ALL_WORKLOADS, PAPER_ORDER
from repro.workloads.pointer_chase import make_cycle

ALL_SHORTS = tuple(sorted(ALL_WORKLOADS))


class TestRegistry:
    def test_all_thirteen_registered(self):
        assert len(ALL_WORKLOADS) == 13

    def test_paper_order_is_table_iv(self):
        assert len(PAPER_ORDER) == 12
        assert set(PAPER_ORDER) <= set(ALL_WORKLOADS)
        assert "spmv" not in PAPER_ORDER  # case study only

    def test_shorts_match_registry_keys(self):
        for short, workload in ALL_WORKLOADS.items():
            assert workload.short == short


@pytest.mark.parametrize("short", ALL_SHORTS)
class TestFunctionalCorrectness:
    """The golden interpreter must reproduce each NumPy reference."""

    def test_interpreter_matches_reference(self, short):
        instance = ALL_WORKLOADS[short].build("tiny")
        interp = Interpreter()
        for call in instance.calls():
            interp.run(call.kernel, instance.arrays, call.scalars)
        assert instance.validate(), f"{short}: outputs diverge"

    def test_instance_single_use(self, short):
        instance = ALL_WORKLOADS[short].build("tiny")
        list(instance.calls())
        with pytest.raises(ConfigError, match="consumed"):
            instance.calls()


#: one non-default size kwarg per workload (tiny scale)
SIZE_KWARG = {
    "dis": {"n": 9}, "tra": {"n": 9}, "adi": {"n": 9}, "fdt": {"n": 11},
    "cho": {"n": 9}, "sei": {"n": 11}, "pf": {"cols": 17}, "nw": {"n": 9},
    "bfs": {"num_nodes": 33}, "pr": {"num_nodes": 33}, "pch": {"n": 65},
    "pca": {"n": 13}, "spmv": {"rows": 12},
}


def build_fingerprint(instance):
    """Everything a trace-cache entry stands in for: the objects, the
    initial arrays, the replayed host fields and the NumPy reference."""
    return (
        sorted((name, obj.shape, obj.dtype)
               for name, obj in instance.objects.items()),
        sorted((name, arr.dtype.str, arr.shape, arr.tobytes())
               for name, arr in instance.arrays.items()),
        instance.host_insts_per_call,
        instance.serial_fraction,
        sorted((name, arr.dtype.str, arr.shape, arr.tobytes())
               for name, arr in instance.reference_outputs().items()),
    )


class TestBuildDeterminism:
    """A dataset is a pure function of its functional key: a trace-cache
    hit trusts the interpreting cell's verdict and instance fields, so
    two builds of one key must agree bit for bit."""

    def test_size_kwarg_covers_every_workload(self):
        assert set(SIZE_KWARG) == set(ALL_WORKLOADS)

    @pytest.mark.parametrize("short", ALL_SHORTS)
    @pytest.mark.parametrize("sized", [False, True],
                             ids=["default", "sized"])
    def test_two_builds_agree(self, short, sized):
        kwargs = SIZE_KWARG[short] if sized else {}
        first = ALL_WORKLOADS[short].build("tiny", **kwargs)
        second = ALL_WORKLOADS[short].build("tiny", **kwargs)
        assert build_fingerprint(first) == build_fingerprint(second)
        if sized:
            default = ALL_WORKLOADS[short].build("tiny")
            assert build_fingerprint(first) != build_fingerprint(default)


@pytest.mark.parametrize("short", ALL_SHORTS)
class TestCompilability:
    """Every workload kernel must compile to a Dist-DA offload."""

    def test_offloadable_in_dist_mode(self, short):
        instance = ALL_WORKLOADS[short].build("tiny")
        compiled_any = False
        seen = set()
        for call in instance.calls():
            if id(call.kernel) in seen:
                continue
            seen.add(id(call.kernel))
            ck = compile_kernel(call.kernel, CompileMode.DIST)
            assert not ck.rejected, (
                f"{short}: kernel {call.kernel.name} rejected"
            )
            compiled_any = compiled_any or bool(ck.offloads)
            for off in ck.offloads:
                # object-anchoring invariant: at most one object/partition
                assert off.partitioning.max_objects_per_partition <= 1
        assert compiled_any

    def test_paper_buffer_bound(self, short):
        """Paper Table VI: at most ~3 buffers per partitioned offload."""
        instance = ALL_WORKLOADS[short].build("tiny")
        seen = set()
        for call in instance.calls():
            if id(call.kernel) in seen:
                continue
            seen.add(id(call.kernel))
            ck = compile_kernel(call.kernel, CompileMode.DIST)
            for off in ck.offloads:
                # Table VI: multi-access combining keeps the allocated
                # buffer count low (paper: ~3 per offload; tracking's
                # three-tensor response stage needs a couple more
                # channel buffers here)
                assert off.avg_physical_buffers() <= 6.0


class TestCharacteristicPatterns:
    def test_pch_has_smallest_dfg(self):
        """Paper Table VI: pointer chase is 4 instructions."""
        instance = ALL_WORKLOADS["pch"].build("tiny")
        call = next(iter(instance.calls()))
        ck = compile_kernel(call.kernel, CompileMode.DIST)
        assert ck.offloads[0].num_insts <= 5
        assert ck.offloads[0].serial_chain

    def test_seidel_single_object(self):
        instance = ALL_WORKLOADS["sei"].build("tiny")
        call = next(iter(instance.calls()))
        ck = compile_kernel(call.kernel, CompileMode.DIST)
        assert ck.offloads[0].config.num_partitions == 1

    def test_bfs_uses_predication(self):
        from repro.interface import Intrinsic

        instance = ALL_WORKLOADS["bfs"].build("tiny")
        call = next(iter(instance.calls()))
        ck = compile_kernel(call.kernel, CompileMode.DIST)
        used = ck.coverage.used()
        assert Intrinsic.CP_WRITE in used  # indirect frontier update

    def test_spmv_bounds_are_data_dependent(self):

        instance = ALL_WORKLOADS["spmv"].build("tiny")
        call = next(iter(instance.calls()))
        ck = compile_kernel(call.kernel, CompileMode.DIST)
        loop = ck.offloads[0].loop
        bounds_loads = list(loop.lower.loads()) + list(loop.upper.loads())
        assert bounds_loads  # CSR row pointers feed the inner bounds


def sattolo_by_scalar_draws(n, rng):
    """The pointer-chase cycle as first written, one draw per swap: the
    reference ``make_cycle`` must match."""
    perm = np.arange(n, dtype=np.int64)
    for i in range(n - 1, 0, -1):
        j = rng.integers(0, i)
        perm[i], perm[j] = perm[j], perm[i]
    order = np.empty(n, dtype=np.int64)
    order[perm[:-1]] = perm[1:]
    order[perm[-1]] = perm[0]
    return order


@pytest.mark.parametrize("n", (1, 2, 3, 64, 1000, 16384, 17000))
def test_pointer_chase_cycle_matches_scalar_draws(n):
    """One array draw gives the same cycle as a draw per swap, and
    leaves the generator where they leave it."""
    fast_rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    fast = make_cycle(n, fast_rng)
    ref = sattolo_by_scalar_draws(n, ref_rng)
    assert fast.dtype == ref.dtype
    assert np.array_equal(fast, ref)
    assert fast_rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)
    # one cycle through every node
    node, seen = 0, set()
    for _ in range(n):
        seen.add(node)
        node = int(fast[node])
    assert node == 0 and len(seen) == n
