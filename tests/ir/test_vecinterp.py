"""Vectorized-interpreter pinning tests.

The vectorized whole-loop interpreter must be *bit-identical* to the
tree-walking reference on everything it reports — outputs, program-order
trace, op counts, iteration maps, error behavior — falling back per nest
where vectorization can't preserve that. Also pins the interpreter
bugfix sweep that rode along: exact large-magnitude integer division,
zero-step loop errors, and stable (structural) inner-loop keying.
"""

import numpy as np
import pytest

from repro.errors import InterpreterError
from repro.ir import (
    FLOAT32,
    FLOAT64,
    INT64,
    Const,
    Interpreter,
    Kernel,
    Loop,
    LoopVar,
    MemObject,
    UnaryOp,
    When,
)
from repro.ir.vecinterp import VecInterpreter, make_interpreter
from repro.mem.cache import Cache
from repro.params import CacheParams
from repro.testing.genkernel import SHAPES, generate_case
from repro.workloads import ALL_WORKLOADS

OPT_OUT_ENV = "REPRO_NO_VERIFY"


def result_sig(res):
    return (
        res.counts, res.iterations, res.accesses_per_object,
        res.inner_iterations, res.inner_iters_by_loop,
        res.inner_invocations_by_loop,
    )


def run_both(kernel, arrays, scalars=None, check_trace=True):
    """Run scalar and vec interpreters on copies; assert bit-identity."""
    arrays_s = {k: v.copy() for k, v in arrays.items()}
    arrays_v = {k: v.copy() for k, v in arrays.items()}
    res_s = Interpreter(record_trace=check_trace).run(
        kernel, arrays_s, scalars
    )
    vi = VecInterpreter(record_trace=check_trace)
    res_v = vi.run(kernel, arrays_v, scalars)
    assert result_sig(res_s) == result_sig(res_v)
    if check_trace:
        assert res_s.trace == res_v.trace
    for name in arrays_s:
        np.testing.assert_array_equal(arrays_s[name], arrays_v[name],
                                      err_msg=name)
    return res_s, res_v, vi


def rng_arrays(kernel, seed=0):
    rng = np.random.default_rng(seed)
    out = {}
    for name, obj in kernel.objects.items():
        if obj.dtype.is_float:
            out[name] = rng.random(obj.num_elements).astype(
                obj.dtype.numpy_dtype
            )
        else:
            out[name] = rng.integers(0, 100, obj.num_elements).astype(
                obj.dtype.numpy_dtype
            )
    return out


class TestWorkloadIdentity:
    """Every workload's every kernel call: vec == scalar, bit for bit."""

    @pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
    def test_identity_on_tiny(self, name):
        inst_s = ALL_WORKLOADS[name].build("tiny")
        inst_v = ALL_WORKLOADS[name].build("tiny")
        for call_s, call_v in zip(inst_s.calls(), inst_v.calls()):
            res_s = Interpreter(record_trace=True).run(
                call_s.kernel, inst_s.arrays, call_s.scalars
            )
            res_v = VecInterpreter(record_trace=True).run(
                call_v.kernel, inst_v.arrays, call_v.scalars
            )
            assert result_sig(res_s) == result_sig(res_v), name
            assert res_s.trace == res_v.trace, name
        for key in inst_s.arrays:
            np.testing.assert_array_equal(
                inst_s.arrays[key], inst_v.arrays[key]
            )


class TestGeneratedKernelIdentity:
    """Fuzz-shape coverage: every genkernel shape agrees across paths."""

    @pytest.mark.parametrize("shape", SHAPES)
    def test_identity_per_shape(self, shape):
        for seed in range(3):
            case = generate_case(1000 * seed + 17, shape)
            arrays_s = {k: v.copy() for k, v in case.arrays.items()}
            arrays_v = {k: v.copy() for k, v in case.arrays.items()}
            for kname, scalars in case.calls:
                kernel = case.kernel(kname)
                res_s = Interpreter(record_trace=True).run(
                    kernel, arrays_s, scalars
                )
                res_v = VecInterpreter(record_trace=True).run(
                    kernel, arrays_v, scalars
                )
                assert result_sig(res_s) == result_sig(res_v), (shape, seed)
                assert res_s.trace == res_v.trace, (shape, seed)
            for name in arrays_s:
                np.testing.assert_array_equal(
                    arrays_s[name], arrays_v[name]
                )


class TestVectorizationCoverage:
    def vec_add(self, n=32):
        A = MemObject("A", n, FLOAT32)
        B = MemObject("B", n, FLOAT32)
        C = MemObject("C", n, FLOAT32)
        i = LoopVar("i")
        return Kernel(
            "vadd", {"A": A, "B": B, "C": C},
            [Loop("i", 0, n, [C.store(i, A[i] + B[i])])],
            outputs=["C"],
        )

    def reduction(self, n=32):
        A = MemObject("A", n, FLOAT32)
        S = MemObject("S", 1, FLOAT64)
        i = LoopVar("i")
        return Kernel(
            "red", {"A": A, "S": S},
            [Loop("i", 0, n, [S.store(0, S[0] + A[i])])],
            outputs=["S"],
        )

    def test_elementwise_vectorizes(self):
        k = self.vec_add()
        _, _, vi = run_both(k, rng_arrays(k))
        assert vi.vectorized_nests == 1
        assert vi.fallback_nests == 0

    def test_reduction_falls_back(self):
        # non-injective store index: a loop-carried sum must stay scalar
        k = self.reduction()
        arrays = rng_arrays(k)
        arrays["S"] = np.zeros(1, dtype=np.float64)
        _, _, vi = run_both(k, arrays)
        assert vi.vectorized_nests == 0
        assert vi.fallback_nests == 1

    def test_inplace_stencil_falls_back(self):
        # store vector [1..n) vs load vector [0..n-1): unequal -> scalar
        n = 32
        A = MemObject("A", n, FLOAT64)
        i = LoopVar("i")
        k = Kernel(
            "scan", {"A": A},
            [Loop("i", 1, n, [A.store(i, A[i - 1] + A[i])])],
            outputs=["A"],
        )
        _, _, vi = run_both(k, rng_arrays(k))
        assert vi.fallback_nests == 1

    def test_gather_scatter_vectorize(self):
        # indirect addressing is vectorizable: injectivity is a runtime
        # property of the index data, not of the expression shape
        n = 24
        IDX = MemObject("I", n, INT64)
        A = MemObject("A", n, FLOAT64)
        B = MemObject("B", n, FLOAT64)
        i = LoopVar("i")
        k = Kernel(
            "gs", {"I": IDX, "A": A, "B": B},
            [Loop("i", 0, n, [B.store(IDX[i], A[i] * 2.0)])],
            outputs=["B"],
        )
        arrays = rng_arrays(k)
        arrays["I"] = np.random.default_rng(3).permutation(n)
        _, _, vi = run_both(k, arrays)
        assert vi.vectorized_nests == 1

    def test_mixed_nests_merge_trace_segments(self):
        # one vectorized nest + one scalar-fallback nest in a single
        # kernel: the merged trace must interleave exactly in program
        # order and agree with the reference end to end
        n = 16
        A = MemObject("A", n, FLOAT64)
        B = MemObject("B", n, FLOAT64)
        S = MemObject("S", 1, FLOAT64)
        i = LoopVar("i")
        j = LoopVar("j")
        k = Kernel(
            "mixed", {"A": A, "B": B, "S": S},
            [
                Loop("i", 0, n, [B.store(i, A[i] + 1.0)]),
                Loop("j", 0, n, [S.store(0, S[0] + B[j])]),
            ],
            outputs=["B", "S"],
        )
        arrays = rng_arrays(k)
        arrays["S"] = np.zeros(1, dtype=np.float64)
        _, _, vi = run_both(k, arrays)
        assert vi.vectorized_nests == 1
        assert vi.fallback_nests == 1

    def test_three_trace_origins_merge_in_program_order(self):
        # one nest per trace origin: vectorized columns, nestjit's
        # site/index columns, and the tree walker's records (nestjit
        # declines the non-finite constant). Objects are first used in
        # the reverse of their sorted order (Z, R, T, M), so every
        # segment's local object ids must be remapped to merge
        n = 16
        Z = MemObject("Z", n, FLOAT64)
        R = MemObject("R", n, FLOAT64)
        T = MemObject("T", 1, FLOAT64)
        M = MemObject("M", 1, FLOAT64)
        i, j, m = LoopVar("i"), LoopVar("j"), LoopVar("m")
        k = Kernel(
            "origins", {"Z": Z, "R": R, "T": T, "M": M},
            [
                Loop("i", 0, n, [R.store(i, Z[i] * 2.0)]),
                Loop("j", 0, n, [T.store(0, T[0] + R[j] * Z[j])]),
                Loop("m", 0, n, [
                    M.store(0, M[0].min(R[m]).min(Const(float("inf")))),
                ]),
            ],
            outputs=["R", "T", "M"],
        )
        _, _, vi = run_both(k, rng_arrays(k))
        assert vi.vectorized_nests == 1
        assert vi.fallback_nests == 2
        assert vi.jit_nests == 1

    def test_guarded_and_nested_identity(self):
        n = 12
        A = MemObject("A", n * n, FLOAT64)
        B = MemObject("B", n * n, FLOAT64)
        i = LoopVar("i")
        j = LoopVar("j")
        body = [
            When(
                (A[i * n + j]).gt(0.5),
                [B.store(i * n + j, A[i * n + j] * 3.0)],
            )
        ]
        k = Kernel(
            "guard", {"A": A, "B": B},
            [Loop("i", 0, n, [Loop("j", 0, n, body)])],
            outputs=["B"],
        )
        run_both(k, rng_arrays(k))

    def test_zero_trip_loops_identical(self):
        # degenerate bounds: invoked-but-empty loops must still create
        # their iteration-map entries (with zeros) on both paths
        n = 8
        A = MemObject("A", n, FLOAT64)
        B = MemObject("B", n, FLOAT64)
        i = LoopVar("i")
        j = LoopVar("j")
        k = Kernel(
            "ztrip", {"A": A, "B": B},
            [
                Loop("i", 5, 5, [B.store(i, A[i])]),
                Loop("i", 0, n, [Loop("j", i, 2, [
                    B.store(j, A[j] + 1.0)
                ])]),
            ],
            outputs=["B"],
        )
        res_s, res_v, _ = run_both(k, rng_arrays(k))
        assert res_s.iterations["i"] == res_v.iterations["i"]
        assert 0 in res_v.inner_iters_by_loop

    def test_negative_step_identity(self):
        n = 16
        A = MemObject("A", n, FLOAT64)
        B = MemObject("B", n, FLOAT64)
        i = LoopVar("i")
        k = Kernel(
            "down", {"A": A, "B": B},
            [Loop("i", n - 1, -1, [B.store(i, A[i] * 2.0)], step=-1)],
            outputs=["B"],
        )
        run_both(k, rng_arrays(k))


class TestFallbackErrorSemantics:
    """Errors must surface identically: the vec path discards its nest
    and re-runs scalar, so messages and partial state match exactly."""

    def test_oob_store_same_error(self, monkeypatch):
        monkeypatch.setenv(OPT_OUT_ENV, "1")
        n = 8
        A = MemObject("A", n, FLOAT64)
        i = LoopVar("i")
        k = Kernel(
            "oob", {"A": A},
            [Loop("i", 0, n + 4, [A.store(i, Const(1.0))])],
            outputs=["A"],
        )
        arrays = {"A": np.zeros(n)}
        with pytest.raises(InterpreterError, match="out of bounds"):
            Interpreter().run(k, {k2: v.copy()
                                  for k2, v in arrays.items()})
        with pytest.raises(InterpreterError, match="out of bounds"):
            VecInterpreter().run(k, {k2: v.copy()
                                     for k2, v in arrays.items()})

    def test_division_by_zero_same_error(self, monkeypatch):
        monkeypatch.setenv(OPT_OUT_ENV, "1")
        n = 4
        A = MemObject("A", n, INT64)
        B = MemObject("B", n, INT64)
        C = MemObject("C", n, INT64)
        i = LoopVar("i")
        k = Kernel(
            "div0", {"A": A, "B": B, "C": C},
            [Loop("i", 0, n, [C.store(i, A[i] / B[i])])],
            outputs=["C"],
        )
        arrays = {
            "A": np.arange(n, dtype=np.int64),
            "B": np.array([1, 2, 0, 3], dtype=np.int64),
            "C": np.zeros(n, dtype=np.int64),
        }
        for interp in (Interpreter(), VecInterpreter()):
            with pytest.raises(InterpreterError,
                               match="division by zero"):
                interp.run(k, {k2: v.copy() for k2, v in arrays.items()})

    def test_libm_ops_stay_exact(self):
        # exp/log fall back (libm vs numpy may differ in ULPs): outputs
        # must match the scalar reference bit for bit regardless
        n = 16
        A = MemObject("A", n, FLOAT64)
        B = MemObject("B", n, FLOAT64)
        i = LoopVar("i")
        k = Kernel(
            "expk", {"A": A, "B": B},
            [Loop("i", 0, n, [B.store(i, UnaryOp("exp", A[i]))])],
            outputs=["B"],
        )
        run_both(k, rng_arrays(k))


class TestLargeMagnitudeDivision:
    """Regression: ``int(lhs / rhs)`` rounded through float64 corrupted
    quotients once operands passed 2^53; division must truncate exactly
    at any magnitude."""

    def test_exact_trunc_above_2_53(self):
        big = (1 << 53) + 3321
        cases = [
            (big, 7), (-big, 7), (big, -7), (-big, -7),
            ((1 << 61) + 12345, (1 << 30) + 1),
            (-(1 << 61) - 12345, (1 << 30) + 1),
            ((1 << 53) + 1, 1), (-(1 << 53) - 1, 1),
        ]
        n = len(cases)
        A = MemObject("A", n, INT64)
        B = MemObject("B", n, INT64)
        C = MemObject("C", n, INT64)
        i = LoopVar("i")
        k = Kernel(
            "bigdiv", {"A": A, "B": B, "C": C},
            [Loop("i", 0, n, [C.store(i, A[i] / B[i])])],
            outputs=["C"],
        )
        arrays = {
            "A": np.array([c[0] for c in cases], dtype=np.int64),
            "B": np.array([c[1] for c in cases], dtype=np.int64),
            "C": np.zeros(n, dtype=np.int64),
        }
        res_s, _, _ = run_both(k, arrays)
        # python-exact truncation toward zero, no float64 round trip
        expect = [
            -(-a // b) if (a < 0) != (b < 0) else a // b
            for a, b in cases
        ]
        got = list(res_s.arrays["C"])
        assert got == expect
        # the old float64 path provably corrupts the 2^53+1 case
        assert ((1 << 53) + 1) // 1 != int(((1 << 53) + 1) / 1)

    def test_floor_mod_large_identity(self):
        big = (1 << 57) + 99
        n = 4
        A = MemObject("A", n, INT64)
        C = MemObject("C", n, INT64)
        i = LoopVar("i")
        k = Kernel(
            "bigmod", {"A": A, "C": C},
            [Loop("i", 0, n, [C.store(i, A[i] % Const(1000003))])],
            outputs=["C"],
        )
        arrays = {
            "A": np.array([big, -big, big + 1, -big - 1],
                          dtype=np.int64),
            "C": np.zeros(n, dtype=np.int64),
        }
        run_both(k, arrays)


class TestZeroStepLoop:
    """Regression: a zero-step loop reached with verification disabled
    must raise InterpreterError, not leak range()'s bare ValueError."""

    def zero_step_kernel(self):
        n = 4
        A = MemObject("A", n, FLOAT64)
        i = LoopVar("i")
        loop = Loop("i", 0, n, [A.store(i, Const(1.0))])
        loop.step = 0  # Loop.__init__ rejects 0; mutate post-hoc
        return Kernel("zstep", {"A": A}, [loop], outputs=["A"])

    def test_interpreter_error_not_valueerror(self, monkeypatch):
        monkeypatch.setenv(OPT_OUT_ENV, "1")
        k = self.zero_step_kernel()
        for interp in (Interpreter(), VecInterpreter()):
            with pytest.raises(InterpreterError, match="zero step"):
                interp.run(k, {"A": np.zeros(4)})

    def test_an_v14_still_catches_it(self):
        from repro.analysis.verifier import verify_kernel

        k = self.zero_step_kernel()
        findings = verify_kernel(k)
        assert any(f.rule == "AN-V14" for f in findings)


class TestStableLoopKeys:
    """Regression: inner-loop maps were keyed by ``id(loop)``, which
    aliases once the allocator reuses a dead loop's address; structural
    position keys are stable and collision-free."""

    def build(self, n):
        A = MemObject("A", n, FLOAT64)
        B = MemObject("B", n, FLOAT64)
        i = LoopVar("i")
        return Kernel(
            "kk", {"A": A, "B": B},
            [Loop("i", 0, n, [B.store(i, A[i] + 1.0)])],
            outputs=["B"],
        )

    def test_position_keys(self):
        k = self.build(8)
        res = Interpreter().run(k, rng_arrays(k))
        assert set(res.inner_iters_by_loop) == {0}
        assert res.inner_iters_by_loop[0] == 8
        assert res.inner_invocations_by_loop[0] == 1

    def test_sequentially_built_kernels_do_not_collide(self):
        # two structurally-identical kernels built one after the other
        # (the second's loops may reuse the first's freed ids) must each
        # report their own totals under the same stable keys
        results = []
        for n in (8, 16):
            k = self.build(n)
            res = Interpreter().run(k, rng_arrays(k))
            results.append(res.inner_iters_by_loop)
            del k
        assert results[0] == {0: 8}
        assert results[1] == {0: 16}

    def test_innermost_loop_ids_visit_order(self):
        n = 4
        A = MemObject("A", n * n, FLOAT64)
        i = LoopVar("i")
        j = LoopVar("j")
        k = Kernel(
            "two", {"A": A},
            [
                Loop("i", 0, n, [A.store(i, Const(1.0))]),
                Loop("i", 0, n, [Loop("j", 0, n, [
                    A.store(i * n + j, Const(2.0))
                ])]),
            ],
            outputs=["A"],
        )
        ids = k.innermost_loop_ids()
        loops = k.innermost_loops()
        assert [ids[id(l)] for l in loops] == [0, 1]
        res = Interpreter().run(k, {"A": np.zeros(n * n)})
        assert res.inner_iters_by_loop == {0: n, 1: n * n}
        assert res.inner_invocations_by_loop == {0: 1, 1: n}


class TestGateSelection:
    def test_gate_picks_interpreter(self, monkeypatch):
        monkeypatch.setenv("REPRO_REFERENCE", "1")
        assert isinstance(make_interpreter(), Interpreter)
        monkeypatch.setenv("REPRO_REFERENCE", "0")
        assert isinstance(make_interpreter(True), VecInterpreter)

    def test_scalar_override_in_sim(self, monkeypatch):
        # one full tiny simulation per mode: metric-identical results
        from repro.params import experiment_machine
        from repro.sim import simulate_workload

        machine = experiment_machine()
        sigs = []
        for mode in ("0", "1"):
            monkeypatch.setenv("REPRO_REFERENCE", mode)
            r = simulate_workload(
                ALL_WORKLOADS["fdt"].build("tiny"), "ooo",
                machine=machine,
            )
            sigs.append((r.time_ps, r.insts, r.mem_ops, r.energy_nj,
                         r.movement_bytes, r.validated, r.cache_stats))
        assert sigs[0] == sigs[1]


class TestSetLevelCacheWalk:
    """``Cache.access_batch`` must be a drop-in for per-access calls:
    same outcomes, same counters, same final tag/dirty/LRU state."""

    def make_caches(self, size_bytes=4096, ways=4):
        params = CacheParams(size_bytes=size_bytes, ways=ways,
                             latency_cycles=1, mshrs=4)
        return Cache(params, "a"), Cache(params, "b")

    def drive_both(self, lines, make_dirty, caches=None):
        ref, vec = caches or self.make_caches()
        exp_hit = np.zeros(len(lines), dtype=bool)
        exp_vline = np.full(len(lines), -1, dtype=np.int64)
        exp_vdirty = np.zeros(len(lines), dtype=bool)
        for i, (ln, wr) in enumerate(zip(lines.tolist(),
                                         make_dirty.tolist())):
            out = ref.access(ln << ref.line_shift, wr)
            exp_hit[i] = out.hit
            if out.evicted is not None and out.evicted[1]:
                exp_vline[i] = out.evicted[0]
                exp_vdirty[i] = True
        hit, vline, vdirty = vec.access_batch(lines, make_dirty)
        np.testing.assert_array_equal(hit, exp_hit)
        np.testing.assert_array_equal(vline, exp_vline)
        np.testing.assert_array_equal(vdirty, exp_vdirty)
        assert (vec.accesses, vec.hits, vec.misses, vec.writebacks) == (
            ref.accesses, ref.hits, ref.misses, ref.writebacks
        )
        assert vec._sets == ref._sets
        assert [list(s.items()) for s in vec._sets] == [
            list(s.items()) for s in ref._sets
        ]  # LRU order, not just membership

    def test_random_stream(self):
        rng = np.random.default_rng(7)
        lines = rng.integers(0, 512, 4000)
        dirty = rng.random(4000) < 0.3
        self.drive_both(lines, dirty)

    def test_single_set_stream_uses_scalar_valve(self):
        # every access maps to one set: the set-major walk is then one
        # long program-order run through a single set — still exact
        ref, _ = self.make_caches()
        num_sets = ref.num_sets
        rng = np.random.default_rng(11)
        lines = rng.integers(0, 64, 600) * num_sets + 5
        dirty = rng.random(600) < 0.5
        self.drive_both(lines, dirty)

    @pytest.mark.parametrize("size_bytes,ways", [(4096, 1), (2048, 8)])
    def test_warm_state_second_batch(self, size_bytes, ways):
        # the walk carries LRU order and dirty bits across calls: a second
        # batch replays on the state the first one left (a direct-mapped
        # shape, and the experiment L1's 4-set 8-way shape)
        caches = self.make_caches(size_bytes, ways)
        rng = np.random.default_rng(5)
        for _ in range(2):
            lines = rng.integers(0, 96, 1500)
            self.drive_both(lines, rng.random(1500) < 0.4, caches)

    def test_empty_batch(self):
        _, vec = self.make_caches()
        hit, vline, vdirty = vec.access_batch(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
        )
        assert len(hit) == len(vline) == len(vdirty) == 0
        assert vec.accesses == 0
