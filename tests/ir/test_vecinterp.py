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
    INT32,
    INT64,
    Assign,
    BinOp,
    Const,
    Interpreter,
    Kernel,
    Loop,
    LoopVar,
    MemObject,
    Temp,
    UnaryOp,
    When,
)
from repro.ir import vecinterp
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
        # a running sum into one element: a fold with one element per
        # step stays on the fallback
        k = self.reduction()
        arrays = rng_arrays(k)
        arrays["S"] = np.zeros(1, dtype=np.float64)
        _, _, vi = run_both(k, arrays)
        assert vi.vectorized_nests == 0
        assert vi.fallback_nests == 1

    def test_inplace_stencil_falls_back(self):
        # a 1-D scan: only one iteration per wavefront orders it, too
        # narrow for the vector path
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
        k = three_origins_kernel()
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


def three_origins_kernel(n=16):
    Z = MemObject("Z", n, FLOAT64)
    R = MemObject("R", n, FLOAT64)
    T = MemObject("T", 1, FLOAT64)
    M = MemObject("M", 1, FLOAT64)
    i, j, m = LoopVar("i"), LoopVar("j"), LoopVar("m")
    return Kernel(
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


def scatter_fold(op, x_dtype, n, elems, x_left=True, seed=0):
    """``X[d[i]] = X[d[i]] op A[i]`` over ``n`` iterations into ``elems``
    elements, with repeated, unsorted indices."""
    D = MemObject("D", n, INT32)
    A = MemObject("A", n, FLOAT64)
    X = MemObject("X", elems, x_dtype)
    i = LoopVar("i")
    x, r = X[D[i]], A[i]
    value = BinOp(op, x, r) if x_left else BinOp(op, r, x)
    k = Kernel("fold", {"D": D, "A": A, "X": X},
               [Loop("i", 0, n, [X.store(D[i], value)])], outputs=["X"])
    arrays = rng_arrays(k, seed)
    arrays["D"] = np.random.default_rng(seed).integers(
        0, elems, n).astype(np.int32)
    return k, arrays


class TestInPlaceFolds:
    """``X[e] = X[e] op r`` with repeated ``e`` runs on the vector path,
    bit-identical to the tree walker, when it has enough elements per
    step; every other shape that repeats a stored index falls back."""

    def test_indirect_float32_scatter_add(self):
        k, arrays = scatter_fold("+", FLOAT32, 200, 16)
        assert len(np.unique(arrays["D"])) < 200  # repeats, unsorted
        assert not (np.diff(arrays["D"]) >= 0).all()
        _, _, vi = run_both(k, arrays)
        assert vi.vectorized_nests == 1

    def test_pca_cov_shape(self):
        # an affine innermost fold into float32 with float64 terms
        n, d = 24, 5
        D = MemObject("D", (n, d), FLOAT64)
        mean = MemObject("mean", d, FLOAT64)
        cov = MemObject("cov", (d, d), FLOAT32)
        i, j, kk = LoopVar("i"), LoopVar("j"), LoopVar("k")
        inner = Loop("k", 0, n, [
            cov.store((i, j), cov[i, j]
                      + (D[kk, i] - mean[i]) * (D[kk, j] - mean[j])),
        ])
        k = Kernel("cov", {"D": D, "mean": mean, "cov": cov},
                   [Loop("i", 0, d, [Loop("j", 0, d, [inner])])],
                   outputs=["cov"])
        _, _, vi = run_both(k, rng_arrays(k))
        assert vi.vectorized_nests == 1

    @pytest.mark.parametrize("op,x_left", [("-", True), ("+", False)])
    def test_float64_fold(self, op, x_left):
        k, arrays = scatter_fold(op, FLOAT64, 150, 12, x_left=x_left)
        _, _, vi = run_both(k, arrays)
        assert vi.vectorized_nests == 1

    @pytest.mark.parametrize("x_dtype", [FLOAT32, FLOAT64])
    @pytest.mark.parametrize("x_left", [True, False])
    @pytest.mark.parametrize("op", ["min", "max"])
    def test_min_max_fold_with_nan_and_inf(self, op, x_left, x_dtype):
        k, arrays = scatter_fold(op, x_dtype, 120, 10, x_left=x_left)
        specials = [np.nan, np.inf, -np.inf, -0.0, 0.0]
        arrays["A"][::7] = np.resize(specials, len(arrays["A"][::7]))
        arrays["X"][:3] = [np.nan, np.inf, -np.inf]
        _, _, vi = run_both(k, arrays)
        assert vi.vectorized_nests == 1

    def test_int32_fold_leaving_int32_falls_back_with_nothing_committed(
            self):
        # each element's 17th of 40 additions leaves int32: the fold
        # trips its store-dtype guard at a late step, and the fallback
        # must raise the tree walker's error from the original state
        n, elems = 320, 8
        D = MemObject("D", n, INT32)
        A = MemObject("A", n, INT32)
        X = MemObject("X", elems, INT32)
        i = LoopVar("i")
        k = Kernel("ofl", {"D": D, "A": A, "X": X},
                   [Loop("i", 0, n, [X.store(D[i], X[D[i]] + A[i])])],
                   outputs=["X"])
        arrays = {
            "D": np.random.default_rng(1).permutation(
                np.repeat(np.arange(elems), n // elems)).astype(np.int32),
            "A": np.full(n, 2 ** 27, dtype=np.int32),
            "X": np.zeros(elems, dtype=np.int32),
        }
        outs = []
        for interp in (Interpreter(record_trace=True),
                       VecInterpreter(record_trace=True)):
            arrs = {name: v.copy() for name, v in arrays.items()}
            with pytest.raises(OverflowError) as err:
                interp.run(k, arrs)
            outs.append((str(err.value), arrs))
        assert outs[0][0] == outs[1][0]
        for name in arrays:
            np.testing.assert_array_equal(outs[0][1][name], outs[1][1][name])
        assert interp.fallback_reasons == {"int-range": 1}
        assert interp.vectorized_nests == 0

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_injective_fold_vectorizes_at_any_length(self, n):
        A = MemObject("A", n, FLOAT64)
        X = MemObject("X", n, FLOAT32)
        i = LoopVar("i")
        k = Kernel("inj", {"A": A, "X": X},
                   [Loop("i", 0, n, [X.store(i, X[i] * A[i])])],
                   outputs=["X"])
        _, _, vi = run_both(k, rng_arrays(k))
        assert vi.vectorized_nests == 1

    def test_x_read_at_another_index_does_not_fold(self):
        n = 40
        D = MemObject("D", n, INT32)
        A = MemObject("A", n, FLOAT64)
        i = LoopVar("i")
        k = Kernel("other", {"D": D, "A": A},
                   [Loop("i", 0, n, [A.store(D[i], A[D[i]] + A[i])])],
                   outputs=["A"])
        arrays = rng_arrays(k)
        arrays["D"] = np.random.default_rng(2).integers(
            0, 8, n).astype(np.int32)
        _, _, vi = run_both(k, arrays)
        assert vi.fallback_reasons == {"unequal-vectors": 1}

    def test_x_stored_by_a_second_statement_does_not_fold(self):
        # the pca_mean shape: a fold in the inner loop, a rescale after it
        n, d = 16, 6
        D = MemObject("D", (n, d), FLOAT32)
        mean = MemObject("mean", d, FLOAT32)
        j, kk = LoopVar("j"), LoopVar("k")
        k = Kernel("mean", {"D": D, "mean": mean}, [
            Loop("j", 0, d, [
                Loop("k", 0, n, [mean.store(j, mean[j] + D[kk, j])]),
                mean.store(j, mean[j] * (1.0 / n)),
            ]),
        ], outputs=["mean"])
        _, _, vi = run_both(k, rng_arrays(k))
        assert vi.fallback_reasons == {"repeated-index": 1}

    def test_x_inside_its_own_index_does_not_fold(self):
        n = 32
        A = MemObject("A", n, INT64)
        B = MemObject("B", n, INT64)
        i = LoopVar("i")
        k = Kernel("self", {"A": A, "B": B},
                   [Loop("i", 0, n, [A.store(A[i], A[A[i]] + B[i])])],
                   outputs=["A"])
        arrays = {
            "A": np.random.default_rng(3).integers(0, 4, n),
            "B": np.arange(n, dtype=np.int64),
        }
        _, _, vi = run_both(k, arrays)
        assert vi.fallback_reasons == {"unequal-vectors": 1}

    @pytest.mark.parametrize("name,kwargs,folds", [
        ("pr", {"num_nodes": 512}, {"pr_scatter"}),
        ("pca", {"n": 64, "d": 6}, {"pca_cov"}),
    ])
    def test_workload_folds_identity(self, name, kwargs, folds):
        inst_s = ALL_WORKLOADS[name].build("tiny", **kwargs)
        inst_v = ALL_WORKLOADS[name].build("tiny", **kwargs)
        vectorized = set()
        for call_s, call_v in zip(inst_s.calls(), inst_v.calls()):
            res_s = Interpreter(record_trace=True).run(
                call_s.kernel, inst_s.arrays, call_s.scalars)
            vi = VecInterpreter(record_trace=True)
            res_v = vi.run(call_v.kernel, inst_v.arrays, call_v.scalars)
            assert result_sig(res_s) == result_sig(res_v)
            assert res_s.trace == res_v.trace
            if vi.fallback_nests == 0:
                vectorized.add(call_v.kernel.name)
        for key in inst_s.arrays:
            np.testing.assert_array_equal(inst_s.arrays[key],
                                          inst_v.arrays[key])
        assert folds <= vectorized


    def test_generated_folds_reach_both_sides_of_the_width_rule(self):
        # the scatter_add cases test_identity_per_shape draws
        sides = set()
        for seed in range(3):
            case = generate_case(1000 * seed + 17, "scatter_add")
            _, _, vi = run_both(case.kernel("fz_scatter_add"), case.arrays)
            sides.add(tuple(vi.fallback_reasons) or "vector")
        assert sides == {"vector", ("narrow-fold",)}


def unordered_recurrence(n):
    """``A[i, j] = A[i - 1, j + 2] + A[i, j - 1]``: iteration (i, j)
    reads what (i - 1, j + 2) and (i, j - 1) stored."""
    A = MemObject("A", (n, n), FLOAT64)
    i, j = LoopVar("i"), LoopVar("j")
    return Kernel("unordered", {"A": A}, [Loop("i", 1, n, [
        Loop("j", 1, n - 2, [
            A.store((i, j), A[i - 1, j + 2] + A[i, j - 1])]),
    ])], outputs=["A"])


@pytest.fixture
def wavefronts(monkeypatch):
    """The wavefront count of every nest recomputed by wavefronts."""
    counts = []
    recompute = vecinterp._NestRun._recompute

    def spy(self, table, t, stored):
        counts.append(int(np.count_nonzero(np.bincount(t))))
        return recompute(self, table, t, stored)

    monkeypatch.setattr(vecinterp._NestRun, "_recompute", spy)
    return counts


class TestWavefronts:
    """In-place recurrences run on the vector path by wavefronts,
    bit-identical to the tree walker, when a wide enough schedule
    orders them; guarded and unordered ones fall back."""

    @pytest.mark.parametrize("name,kwargs,kernel,waved", [
        ("adi", {"n": 40}, "adi", True),
        ("sei", {"n": 64}, "seidel2d", True),
        ("nw", {"n": 40}, "nw", True),
        ("dis", {"n": 24}, "disp_select", False),
    ])
    def test_workload_recurrences(self, wavefronts, name, kwargs, kernel,
                                  waved):
        inst_s = ALL_WORKLOADS[name].build("tiny", **kwargs)
        inst_v = ALL_WORKLOADS[name].build("tiny", **kwargs)
        seen = 0
        for call_s, call_v in zip(inst_s.calls(), inst_v.calls()):
            res_s = Interpreter(record_trace=True).run(
                call_s.kernel, inst_s.arrays, call_s.scalars)
            vi = VecInterpreter(record_trace=True)
            res_v = vi.run(call_v.kernel, inst_v.arrays, call_v.scalars)
            assert result_sig(res_s) == result_sig(res_v)
            assert res_s.trace == res_v.trace
            if call_v.kernel.name == kernel:
                assert vi.fallback_nests == 0
                seen += 1
        for key in inst_s.arrays:
            np.testing.assert_array_equal(inst_s.arrays[key],
                                          inst_v.arrays[key])
        assert seen
        assert bool(wavefronts) == waved

    def test_negative_step_recurrence(self, wavefronts):
        # ADI's backward substitution: j runs down, reading j + 1
        n = 40
        u = MemObject("u", (n, n), FLOAT32)
        p = MemObject("p", (n, n), FLOAT32)
        q = MemObject("q", (n, n), FLOAT32)
        i, j = LoopVar("i"), LoopVar("j")
        k = Kernel("back", {"u": u, "p": p, "q": q}, [Loop("i", 1, n - 1, [
            Loop("j", n - 2, 0, [
                u.store((i, j), p[i, j] * u[i, j + 1] + q[i, j]),
            ], step=-1),
        ])], outputs=["u"])
        _, _, vi = run_both(k, rng_arrays(k))
        assert vi.vectorized_nests == 1
        assert wavefronts == [n - 2]

    def test_two_statement_recurrence(self, wavefronts):
        # ADI's forward sweep: p and q each carry along j, and q's
        # statement reads p's previous element too
        n = 40
        u = MemObject("u", (n, n), FLOAT64)
        p = MemObject("p", (n, n), FLOAT64)
        q = MemObject("q", (n, n), FLOAT64)
        i, j = LoopVar("i"), LoopVar("j")
        k = Kernel("fwd", {"u": u, "p": p, "q": q}, [Loop("i", 1, n - 1, [
            Loop("j", 1, n - 1, [
                p.store((i, j), -0.25 / (0.25 * p[i, j - 1] + 1.5)),
                q.store((i, j), (u[j, i] - 0.25 * q[i, j - 1])
                        / (0.25 * p[i, j - 1] + 1.5)),
            ]),
        ])], outputs=["p", "q"])
        _, _, vi = run_both(k, rng_arrays(k))
        assert vi.vectorized_nests == 1
        assert wavefronts == [n - 2]

    def test_int32_recurrence_leaving_int32_falls_back_with_nothing_committed(
            self, wavefronts):
        # Pascal's triangle along anti-diagonals: binomials leave int32
        # in wavefront 32 of 77, after the full pass (which reads the
        # committed ones) found nothing out of range
        n = 40
        A = MemObject("A", (n, n), INT32)
        i, j = LoopVar("i"), LoopVar("j")
        k = Kernel("pascal", {"A": A}, [Loop("i", 1, n, [
            Loop("j", 1, n, [A.store((i, j), A[i - 1, j] + A[i, j - 1])]),
        ])], outputs=["A"])
        arrays = {"A": np.ones(n * n, dtype=np.int32)}
        outs = []
        for interp in (Interpreter(record_trace=True),
                       VecInterpreter(record_trace=True)):
            arrs = {name: v.copy() for name, v in arrays.items()}
            with pytest.raises(OverflowError) as err:
                interp.run(k, arrs)
            outs.append((str(err.value), arrs))
        assert outs[0][0] == outs[1][0]
        np.testing.assert_array_equal(outs[0][1]["A"], outs[1][1]["A"])
        assert interp.fallback_reasons == {"int-range": 1}
        assert interp.vectorized_nests == 0
        assert wavefronts == [2 * n - 3]

    def test_guarded_recurrence_falls_back(self, wavefronts):
        n = 40
        A = MemObject("A", (n, n), FLOAT64)
        i, j = LoopVar("i"), LoopVar("j")
        k = Kernel("guarded", {"A": A}, [Loop("i", 0, n, [
            Loop("j", 1, n, [When(A[i, j - 1].gt(0.5), [
                A.store((i, j), A[i, j - 1] * 0.75)])]),
        ])], outputs=["A"])
        _, _, vi = run_both(k, rng_arrays(k))
        assert vi.fallback_reasons == {"unequal-vectors": 1}
        assert wavefronts == []

    def test_unordered_distances_fall_back(self, wavefronts):
        k = unordered_recurrence(40)
        _, _, vi = run_both(k, rng_arrays(k))
        assert vi.fallback_reasons == {"unequal-vectors": 1}
        assert wavefronts == []

    def test_anti_dependence_runs_by_wavefronts(self, wavefronts):
        # iteration (i, j) reads A[i, j + 1] before (i, j + 1) stores
        # it: statement at a time would read the stored value
        n = 40
        A = MemObject("A", (n, n + 1), FLOAT64)
        B = MemObject("B", (n, n + 1), FLOAT64)
        C = MemObject("C", (n, n + 1), FLOAT64)
        i, j = LoopVar("i"), LoopVar("j")
        k = Kernel("war", {"A": A, "B": B, "C": C}, [Loop("i", 0, n, [
            Loop("j", 0, n, [A.store((i, j), B[i, j] * 2.0),
                             C.store((i, j), A[i, j + 1] + 1.0)]),
        ])], outputs=["A", "C"])
        _, _, vi = run_both(k, rng_arrays(k))
        assert vi.vectorized_nests == 1
        assert wavefronts == [n]

    def test_repeated_store_orders_the_schedule(self, wavefronts):
        # S[i + j] is stored by every iteration on an anti-diagonal, the
        # last of them last: t = j, which orders A's recurrence, would
        # run those stores in reverse, so t = i + j runs the nest
        n = 30
        A = MemObject("A", (n, n), FLOAT64)
        S = MemObject("S", 2 * n, FLOAT64)
        i, j = LoopVar("i"), LoopVar("j")
        k = Kernel("diag", {"A": A, "S": S}, [Loop("i", 0, n, [
            Loop("j", 1, n, [A.store((i, j), A[i, j - 1] * 0.5 + 1.0),
                             S.store(i + j, A[i, j] * 2.0)]),
        ])], outputs=["A", "S"])
        _, _, vi = run_both(k, rng_arrays(k))
        assert vi.vectorized_nests == 1
        assert wavefronts == [2 * n - 2]

    def test_conflict_keys_beyond_int64_fall_back(self, monkeypatch):
        # (element, program order) keys that would leave int64
        built = []
        init = vecinterp._Order.__init__

        def spy(self, accs, offsets):
            built.append((accs, offsets))
            init(self, accs, offsets)

        monkeypatch.setattr(vecinterp._Order, "__init__", spy)
        k = unordered_recurrence(20)
        run_both(k, rng_arrays(k))
        monkeypatch.undo()
        accs, offsets = built[-1]
        vecinterp._Order(accs, offsets)
        with pytest.raises(vecinterp._Fallback) as err:
            vecinterp._Order(accs, {obj: off + 2 ** 61
                                    for obj, off in offsets.items()})
        assert err.value.code == "unsupported"

    def test_generated_recurrences_reach_the_wavefronts_and_the_fallback(
            self, wavefronts):
        # the recurrence cases test_identity_per_shape draws
        paths = []
        for seed in range(3):
            case = generate_case(1000 * seed + 17, "recurrence")
            del wavefronts[:]
            _, _, vi = run_both(case.kernel("fz_recurrence"), case.arrays)
            paths.append("wavefronts" if wavefronts
                         else tuple(vi.fallback_reasons))
        assert set(paths) == {"wavefronts", ("unequal-vectors",)}

    def test_one_segment_merge_equals_general_path(self, monkeypatch):
        # a vectorized, a nestjit and a tree-walker segment, each merged
        # alone and merged with an empty segment (the general path)
        segments = []
        merge = VecInterpreter._merge_trace

        def spy(parts):
            segments.extend(parts)
            return merge(parts)

        monkeypatch.setattr(VecInterpreter, "_merge_trace",
                            staticmethod(spy))
        k = three_origins_kernel()
        _, _, vi = run_both(k, rng_arrays(k))
        assert (vi.vectorized_nests, vi.jit_nests, vi.fallback_nests) == (
            1, 1, 2)
        empty = (np.empty(0, np.int32), np.empty(0, np.int16),
                 np.empty(0, np.int64), np.empty(0, bool), ())
        assert len(segments) == 3
        for seg in segments:
            alone, general = merge([seg]), merge([seg, empty])
            assert alone.obj_names == general.obj_names
            for col in ("site", "obj_id", "idx", "is_write"):
                got, want = getattr(alone, col), getattr(general, col)
                assert got.dtype == want.dtype, col
                np.testing.assert_array_equal(got, want, err_msg=col)


class TestFallbackReasons:
    """Every fallback nest is counted under one reason code."""

    @staticmethod
    def reasons(kernel, arrays, raises=None):
        if raises is None:
            vi = run_both(kernel, arrays)[2]
        else:
            vi = VecInterpreter(record_trace=True)
            with pytest.raises(raises):
                vi.run(kernel, arrays)
        assert vi.fallback_nests == sum(vi.fallback_reasons.values())
        return vi.fallback_reasons

    def test_repeated_index(self):
        n = 32
        D = MemObject("D", n, INT32)
        A = MemObject("A", n, FLOAT64)
        B = MemObject("B", 4, FLOAT64)
        i = LoopVar("i")
        # B[e] * 0.5 + A[i]: the load is no operand of the stored op
        k = Kernel("rep", {"D": D, "A": A, "B": B}, [Loop("i", 0, n, [
            B.store(D[i], B[D[i]] * 0.5 + A[i])])], outputs=["B"])
        arrays = rng_arrays(k)
        arrays["D"] = (np.arange(n) % 4).astype(np.int32)
        assert self.reasons(k, arrays) == {"repeated-index": 1}

    def test_unequal_vectors(self):
        # distances (1, -2) and (0, 1) between iterations: no wavefront
        # t = c . (i, j) with coefficients up to 2 orders both
        k = unordered_recurrence(24)
        assert self.reasons(k, rng_arrays(k)) == {"unequal-vectors": 1}

    def test_narrow_wavefront(self):
        # a 1-D scan: ordered only by one iteration per wavefront
        n = 32
        A = MemObject("A", n, FLOAT64)
        i = LoopVar("i")
        k = Kernel("scan", {"A": A},
                   [Loop("i", 1, n, [A.store(i, A[i - 1] + A[i])])],
                   outputs=["A"])
        assert self.reasons(k, rng_arrays(k)) == {"narrow-wavefront": 1}

    def test_aliased(self):
        # two names over one array: the vector path would read A from
        # the committed array while the tree walker sees each B store
        n = 8
        A = MemObject("A", n, FLOAT64)
        B = MemObject("B", n, FLOAT64)
        i = LoopVar("i")
        k = Kernel("alias", {"A": A, "B": B},
                   [Loop("i", 1, n, [B.store(i, A[i - 1] + 1.0)])],
                   outputs=["B"])
        outs = []
        for interp in (Interpreter(record_trace=True),
                       VecInterpreter(record_trace=True)):
            a = np.zeros(n)
            res = interp.run(k, {"A": a, "B": a})
            outs.append((a, res))
        np.testing.assert_array_equal(outs[0][0], np.arange(n, dtype=float))
        np.testing.assert_array_equal(outs[1][0], outs[0][0])
        assert result_sig(outs[0][1]) == result_sig(outs[1][1])
        assert outs[0][1].trace == outs[1][1].trace
        assert interp.fallback_reasons == {"aliased": 1}
        assert interp.jit_nests == 0

    def test_narrow_fold(self):
        k = TestVectorizationCoverage().reduction()
        arrays = rng_arrays(k)
        arrays["S"] = np.zeros(1, dtype=np.float64)
        assert self.reasons(k, arrays) == {"narrow-fold": 1}

    def test_scalar_error(self, monkeypatch):
        monkeypatch.setenv(OPT_OUT_ENV, "1")
        n = 8
        A = MemObject("A", n, FLOAT64)
        i = LoopVar("i")
        k = Kernel("oob", {"A": A},
                   [Loop("i", 0, n + 4, [A.store(i, Const(1.0))])],
                   outputs=["A"])
        assert self.reasons(k, {"A": np.zeros(n)},
                            raises=InterpreterError) == {"scalar-error": 1}

    def test_int_range(self):
        # A*B leaves int64; the scalar path's python ints divide it back
        n = 8
        A = MemObject("A", n, INT64)
        B = MemObject("B", n, INT64)
        C = MemObject("C", n, INT64)
        i = LoopVar("i")
        k = Kernel("wide", {"A": A, "B": B, "C": C},
                   [Loop("i", 0, n, [C.store(i, (A[i] * B[i]) / B[i])])],
                   outputs=["C"])
        arrays = {
            "A": np.full(n, 2 ** 40, dtype=np.int64),
            "B": np.arange(1, n + 1, dtype=np.int64) * 2 ** 30,
            "C": np.zeros(n, dtype=np.int64),
        }
        assert self.reasons(k, arrays) == {"int-range": 1}

    def test_float_semantics(self):
        n = 16
        A = MemObject("A", n, FLOAT64)
        B = MemObject("B", n, FLOAT64)
        i = LoopVar("i")
        k = Kernel("expk", {"A": A, "B": B},
                   [Loop("i", 0, n, [B.store(i, UnaryOp("exp", A[i]))])],
                   outputs=["B"])
        assert self.reasons(k, rng_arrays(k)) == {"float-semantics": 1}

    def test_unsupported(self):
        # a temp assigned under a guard differs per element
        n = 16
        A = MemObject("A", n, FLOAT64)
        B = MemObject("B", n, FLOAT64)
        i = LoopVar("i")
        k = Kernel("cond_temp", {"A": A, "B": B}, [Loop("i", 0, n, [
            When(A[i].gt(0.5), [Assign("t", A[i] * 2.0),
                                B.store(i, Temp("t"))]),
        ])], outputs=["B"])
        assert self.reasons(k, rng_arrays(k)) == {"unsupported": 1}

    def test_codes_of_tiny_workloads(self):
        got = {}
        for name in ("pr", "pca", "adi", "pch"):
            inst = ALL_WORKLOADS[name].build("tiny")
            vi = VecInterpreter(record_trace=True)
            for call in inst.calls():
                vi.run(call.kernel, inst.arrays, call.scalars)
            got[name] = (vi.vectorized_nests, vi.jit_nests,
                         vi.fallback_reasons)
        assert got == {
            "pr": (4, 0, {}),
            "pca": (1, 1, {"repeated-index": 1}),
            "adi": (0, 4, {"narrow-wavefront": 4}),
            "pch": (0, 1, {"repeated-index": 1}),
        }

    def test_counts_reach_run_statistics(self):
        from repro.obs import OBS
        from repro.params import experiment_machine
        from repro.sim import simulate_workload

        OBS.reset()
        simulate_workload(ALL_WORKLOADS["pca"].build("tiny"), "ooo",
                          machine=experiment_machine())
        counters = {name: n for name, n in OBS.counters.items()
                    if name.startswith(("interp.fallback.",
                                        "interp.vec_nests",
                                        "interp.jit_nests"))}
        OBS.reset()
        assert counters == {"interp.vec_nests": 1, "interp.jit_nests": 1,
                            "interp.fallback.repeated-index": 1}


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
