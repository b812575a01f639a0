"""Interpreter tests: golden semantics vs NumPy, counting, tracing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InterpreterError, IRError
from repro.ir import (
    FLOAT32,
    FLOAT64,
    INT32,
    Assign,
    Interpreter,
    Kernel,
    Loop,
    LoopVar,
    MemObject,
    Scalar,
    Select,
    Store,
    Temp,
    UnaryOp,
    When,
)


def vec_add_kernel(n=16):
    A = MemObject("A", n, FLOAT32)
    B = MemObject("B", n, FLOAT32)
    C = MemObject("C", n, FLOAT32)
    i = LoopVar("i")
    loop = Loop("i", 0, n, [C.store(i, A[i] + B[i])])
    return Kernel("vadd", {"A": A, "B": B, "C": C}, [loop], outputs=["C"])


def make_arrays(kernel, rng=None):
    rng = rng or np.random.default_rng(0)
    out = {}
    for name, obj in kernel.objects.items():
        if obj.dtype.is_float:
            out[name] = rng.random(obj.num_elements).astype(
                obj.dtype.numpy_dtype
            )
        else:
            out[name] = rng.integers(
                0, 100, obj.num_elements
            ).astype(obj.dtype.numpy_dtype)
    return out


class TestBasicExecution:
    def test_vector_add_matches_numpy(self):
        k = vec_add_kernel()
        arrays = make_arrays(k)
        expect = arrays["A"] + arrays["B"]
        Interpreter().run(k, arrays)
        np.testing.assert_allclose(arrays["C"], expect, rtol=1e-6)

    def test_counts_vector_add(self):
        n = 16
        k = vec_add_kernel(n)
        res = Interpreter().run(k, make_arrays(k))
        assert res.counts.loads == 2 * n
        assert res.counts.stores == n
        assert res.counts.float_ops == n  # one add per element
        assert res.counts.loop_overhead == 2 * n
        assert res.inner_iterations == n

    def test_scalar_parameter(self):
        n = 8
        A = MemObject("A", n, FLOAT32)
        B = MemObject("B", n, FLOAT32)
        i = LoopVar("i")
        k = Kernel(
            "scale", {"A": A, "B": B},
            [Loop("i", 0, n, [B.store(i, A[i] * Scalar("alpha"))])],
            scalars={"alpha": 2.0},
        )
        arrays = make_arrays(k)
        a = arrays["A"].copy()
        Interpreter().run(k, arrays, scalars={"alpha": 3.0})
        np.testing.assert_allclose(arrays["B"], a * 3.0, rtol=1e-6)

    def test_temp_dataflow(self):
        n = 4
        A = MemObject("A", n, FLOAT32)
        B = MemObject("B", n, FLOAT32)
        i = LoopVar("i")
        body = [
            Assign("t", A[i] * 2.0),
            B.store(i, Temp("t") + 1.0),
        ]
        k = Kernel("tmp", {"A": A, "B": B}, [Loop("i", 0, n, body)])
        arrays = make_arrays(k)
        a = arrays["A"].copy()
        Interpreter().run(k, arrays)
        np.testing.assert_allclose(arrays["B"], a * 2 + 1, rtol=1e-6)

    def test_2d_stencil(self):
        n = 6
        A = MemObject("A", (n, n), FLOAT64)
        B = MemObject("B", (n, n), FLOAT64)
        i, j = LoopVar("i"), LoopVar("j")
        inner = Loop("j", 1, n - 1, [
            B.store((i, j), (A[i, j - 1] + A[i, j + 1]
                             + A[i - 1, j] + A[i + 1, j]) * 0.25)
        ])
        k = Kernel("stencil", {"A": A, "B": B},
                   [Loop("i", 1, n - 1, [inner])])
        arrays = make_arrays(k)
        a2 = arrays["A"].reshape(n, n)
        expect = 0.25 * (a2[1:-1, :-2] + a2[1:-1, 2:]
                         + a2[:-2, 1:-1] + a2[2:, 1:-1])
        Interpreter().run(k, arrays)
        np.testing.assert_allclose(
            arrays["B"].reshape(n, n)[1:-1, 1:-1], expect, rtol=1e-12
        )

    def test_indirect_gather(self):
        n = 10
        idx = MemObject("idx", n, INT32)
        A = MemObject("A", n, FLOAT32)
        B = MemObject("B", n, FLOAT32)
        i = LoopVar("i")
        k = Kernel("gather", {"idx": idx, "A": A, "B": B},
                   [Loop("i", 0, n, [B.store(i, A[idx[i]])])])
        rng = np.random.default_rng(1)
        arrays = make_arrays(k, rng)
        arrays["idx"] = rng.permutation(n).astype(np.int32)
        expect = arrays["A"][arrays["idx"]]
        Interpreter().run(k, arrays)
        np.testing.assert_allclose(arrays["B"], expect)

    def test_data_dependent_bounds(self):
        """CSR-style inner loop: bounds read from a row-pointer array."""
        ptr = MemObject("ptr", 4, INT32)
        val = MemObject("val", 6, FLOAT32)
        out = MemObject("out", 3, FLOAT32)
        i, j = LoopVar("i"), LoopVar("j")
        inner = Loop("j", ptr[i], ptr[i + 1], [
            out.store(i, out[i] + val[j])
        ])
        k = Kernel("rowsum", {"ptr": ptr, "val": val, "out": out},
                   [Loop("i", 0, 3, [inner])])
        arrays = {
            "ptr": np.array([0, 2, 3, 6], dtype=np.int32),
            "val": np.arange(1, 7, dtype=np.float32),
            "out": np.zeros(3, dtype=np.float32),
        }
        Interpreter().run(k, arrays)
        np.testing.assert_allclose(arrays["out"], [1 + 2, 3, 4 + 5 + 6])


class TestPredication:
    def test_when_executes_conditionally(self):
        n = 8
        A = MemObject("A", n, INT32)
        B = MemObject("B", n, INT32)
        i = LoopVar("i")
        k = Kernel("cond", {"A": A, "B": B}, [
            Loop("i", 0, n, [
                When(A[i].gt(50), [B.store(i, 1)]),
            ])
        ])
        arrays = make_arrays(k)
        arrays["B"][:] = 0
        a = arrays["A"].copy()
        Interpreter().run(k, arrays)
        np.testing.assert_array_equal(arrays["B"], (a > 50).astype(np.int32))

    def test_select(self):
        n = 8
        A = MemObject("A", n, INT32)
        B = MemObject("B", n, INT32)
        i = LoopVar("i")
        k = Kernel("sel", {"A": A, "B": B}, [
            Loop("i", 0, n, [B.store(i, Select(A[i].gt(50), A[i], 0))])
        ])
        arrays = make_arrays(k)
        a = arrays["A"].copy()
        Interpreter().run(k, arrays)
        np.testing.assert_array_equal(arrays["B"], np.where(a > 50, a, 0))


class TestCounting:
    def test_int_vs_float_classification(self):
        n = 4
        A = MemObject("A", n, FLOAT32)
        B = MemObject("B", n, FLOAT32)
        i = LoopVar("i")
        # index math (i*1+0 is folded by us manually: use i directly)
        k = Kernel("c", {"A": A, "B": B}, [
            Loop("i", 0, n, [B.store(i, A[i] / 2.0)])
        ])
        res = Interpreter().run(k, make_arrays(k))
        assert res.counts.complex_ops == n  # division is complex-class
        assert res.counts.float_ops == 0

    def test_sqrt_counted_complex(self):
        n = 4
        A = MemObject("A", n, FLOAT32)
        B = MemObject("B", n, FLOAT32)
        i = LoopVar("i")
        k = Kernel("s", {"A": A, "B": B}, [
            Loop("i", 0, n, [B.store(i, UnaryOp("sqrt", A[i]))])
        ])
        res = Interpreter().run(k, make_arrays(k))
        assert res.counts.complex_ops == n


class TestTrace:
    def test_trace_program_order(self):
        k = vec_add_kernel(3)
        res = Interpreter(record_trace=True).run(k, make_arrays(k))
        objs = [a.obj for a in res.trace]
        assert objs == ["A", "B", "C"] * 3
        writes = [a.is_write for a in res.trace]
        assert writes == [False, False, True] * 3

    def test_trace_off_by_default(self):
        k = vec_add_kernel(3)
        res = Interpreter().run(k, make_arrays(k))
        assert res.trace is None

    def test_site_ids_stable_per_site(self):
        k = vec_add_kernel(4)
        res = Interpreter(record_trace=True).run(k, make_arrays(k))
        site_by_obj = {}
        for acc in res.trace:
            site_by_obj.setdefault(acc.obj, set()).add(acc.site_id)
        # each static site keeps one id across iterations
        assert all(len(s) == 1 for s in site_by_obj.values())


class TestErrors:
    def test_missing_array(self):
        k = vec_add_kernel(4)
        arrays = make_arrays(k)
        del arrays["B"]
        with pytest.raises(InterpreterError, match="missing array"):
            Interpreter().run(k, arrays)

    def test_wrong_size_array(self):
        k = vec_add_kernel(4)
        arrays = make_arrays(k)
        arrays["B"] = arrays["B"][:2]
        with pytest.raises(InterpreterError, match="elements"):
            Interpreter().run(k, arrays)

    def test_out_of_bounds_load(self):
        # dynamic OOB through an indirect index: invisible to the static
        # verifier, caught by the interpreter's runtime bounds check
        idx = MemObject("idx", 4, INT32)
        A = MemObject("A", 4, FLOAT32)
        B = MemObject("B", 4, FLOAT32)
        i = LoopVar("i")
        k = Kernel("oob", {"idx": idx, "A": A, "B": B}, [
            Loop("i", 0, 4, [B.store(i, A[idx[i]])])
        ])
        arrays = make_arrays(k)
        arrays["idx"] = np.array([0, 1, 9, 3], dtype=np.int32)
        with pytest.raises(InterpreterError, match="out of bounds"):
            Interpreter().run(k, arrays)

    def test_statically_out_of_bounds_rejected_by_verifier(self):
        from repro.errors import AnalysisError

        A = MemObject("A", 4, FLOAT32)
        B = MemObject("B", 4, FLOAT32)
        i = LoopVar("i")
        k = Kernel("oob", {"A": A, "B": B}, [
            Loop("i", 0, 4, [B.store(i, A[i + 2])])
        ])
        with pytest.raises(AnalysisError, match="AN-V10"):
            Interpreter().run(k, make_arrays(k))

    def test_undeclared_object_rejected_at_build(self):
        A = MemObject("A", 4, FLOAT32)
        i = LoopVar("i")
        with pytest.raises(IRError, match="undeclared"):
            Kernel("bad", {"A": A}, [
                Loop("i", 0, 4, [Store("Z", i, A[i])])
            ])

    def test_out_of_scope_loopvar_rejected(self):
        A = MemObject("A", 4, FLOAT32)
        j = LoopVar("j")
        with pytest.raises(IRError, match="out of scope"):
            Kernel("bad", {"A": A}, [
                Loop("i", 0, 4, [A.store(j, 0.0)])
            ])

    def test_temp_read_before_assign_rejected(self):
        A = MemObject("A", 4, FLOAT32)
        with pytest.raises(IRError, match="before assignment"):
            Kernel("bad", {"A": A}, [
                Loop("i", 0, 4, [A.store(LoopVar("i"), Temp("t"))])
            ])

    def test_division_by_zero(self):
        A = MemObject("A", 2, INT32)
        B = MemObject("B", 2, INT32)
        i = LoopVar("i")
        k = Kernel("dz", {"A": A, "B": B}, [
            Loop("i", 0, 2, [B.store(i, A[i] / 0)])
        ])
        with pytest.raises(InterpreterError, match="division by zero"):
            Interpreter().run(k, make_arrays(k))


class TestProperties:
    @given(
        n=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_vadd_equivalence_any_size(self, n, seed):
        """Property: interpreter output == NumPy for random vectors."""
        k = vec_add_kernel(n)
        arrays = make_arrays(k, np.random.default_rng(seed))
        expect = arrays["A"] + arrays["B"]
        Interpreter().run(k, arrays)
        np.testing.assert_allclose(arrays["C"], expect, rtol=1e-6)

    @given(n=st.integers(min_value=1, max_value=64))
    @settings(max_examples=20, deadline=None)
    def test_trace_length_equals_access_counts(self, n):
        k = vec_add_kernel(n)
        res = Interpreter(record_trace=True).run(k, make_arrays(k))
        assert len(res.trace) == res.counts.loads + res.counts.stores
