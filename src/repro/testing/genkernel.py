"""Structured kernel/workload generator for the conformance suite.

One seeded RNG in, one well-formed :class:`GeneratedCase` out. The
generator is the single source of kernel-generation truth for every
fuzzing surface in the tree — the hypothesis strategies in
``tests/test_fuzz_pipeline.py`` draw a seed and call into this module —
and it emits the kernel shapes that historically drove real bugs, far
beyond 1-D elementwise: nested loops with affine multi-dimensional
indexing, ``When``-guarded stores over data-dependent predicates,
indirect gather/scatter accesses, loop-carried reductions, in-place
folds through repeated indices (``out[idx[i]] op= f(in[i])``, the
pagerank scatter), in-place 2-D recurrences (``A[i, j] = f(A[i + a,
j + b], ...)``, the Seidel/ADI/NW shape), multi-kernel workloads
chained through a shared intermediate object, large-magnitude INT64
division (operands beyond float64's exact-integer range), and
degenerate loop bounds (zero-trip and statically-dead nests).

Every emitted case is *well-formed by construction*: it passes the
static verifier with no ERROR findings and interprets without dynamic
faults (index arrays are populated with in-bounds values, affine
offsets respect the declared margins). The differential oracle
(:mod:`repro.testing.oracle`) then checks that every execution path
agrees on what the case computes and costs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError
from ..ir import (
    FLOAT32,
    FLOAT64,
    INT32,
    INT64,
    Interpreter,
    Kernel,
    Loop,
    LoopVar,
    MemObject,
    OpCounts,
    Scalar,
    When,
)
from ..ir.expr import BinOp, Expr
from ..ir.stmt import Assign
from ..ir.expr import Temp
from ..workloads.base import KernelCall, WorkloadInstance

#: every shape the generator emits (the fuzz CLI's histogram keys)
SHAPES = (
    "elementwise",
    "nested",
    "guarded",
    "reduction",
    "gather",
    "scatter",
    "multi",
    "intdiv",
    "degenerate",
    "scatter_add",
    "recurrence",
)

#: value-combining ops safe on arbitrary float data (no div-by-zero,
#: no domain errors)
SAFE_OPS = ("+", "-", "*", "min", "max")

#: per-call host-side work constant used by every generated instance
HOST_INSTS_PER_CALL = 50


@dataclass
class GeneratedCase:
    """A self-contained conformance workload: kernels + initial data.

    The case itself is immutable test *data*; :meth:`instance` builds a
    fresh single-use :class:`~repro.workloads.base.WorkloadInstance` per
    simulation run, always starting from the same initial arrays.
    """

    name: str
    shape: str
    seed: int
    kernels: List[Kernel]
    #: execution order: (kernel name, scalar overrides) per dynamic call
    calls: List[Tuple[str, Dict[str, float]]]
    #: initial array contents, keyed by object name
    arrays: Dict[str, np.ndarray]
    outputs: List[str]
    #: optional machine document (sparse deltas against Table III); when
    #: set, the oracle simulates the case on this machine instead of its
    #: default (the random-machine conformance axis)
    machine_doc: Optional[Dict[str, object]] = None
    _golden: Optional[Dict[str, np.ndarray]] = field(
        default=None, repr=False, compare=False)
    _golden_counts: Optional[OpCounts] = field(
        default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    def kernel(self, name: str) -> Kernel:
        for k in self.kernels:
            if k.name == name:
                return k
        raise ConfigError(f"case {self.name!r} has no kernel {name!r}")

    def objects(self) -> Dict[str, MemObject]:
        merged: Dict[str, MemObject] = {}
        for k in self.kernels:
            merged.update(k.objects)
        return merged

    def size(self) -> int:
        """Shrink metric: statements + array elements (smaller = simpler)."""
        def stmts_of(loop: Loop) -> int:
            total = 1
            for s in loop.body:
                if isinstance(s, Loop):
                    total += stmts_of(s)
                elif isinstance(s, When):
                    total += 1 + len(s.body)
                else:
                    total += 1
            return total

        def leaves(value) -> int:
            if isinstance(value, dict):
                return sum(leaves(v) for v in value.values())
            return 1

        stmt_total = sum(
            stmts_of(l) for k in self.kernels for l in k.loops
        )
        elems = sum(a.size for a in self.arrays.values())
        # a machine doc counts per leaf so shrink steps that drop keys
        # (moving toward the reference machine) strictly reduce size
        machine = 0
        if self.machine_doc is not None:
            machine = 100 + 10 * leaves(self.machine_doc)
        return stmt_total * 1000 + elems + len(self.calls) + machine

    # ------------------------------------------------------------------
    def golden_run(self) -> Tuple[Dict[str, np.ndarray], OpCounts]:
        """Golden interpreter execution from the initial arrays.

        Cached: outputs and merged dynamic op counts are reused by every
        oracle path and by the per-instance reference closure.
        """
        if self._golden is None:
            arrays = {k: v.copy() for k, v in self.arrays.items()}
            interp = Interpreter()
            counts = OpCounts()
            for kname, scalars in self.calls:
                res = interp.run(self.kernel(kname), arrays, scalars)
                counts = counts.merged(res.counts)
            self._golden = {name: arrays[name] for name in self.outputs}
            self._golden_counts = counts
        return self._golden, self._golden_counts

    def golden_outputs(self) -> Dict[str, np.ndarray]:
        return self.golden_run()[0]

    # ------------------------------------------------------------------
    def instance(self) -> WorkloadInstance:
        """Build a fresh runnable instance (instances are single-use)."""
        kernels = {k.name: k for k in self.kernels}
        calls = [
            KernelCall(kernels[name], dict(scalars))
            for name, scalars in self.calls
        ]
        golden = {k: v.copy() for k, v in self.golden_outputs().items()}

        def reference(_inputs):
            return {k: v.copy() for k, v in golden.items()}

        return WorkloadInstance(
            name=self.name, short=self.shape[:3],
            objects=self.objects(),
            arrays={k: v.copy() for k, v in self.arrays.items()},
            outputs=list(self.outputs),
            schedule=lambda inst: iter(calls),
            reference=reference,
            host_insts_per_call=HOST_INSTS_PER_CALL,
            atol=1e-4,
        )


# ---------------------------------------------------------------------------
# expression helpers
# ---------------------------------------------------------------------------
def _combine(rng: random.Random, terms: Sequence[Expr]) -> Expr:
    """Fold load terms with random safe ops, optionally scaling one."""
    expr = terms[0]
    for term in terms[1:]:
        expr = BinOp(rng.choice(SAFE_OPS), expr, term)
    if rng.random() < 0.5:
        expr = expr * round(rng.uniform(-2.0, 2.0), 3)
    return expr


def _input_data(rng: random.Random, n: int) -> np.ndarray:
    data = np.random.default_rng(rng.getrandbits(31)).random(n)
    return data.astype(np.float32)


def _index_data(rng: random.Random, n: int, bound: int) -> np.ndarray:
    gen = np.random.default_rng(rng.getrandbits(31))
    return gen.integers(0, bound, size=n).astype(np.int32)


# ---------------------------------------------------------------------------
# shape emitters
# ---------------------------------------------------------------------------
I = LoopVar("i")
J = LoopVar("j")


def _elementwise(rng: random.Random, seed: int) -> GeneratedCase:
    """1-D affine: ``out[i] = f(in0[i+o0], in1[i+o1], ...)``.

    The port of the historical ``tests/test_fuzz_pipeline.py`` strategy:
    always offloadable in every compile mode, one object per partition.
    """
    n = rng.randint(8, 48)
    num_inputs = rng.randint(1, 3)
    margin = 4
    objects = {
        f"in{k}": MemObject(f"in{k}", n + 2 * margin, FLOAT32)
        for k in range(num_inputs)
    }
    out = MemObject("out", n + 2 * margin, FLOAT32)
    objects["out"] = out
    terms = [
        objects[f"in{k}"][I + (margin + rng.randint(-margin, margin))]
        for k in range(num_inputs)
    ]
    scalars: Dict[str, float] = {}
    expr = _combine(rng, terms)
    if rng.random() < 0.3:
        scalars["alpha"] = round(rng.uniform(-1.5, 1.5), 3)
        expr = expr * Scalar("alpha")
    loop = Loop("i", 0, n, [out.store(I + margin, expr)])
    kernel = Kernel("fz_elem", objects, [loop], scalars=scalars,
                    outputs=["out"])
    arrays = {
        name: _input_data(rng, obj.num_elements)
        for name, obj in objects.items()
    }
    return GeneratedCase(
        name=f"elementwise-{seed}", shape="elementwise", seed=seed,
        kernels=[kernel], calls=[("fz_elem", {})], arrays=arrays,
        outputs=["out"],
    )


def _nested(rng: random.Random, seed: int) -> GeneratedCase:
    """2-D loop nest with affine multi-dim indexing (stencil-like)."""
    h = rng.randint(4, 9)
    w = rng.randint(4, 9)
    margin = 2
    h2, w2 = h + 2 * margin, w + 2 * margin
    num_inputs = rng.randint(1, 2)
    objects = {
        f"in{k}": MemObject(f"in{k}", (h2, w2), FLOAT32)
        for k in range(num_inputs)
    }
    out = MemObject("out", (h2, w2), FLOAT32)
    objects["out"] = out
    terms = []
    for k in range(num_inputs):
        taps = rng.randint(1, 3)
        for _ in range(taps):
            dy = rng.randint(-margin, margin)
            dx = rng.randint(-margin, margin)
            terms.append(objects[f"in{k}"][I + (margin + dy),
                                           J + (margin + dx)])
    body: List = []
    expr = _combine(rng, terms)
    if rng.random() < 0.4:
        body.append(Assign("t", expr))
        expr = Temp("t") + round(rng.uniform(-1.0, 1.0), 3)
    body.append(out.store((I + margin, J + margin), expr))
    nest = Loop("i", 0, h, [Loop("j", 0, w, body)])
    kernel = Kernel("fz_nest", objects, [nest], outputs=["out"])
    arrays = {
        name: _input_data(rng, obj.num_elements)
        for name, obj in objects.items()
    }
    return GeneratedCase(
        name=f"nested-{seed}", shape="nested", seed=seed,
        kernels=[kernel], calls=[("fz_nest", {})], arrays=arrays,
        outputs=["out"],
    )


def _guarded(rng: random.Random, seed: int) -> GeneratedCase:
    """``When``-guarded stores: predicate on data or the loop variable."""
    n = rng.randint(8, 40)
    margin = 2
    objects = {
        "in0": MemObject("in0", n + 2 * margin, FLOAT32),
        "out": MemObject("out", n + 2 * margin, FLOAT32),
    }
    in0, out = objects["in0"], objects["out"]
    load = in0[I + margin]
    if rng.random() < 0.5:
        cond = load.gt(round(rng.uniform(0.2, 0.8), 3))
    else:
        cond = I.lt(rng.randint(1, n))
    value = _combine(rng, [load, in0[I + margin + rng.randint(-margin,
                                                             margin)]])
    guarded = [out.store(I + margin, value)]
    if rng.random() < 0.3:
        # nested When: the shape that exposed _stores_of missing stores
        inner_cond = load.lt(round(rng.uniform(0.5, 1.0), 3))
        guarded = [When(inner_cond, guarded)]
    body: List = [When(cond, guarded)]
    if rng.random() < 0.4:
        body.append(out.store(I + margin, value.min(1.0)))
    loop = Loop("i", 0, n, body)
    kernel = Kernel("fz_guard", objects, [loop], outputs=["out"])
    arrays = {
        name: _input_data(rng, obj.num_elements)
        for name, obj in objects.items()
    }
    return GeneratedCase(
        name=f"guarded-{seed}", shape="guarded", seed=seed,
        kernels=[kernel], calls=[("fz_guard", {})], arrays=arrays,
        outputs=["out"],
    )


def _reduction(rng: random.Random, seed: int) -> GeneratedCase:
    """Loop-carried accumulator: ``acc[0] = acc[0] op in[i]``."""
    n = rng.randint(8, 48)
    objects = {
        "in0": MemObject("in0", n, FLOAT32),
        "acc": MemObject("acc", 1, FLOAT32),
    }
    in0, acc = objects["in0"], objects["acc"]
    op = rng.choice(("+", "min", "max"))
    update = BinOp(op, acc[0], in0[I])
    body: List = [acc.store(0, update)]
    outputs = ["acc"]
    if rng.random() < 0.4:
        out = MemObject("out", n, FLOAT32)
        objects["out"] = out
        body.append(out.store(I, in0[I] * round(rng.uniform(0.5, 2.0), 3)))
        outputs.append("out")
    loop = Loop("i", 0, n, body)
    kernel = Kernel("fz_red", objects, [loop], outputs=outputs)
    arrays = {
        name: _input_data(rng, obj.num_elements)
        for name, obj in objects.items()
    }
    return GeneratedCase(
        name=f"reduction-{seed}", shape="reduction", seed=seed,
        kernels=[kernel], calls=[("fz_red", {})], arrays=arrays,
        outputs=outputs,
    )


def _gather(rng: random.Random, seed: int) -> GeneratedCase:
    """Indirect loads: ``out[i] = f(data[idx[i]], ...)``."""
    n = rng.randint(8, 40)
    data_n = rng.randint(8, 64)
    objects = {
        "idx": MemObject("idx", n, INT32),
        "data": MemObject("data", data_n, FLOAT32),
        "out": MemObject("out", n, FLOAT32),
    }
    idx, data, out = objects["idx"], objects["data"], objects["out"]
    terms: List[Expr] = [data[idx[I]]]
    if data_n >= n and rng.random() < 0.5:
        terms.append(data[I])
    expr = _combine(rng, terms)
    loop = Loop("i", 0, n, [out.store(I, expr)])
    kernel = Kernel("fz_gather", objects, [loop], outputs=["out"])
    arrays = {
        "idx": _index_data(rng, n, data_n),
        "data": _input_data(rng, data_n),
        "out": _input_data(rng, n),
    }
    return GeneratedCase(
        name=f"gather-{seed}", shape="gather", seed=seed,
        kernels=[kernel], calls=[("fz_gather", {})], arrays=arrays,
        outputs=["out"],
    )


def _scatter(rng: random.Random, seed: int) -> GeneratedCase:
    """Indirect stores: ``out[idx[i]] = f(in[i])`` (program order decides
    collisions; the golden interpreter defines the winner)."""
    n = rng.randint(8, 40)
    out_n = rng.randint(8, 48)
    objects = {
        "idx": MemObject("idx", n, INT32),
        "in0": MemObject("in0", n, FLOAT32),
        "out": MemObject("out", out_n, FLOAT32),
    }
    idx, in0, out = objects["idx"], objects["in0"], objects["out"]
    value = in0[I] * round(rng.uniform(0.5, 2.0), 3)
    body: List = [out.store(idx[I], value)]
    if rng.random() < 0.3:
        body = [When(in0[I].gt(round(rng.uniform(0.2, 0.6), 3)), body)]
    loop = Loop("i", 0, n, body)
    kernel = Kernel("fz_scatter", objects, [loop], outputs=["out"])
    arrays = {
        "idx": _index_data(rng, n, out_n),
        "in0": _input_data(rng, n),
        "out": _input_data(rng, out_n),
    }
    return GeneratedCase(
        name=f"scatter-{seed}", shape="scatter", seed=seed,
        kernels=[kernel], calls=[("fz_scatter", {})], arrays=arrays,
        outputs=["out"],
    )


def _multi(rng: random.Random, seed: int) -> GeneratedCase:
    """Two kernels chained through a shared intermediate object."""
    n = rng.randint(8, 32)
    margin = 2
    size = n + 2 * margin
    in0 = MemObject("in0", size, FLOAT32)
    mid = MemObject("mid", size, FLOAT32)
    out = MemObject("out", size, FLOAT32)
    o1 = rng.randint(-margin, margin)
    k1 = Kernel(
        "fz_stage1", {"in0": in0, "mid": mid},
        [Loop("i", 0, n,
              [mid.store(I + margin,
                         _combine(rng, [in0[I + margin],
                                        in0[I + margin + o1]]))])],
        outputs=["mid"],
    )
    o2 = rng.randint(-margin, margin)
    k2 = Kernel(
        "fz_stage2", {"mid": mid, "out": out},
        [Loop("i", 0, n,
              [out.store(I + margin,
                         _combine(rng, [mid[I + margin],
                                        mid[I + margin + o2]]))])],
        outputs=["out"],
    )
    calls: List[Tuple[str, Dict[str, float]]] = [
        ("fz_stage1", {}), ("fz_stage2", {}),
    ]
    if rng.random() < 0.3:
        calls.append(("fz_stage2", {}))
    arrays = {
        "in0": _input_data(rng, size),
        "mid": _input_data(rng, size),
        "out": _input_data(rng, size),
    }
    return GeneratedCase(
        name=f"multi-{seed}", shape="multi", seed=seed,
        kernels=[k1, k2], calls=calls, arrays=arrays,
        outputs=["out", "mid"],
    )


def _intdiv(rng: random.Random, seed: int) -> GeneratedCase:
    """Large-magnitude INT64 division/modulo near and beyond 2^53.

    The shape that would have caught the truncating-division bug: the
    interpreter used to compute integer ``/`` as ``int(lhs / rhs)``,
    which round-trips through float64 and silently corrupts quotients
    once operands leave float64's exact-integer range. Numerators
    straddle 2^53 (and optionally reach 2^61) with mixed signs, so any
    path that evaluates division in floating point disagrees with the
    exact truncating reference.
    """
    n = rng.randint(8, 32)
    objects = {
        "num": MemObject("num", n, INT64),
        "den": MemObject("den", n, INT64),
        "quot": MemObject("quot", n, INT64),
    }
    num, den, quot = objects["num"], objects["den"], objects["quot"]
    outputs = ["quot"]
    body: List = [quot.store(I, num[I] / den[I])]
    if rng.random() < 0.6:
        rem = MemObject("rem", n, INT64)
        objects["rem"] = rem
        body.append(rem.store(I, num[I] % den[I]))
        outputs.append("rem")
    loop = Loop("i", 0, n, body)
    kernel = Kernel("fz_intdiv", objects, [loop], outputs=outputs)
    gen = np.random.default_rng(rng.getrandbits(31))
    base = 1 << rng.choice((53, 53, 57, 61))  # bias to the 2^53 boundary
    nums = (base + gen.integers(-(1 << 14), 1 << 14, size=n)
            ) * gen.choice((-1, 1), size=n)
    dens = gen.integers(1, 10, size=n) * gen.choice((-1, 1), size=n)
    arrays = {
        "num": nums.astype(np.int64),
        "den": dens.astype(np.int64),  # never zero by construction
        "quot": np.zeros(n, dtype=np.int64),
    }
    if "rem" in objects:
        arrays["rem"] = np.zeros(n, dtype=np.int64)
    return GeneratedCase(
        name=f"intdiv-{seed}", shape="intdiv", seed=seed,
        kernels=[kernel], calls=[("fz_intdiv", {})], arrays=arrays,
        outputs=outputs,
    )


def _degenerate(rng: random.Random, seed: int) -> GeneratedCase:
    """Zero-trip and degenerate-bound loops.

    A triangular inner bound (``for j in i .. m`` with ``m < n``) makes
    some inner-loop invocations empty, and an optional statically-dead
    nest (``lower == upper``) exercises loops that are *entered* by the
    accounting machinery but never run a body — the corner where
    per-loop iteration maps, offload cost models and the vectorized
    interpreter's closed-form trip counts historically disagree.
    """
    n = rng.randint(6, 12)
    m = rng.randint(1, n - 1)  # inner upper bound < n => empty tails
    objects = {
        "a": MemObject("a", n * n, FLOAT32),
        "out": MemObject("out", n * n, FLOAT32),
    }
    a, out = objects["a"], objects["out"]
    tri = Kernel(
        "fz_tri", objects,
        [Loop("i", 0, n, [Loop("j", I, m, [
            out.store(I * n + J,
                      _combine(rng, [a[I * n + J], a[J]]))
        ])])],
        outputs=["out"],
    )
    kernels = [tri]
    calls: List[Tuple[str, Dict[str, float]]] = [("fz_tri", {})]
    if rng.random() < 0.5:
        lo = rng.randint(0, n - 1)
        dead = Kernel(
            "fz_dead", dict(objects),
            [Loop("i", lo, lo, [out.store(I, a[I] * 2.0)])],
            outputs=["out"],
        )
        kernels.append(dead)
        calls.append(("fz_dead", {}))
    arrays = {
        name: _input_data(rng, obj.num_elements)
        for name, obj in objects.items()
    }
    return GeneratedCase(
        name=f"degenerate-{seed}", shape="degenerate", seed=seed,
        kernels=kernels, calls=calls, arrays=arrays,
        outputs=["out"],
    )


def _scatter_add(rng: random.Random, seed: int) -> GeneratedCase:
    """In-place fold through repeated indices:
    ``out[idx[i]] = out[idx[i]] op f(in0[i])``.

    One or two target elements give a fold with a step per iteration or
    two (the vectorized interpreter leaves it to the fallback); eight or
    more give a wide one (the vectorized interpreter ranks the repeats).
    Accumulators are float32, float64 or int32; int32 terms stay small
    (in {-1, 0, 1} under ``*``) so no sum or product leaves int32.
    """
    n = rng.randint(8, 48)
    out_n = rng.randint(1, 2) if rng.random() < 0.5 else rng.randint(8, 48)
    op = rng.choice(SAFE_OPS)
    acc = rng.choice((FLOAT32, FLOAT64, INT32))
    term_type = INT32 if acc is INT32 else FLOAT32
    objects = {
        "idx": MemObject("idx", n, INT32),
        "in0": MemObject("in0", n, term_type),
        "out": MemObject("out", out_n, acc),
    }
    idx, in0, out = objects["idx"], objects["in0"], objects["out"]
    gen = np.random.default_rng(rng.getrandbits(31))
    if acc is INT32:
        bound = 1 if op == "*" else 50
        data = gen.integers(-bound, bound + 1, size=n).astype(np.int32)
        init = gen.integers(-bound, bound + 1, size=out_n).astype(np.int32)
        term: Expr = in0[I]
        cond = in0[I].ge(0)
    else:
        data = _input_data(rng, n)
        init = _input_data(rng, out_n).astype(acc.numpy_dtype)
        # products of terms near 1 neither overflow nor underflow
        term = (in0[I] + 0.5) if op == "*" else (
            in0[I] * round(rng.uniform(-2.0, 2.0), 3))
        cond = in0[I].gt(round(rng.uniform(0.2, 0.6), 3))
    acc_load = out[idx[I]]
    value = (BinOp(op, acc_load, term) if rng.random() < 0.7
             else BinOp(op, term, acc_load))
    body: List = [out.store(idx[I], value)]
    if rng.random() < 0.3:
        body = [When(cond, body)]
    loop = Loop("i", 0, n, body)
    kernel = Kernel("fz_scatter_add", objects, [loop], outputs=["out"])
    arrays = {
        "idx": _index_data(rng, n, out_n),
        "in0": data,
        "out": init,
    }
    return GeneratedCase(
        name=f"scatter_add-{seed}", shape="scatter_add", seed=seed,
        kernels=[kernel], calls=[("fz_scatter_add", {})], arrays=arrays,
        outputs=["out"],
    )


def _recurrence(rng: random.Random, seed: int) -> GeneratedCase:
    """In-place 2-D recurrence ``A[i, j] = f(A[i + a, j + b], ...)``.

    One to three distances from {-1, 0, 1}^2; a quarter of the cases add
    the pair (-1, 2), (0, -1), which no wavefront ``t = c . (i, j)``
    with coefficients up to 2 orders. Sometimes a second statement
    ``B[i, j] = g(B[i + a, j + b], A[i + a', j + b'])`` reads the first
    one's output, and sometimes a loop runs downward. Grids of 3 to 24
    rows and columns put wavefront schedules on both sides of the
    vectorized interpreter's width rule. Float values are scaled by 0.3
    per step and int32 values reduced modulo 1009, so nothing leaves
    range.
    """
    rows, cols = rng.randint(3, 24), rng.randint(3, 24)
    margin = 2
    dtype = rng.choice((FLOAT64, FLOAT32, INT32))
    shape = (rows + 2 * margin, cols + 2 * margin)
    objects = {"A": MemObject("A", shape, dtype)}
    targets = ["A"]
    if rng.random() < 0.4:
        objects["B"] = MemObject("B", shape, dtype)
        targets.append("B")

    def distance() -> Tuple[int, int]:
        return rng.randint(-1, 1), rng.randint(-1, 1)

    def value(terms: List[Expr]) -> Expr:
        ops = SAFE_OPS if dtype is not INT32 else ("+", "-", "min", "max")
        expr = terms[0]
        for term in terms[1:]:
            expr = BinOp(rng.choice(ops), expr, term)
        return expr % 1009 if dtype is INT32 else expr * 0.3

    a = objects["A"]
    dists = [distance() for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.25:
        dists += [(-1, 2), (0, -1)]
    body: List = [a.store((I, J), value(
        [a[I + di, J + dj] for di, dj in dists]))]
    if "B" in objects:
        b = objects["B"]
        (bi, bj), (ai, aj) = distance(), distance()
        body.append(b.store((I, J), value([b[I + bi, J + bj],
                                           a[I + ai, J + aj]])))
    i_loop = (margin, rows + margin, 1)
    j_loop = (margin, cols + margin, 1)
    if rng.random() < 0.3:
        i_loop = (rows + margin - 1, margin - 1, -1)
    if rng.random() < 0.3:
        j_loop = (cols + margin - 1, margin - 1, -1)
    nest = Loop("i", i_loop[0], i_loop[1], [
        Loop("j", j_loop[0], j_loop[1], body, step=j_loop[2]),
    ], step=i_loop[2])
    kernel = Kernel("fz_recurrence", objects, [nest], outputs=targets)
    gen = np.random.default_rng(rng.getrandbits(31))
    arrays = {}
    for name, obj in objects.items():
        if dtype is INT32:
            arrays[name] = gen.integers(0, 100, obj.num_elements).astype(
                np.int32)
        else:
            arrays[name] = gen.random(obj.num_elements).astype(
                dtype.numpy_dtype)
    return GeneratedCase(
        name=f"recurrence-{seed}", shape="recurrence", seed=seed,
        kernels=[kernel], calls=[("fz_recurrence", {})], arrays=arrays,
        outputs=targets,
    )


_EMITTERS = {
    "elementwise": _elementwise,
    "nested": _nested,
    "guarded": _guarded,
    "reduction": _reduction,
    "gather": _gather,
    "scatter": _scatter,
    "multi": _multi,
    "intdiv": _intdiv,
    "degenerate": _degenerate,
    "scatter_add": _scatter_add,
    "recurrence": _recurrence,
}


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------
def generate_case(seed: int, shape: Optional[str] = None) -> GeneratedCase:
    """Generate one case deterministically from ``(seed, shape)``.

    With ``shape=None`` the seed also picks the shape, uniformly over
    :data:`SHAPES`.
    """
    rng = random.Random(seed)
    if shape is None:
        shape = rng.choice(SHAPES)
    try:
        emit = _EMITTERS[shape]
    except KeyError:
        raise ConfigError(
            f"unknown kernel shape {shape!r}; known: {sorted(_EMITTERS)}"
        ) from None
    return emit(rng, seed)


def case_stream(seed: int, count: int,
                shapes: Sequence[str] = SHAPES) -> Iterator[GeneratedCase]:
    """Yield ``count`` cases; shapes round-robin so short runs still
    cover every shape, with per-case sub-seeds drawn from ``seed``."""
    rng = random.Random(seed)
    for i in range(count):
        shape = shapes[i % len(shapes)]
        yield generate_case(rng.getrandbits(32), shape=shape)


def shape_histogram(cases: Sequence[GeneratedCase]) -> Dict[str, int]:
    hist = {shape: 0 for shape in SHAPES}
    for case in cases:
        hist[case.shape] = hist.get(case.shape, 0) + 1
    return hist
