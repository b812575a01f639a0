"""Whole-loop vectorized golden interpreter (the production interpreter).

The tree-walking :class:`~repro.ir.interp.Interpreter` pays Python
dispatch per dynamic operation; for the affine loop nests that dominate
the workload suite, every iteration evaluates the same expression tree
over a predictable iteration grid. :class:`VecInterpreter` executes one
whole loop nest at a time as numpy array expressions over that grid —
loads become gathers, stores become scatters, the access trace is
emitted as full per-site index vectors interleaved into a
:class:`~repro.ir.trace.ColumnarTrace`, and `OpCounts`, per-loop
iteration totals and ``accesses_per_object`` come out in closed form.

Bit-identity with the scalar interpreter is the contract, not an
approximation: same outputs (same IEEE operation order per element, same
dtype casts), same trace (same program order), same operation counts
(the scalar's *runtime* int/float classification is reproduced through
static-per-node type inference), same error behavior. Wherever the
vectorized semantics could diverge — data-dependent loop-carried flow,
values that leave int64 range, libm-backed ``exp``/``log``, division by
zero, out-of-bounds indices, NaN-sensitive truthiness — the nest falls
back to the scalar interpreter *before any state is committed*: a nest
either executes fully vectorized or exactly as the reference would have.

Legality of vectorizing a nest is decided per memory object at run
time: an object that is stored through more than one dynamic access
vector must see the *same* index vector at every site, and that vector
must be injective (checked with one ``np.unique``). Under that rule the
only loop-carried hazard — a RAW through memory — provably cannot
change any loaded value, so statement-at-a-time array evaluation equals
the scalar interleaving. In-place stencils fail the check and fall
back; gathers, scatters and disjoint-object stencils vectorize.

One repeated index is allowed: an in-place fold, a store
``X[e] = X[e] op r`` with ``op`` one of ``+ - * min max``, where the
load ``X[e]`` is an operand of the stored value and nothing else in the
nest accesses ``X``. Then no load, count or trace entry depends on
``X``'s values, so the nest runs vectorized as above and only ``X``'s
stored values are recomputed: iterations that store to the same
element are ranked by a stable sort of the store vector, and step ``t``
applies every element's ``t``-th update at once, through the same
operator kernel and store-cast guards as any other store. A fold with
many steps per element (a running sum into one element) stays on the
fallback, whose per-iteration cost is lower there (:data:`_FOLD_WIDTH`).

Every fallback carries one reason code (:data:`FALLBACK_CODES`), and
:class:`VecInterpreter` counts fallback nests per code.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..envcfg import reference_enabled
from .expr import (
    COMPLEX_OPS,
    BinOp,
    Const,
    Expr,
    Load,
    LoopVar,
    Scalar,
    Select,
    Temp,
    UnaryOp,
)
from .interp import (
    InterpResult,
    Interpreter,
    InterpreterError,
    OpCounts,
    _apply_binop,
    _apply_unop,
    _State,
)
from .program import Kernel
from .stmt import Assign, Loop, Stmt, Store, When
from .trace import ColumnarTrace
from . import nestjit

_I64_MIN = -(2 ** 63)
_I64_MAX = 2 ** 63 - 1
#: largest integer magnitude exactly representable in float64; int/float
#: comparisons beyond it are exact in Python but rounded in numpy
_F64_EXACT = 2 ** 53

#: why a nest left the vector path, counted per code in
#: :attr:`VecInterpreter.fallback_reasons`:
#: ``repeated-index`` — a stored object repeats an index and is no fold;
#: ``unequal-vectors`` — a stored object is accessed at unequal index
#: vectors; ``narrow-fold`` — a fold with too many steps per element;
#: ``scalar-error`` — the scalar path raises (out of bounds, zero
#: divisor, square root of a negative, unbound name, zero step);
#: ``int-range`` — a value leaves int64 or the stored dtype;
#: ``float-semantics`` — libm ``exp``/``log``, NaN truthiness,
#: ``int(float)``, mixed-type ``min``/``max``/``Select``;
#: ``unsupported`` — a dtype, node kind or statement shape the vector
#: path does not express
FALLBACK_CODES = (
    "repeated-index", "unequal-vectors", "narrow-fold", "scalar-error",
    "int-range", "float-semantics", "unsupported",
)

#: operators of an in-place fold ``X[e] = X[e] op r``
_FOLD_OPS = frozenset(("+", "-", "*", "min", "max"))
#: a fold that repeats an index runs vectorized when its iterations
#: number at least this many times its steps (elements updated per
#: step, on average): each step costs about as much as three compiled
#: fallback iterations (``benchmarks/perf/bench_fold.py``;
#: EXPERIMENTS.md, "In-place folds on the vector path")
_FOLD_WIDTH = 3


class _Fallback(Exception):
    """This nest cannot be vectorized bit-identically; run it scalar."""

    def __init__(self, code: str):
        assert code in FALLBACK_CODES, code
        super().__init__(code)
        self.code = code


class _Seq:
    """Static emission-order counter (mirrors scalar eval order)."""

    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0

    def next(self) -> int:
        self.n += 1
        return self.n


class _Ctx:
    """One loop node's iteration table.

    ``n`` rows in execution order; ``env`` maps loop vars and temps to
    ``(value, is_float)`` where value is an int64/float64 vector over
    the table (or a Python scalar); ``prefix`` holds the hierarchical
    order-key columns of every ancestor level.
    """

    __slots__ = ("n", "env", "prefix", "uid")

    def __init__(self, n: int, env: Dict[str, Tuple[object, bool]],
                 prefix: List[np.ndarray], uid: int):
        self.n = n
        self.env = env
        self.prefix = prefix
        self.uid = uid


class _Emission:
    """One static access site's dynamic accesses for one table."""

    __slots__ = ("cols", "site", "obj", "idx", "is_write", "node_uid",
                 "full")

    def __init__(self, cols: List[np.ndarray], site: int, obj: str,
                 idx: np.ndarray, is_write: bool, node_uid: int,
                 full: bool):
        self.cols = cols
        self.site = site
        self.obj = obj
        self.idx = idx
        self.is_write = is_write
        self.node_uid = node_uid
        self.full = full


class _AccessRecord:
    """Per-object runtime legality bookkeeping (see module docstring)."""

    __slots__ = ("first", "instances", "all_equal", "has_store",
                 "checked_unique", "unique")

    def __init__(self) -> None:
        self.first: Optional[np.ndarray] = None
        self.instances = 0
        self.all_equal = True
        self.has_store = False
        self.checked_unique = False
        self.unique = True


def _int_bounds(value) -> Tuple[int, int]:
    """Exact python-int [min, max] of an int operand (vector or scalar)."""
    if isinstance(value, np.ndarray):
        if value.size == 0:
            return (0, 0)
        return (int(value.min()), int(value.max()))
    return (int(value), int(value))


def _guard_i64(*corners: int) -> None:
    for c in corners:
        if not (_I64_MIN <= c <= _I64_MAX):
            raise _Fallback("int-range")


def _folds(loop: Loop) -> Dict[int, bool]:
    """The nest's in-place folds: ``id(store)`` -> whether ``X[e]`` is
    the left operand, for each store ``X[e] = X[e] op r`` whose object
    the nest accesses nowhere else (at run time, the load's index vector
    must still equal the store's)."""
    accesses: Dict[str, List[object]] = {}  # per object, in visit order

    def visit(stmt: Stmt) -> None:
        exprs = (stmt.cond,) if isinstance(stmt, When) \
            else stmt.expressions()
        for expr in exprs:
            for node in expr.walk():
                if isinstance(node, Load):
                    accesses.setdefault(node.obj, []).append(node)
        if isinstance(stmt, (Loop, When)):
            for inner in stmt.body:
                visit(inner)
        elif isinstance(stmt, Store):
            accesses.setdefault(stmt.obj, []).append(stmt)

    visit(loop)
    folds: Dict[int, bool] = {}
    for nodes in accesses.values():
        if len(nodes) != 2 or not isinstance(nodes[1], Store):
            continue
        load, store = nodes
        value = store.value
        if (isinstance(value, BinOp) and value.op in _FOLD_OPS
                and (value.lhs is load or value.rhs is load)):
            folds[id(store)] = value.lhs is load
    return folds


class _NestRun:
    """Vectorized execution of one top-level loop nest.

    All effects (counts, iteration maps, array writes, trace emissions)
    are buffered locally and added to the shared interpreter state only
    by :meth:`_commit`, after every legality check passed — so a
    :class:`_Fallback` at any point leaves the state untouched for the
    scalar re-run.
    """

    def __init__(self, state: _State, site_ids: Dict[int, int],
                 loop_ids: Dict[int, int], innermost: set,
                 record_trace: bool):
        self.state = state
        self.site_ids = site_ids
        self.loop_ids = loop_ids
        self.innermost = innermost
        self.record_trace = record_trace
        self.counts = OpCounts()
        self.iterations: Dict[str, int] = {}
        self.obj_accesses: Dict[str, int] = {}
        self.inner_iterations = 0
        self.inner_iters: Dict[int, int] = {}
        self.inner_invocs: Dict[int, int] = {}
        self.pending: Dict[str, np.ndarray] = {}
        self.emissions: List[_Emission] = []
        self.access: Dict[str, _AccessRecord] = {}
        #: the nest's in-place fold stores (:func:`_folds`)
        self.folds: Dict[int, bool] = {}
        self._uid = 0

    # -- top level ---------------------------------------------------------
    def execute(self, loop: Loop) -> Optional[Tuple]:
        root = _Ctx(1, {}, [], self._next_uid())
        self.folds = _folds(loop)
        self._exec_loop(loop, root, _Seq())
        self._commit()
        if not self.record_trace:
            return None
        return self._assemble_segment()

    def _next_uid(self) -> int:
        self._uid += 1
        return self._uid

    # -- loops -------------------------------------------------------------
    def _exec_loop(self, loop: Loop, ctx: _Ctx, seq: _Seq) -> None:
        if ctx.n == 0:
            # the enclosing loop never iterates: the scalar interpreter
            # never invokes this one (no bound evals, no map entries)
            return
        lo = self._index_vec(*self._eval(loop.lower, ctx, None, seq), ctx.n)
        up = self._index_vec(*self._eval(loop.upper, ctx, None, seq), ctx.n)
        step = loop.step
        if step == 0:
            raise _Fallback("scalar-error")
        s_loop = seq.next()
        lo_b, up_b = _int_bounds(lo), _int_bounds(up)
        _guard_i64(up_b[0] - lo_b[1] - abs(step),
                   up_b[1] - lo_b[0] + abs(step),
                   lo_b[0] - up_b[1] - abs(step),
                   lo_b[1] - up_b[0] + abs(step))
        if step > 0:
            trips = np.maximum((up - lo + (step - 1)) // step, 0)
        else:
            trips = np.maximum((lo - up + (-step - 1)) // (-step), 0)
        n_c = int(trips.sum())
        if id(loop) in self.innermost:
            key = self.loop_ids[id(loop)]
            self.inner_invocs[key] = self.inner_invocs.get(key, 0) + ctx.n
            self.inner_iters[key] = self.inner_iters.get(key, 0) + n_c
            self.inner_iterations += n_c
        self.iterations[loop.var] = self.iterations.get(loop.var, 0) + n_c
        self.counts.loop_overhead += 2 * n_c

        parent_idx = np.repeat(np.arange(ctx.n, dtype=np.int64), trips)
        starts = np.zeros(ctx.n, dtype=np.int64)
        np.cumsum(trips[:-1], out=starts[1:])
        offs = np.arange(n_c, dtype=np.int64) - starts[parent_idx]
        values = lo[parent_idx] + step * offs
        env = {
            name: ((v[parent_idx], f) if isinstance(v, np.ndarray)
                   else (v, f))
            for name, (v, f) in ctx.env.items()
        }
        env[loop.var] = (values, False)
        prefix = [c[parent_idx] for c in ctx.prefix]
        prefix.append(parent_idx)
        prefix.append(np.full(n_c, s_loop, dtype=np.int64))
        child = _Ctx(n_c, env, prefix, self._next_uid())
        child_seq = _Seq()
        for stmt in loop.body:
            if isinstance(stmt, Loop):
                self._exec_loop(stmt, child, child_seq)
            else:
                self._exec_stmt(stmt, child, None, child_seq)

    # -- statements --------------------------------------------------------
    def _exec_stmt(self, stmt: Stmt, ctx: _Ctx,
                   sel: Optional[np.ndarray], seq: _Seq) -> None:
        if isinstance(stmt, Assign):
            if sel is not None:
                # conditionally-assigned temps diverge per element
                raise _Fallback("unsupported")
            ctx.env[stmt.name] = self._eval(stmt.value, ctx, None, seq)
            return
        if isinstance(stmt, Store):
            self._store(stmt, ctx, sel, seq)
            return
        if isinstance(stmt, When):
            cond, _cf = self._eval(stmt.cond, ctx, sel, seq)
            if not isinstance(cond, np.ndarray):
                if cond:
                    sub = sel
                else:
                    sub = np.empty(0, dtype=np.int64)
            else:
                mask = cond != 0
                base = np.arange(ctx.n, dtype=np.int64) if sel is None \
                    else sel
                sub = base[mask]
            for inner in stmt.body:
                self._exec_stmt(inner, ctx, sub, seq)
            return
        raise _Fallback("unsupported")

    def _store(self, stmt: Store, ctx: _Ctx,
               sel: Optional[np.ndarray], seq: _Seq) -> None:
        m = ctx.n if sel is None else len(sel)
        idx = self._index_vec(*self._eval(stmt.index, ctx, sel, seq), m)
        x_left = self.folds.get(id(stmt))
        if x_left is None:
            value, vf = self._eval(stmt.value, ctx, sel, seq)
        else:
            # X[e] op r: the gathered X[e] goes stale once an element
            # repeats, so only r is kept; _fold reloads X per step
            operands = self._operands(stmt.value, ctx, sel, seq, m)
            r, rf = operands[2:] if x_left else operands[:2]
        arr = self._array(stmt.obj, idx, m)
        self._record_access(stmt.obj, idx, True, fold=x_left is not None)
        if stmt.obj not in self.pending:
            arr = self.pending[stmt.obj] = arr.copy()
        if x_left is None:
            vals = self._materialize(value, vf, m)
            self._guard_store_cast(arr.dtype, vals, vf)
            # duplicate scatter indices: numpy assigns in order, last
            # wins — the same winner the scalar per-iteration order picks
            arr[idx] = vals
        else:
            self._fold(arr, idx, stmt.value.op, x_left, r, rf)
        self.counts.stores += m
        if m:  # the scalar path creates per-object entries lazily
            self.obj_accesses[stmt.obj] = (
                self.obj_accesses.get(stmt.obj, 0) + m
            )
        self._emit(stmt, ctx, sel, seq, stmt.obj, idx, True)

    def _guard_store_cast(self, dtype: np.dtype, vals: np.ndarray,
                          is_float: bool) -> None:
        """Stores where numpy's vector cast and the scalar per-element
        assignment could disagree (or where the scalar path raises) fall
        back: out-of-range ints, and NaN/inf/overflow into int dtypes."""
        if vals.size == 0:
            return
        if dtype.kind == "f":
            return  # int64->float and float64->float32 casts match
        info = np.iinfo(dtype)
        if not is_float:
            lo, hi = _int_bounds(vals)
            if lo < info.min or hi > info.max:
                raise _Fallback("int-range")
            return
        if not np.isfinite(vals).all():
            raise _Fallback("int-range")
        trunc = np.trunc(vals)
        if (trunc < info.min).any() or (trunc > info.max).any():
            raise _Fallback("int-range")

    # -- expressions -------------------------------------------------------
    def _eval(self, expr: Expr, ctx: _Ctx, sel: Optional[np.ndarray],
              seq: _Seq) -> Tuple[object, bool]:
        kind = expr.__class__
        m = ctx.n if sel is None else len(sel)
        if kind is Const:
            return expr.value, isinstance(expr.value, float)
        if kind is LoopVar or kind is Temp:
            entry = ctx.env.get(expr.name)
            if entry is None:
                raise _Fallback("scalar-error")  # "unbound name"
            v, f = entry
            if isinstance(v, np.ndarray) and sel is not None:
                v = v[sel]
            return v, f
        if kind is Scalar:
            try:
                v = self.state.scalars[expr.name]
            except KeyError:
                raise _Fallback("scalar-error") from None
            return v, isinstance(v, float)
        if kind is Load:
            return self._load(expr, ctx, sel, seq, m)
        if kind is BinOp:
            return self._binop(expr.op,
                               *self._operands(expr, ctx, sel, seq, m))
        if kind is UnaryOp:
            val, vf = self._eval(expr.operand, ctx, sel, seq)
            if expr.op in COMPLEX_OPS:
                self.counts.complex_ops += m
            elif vf:
                self.counts.float_ops += m
            else:
                self.counts.int_ops += m
            return self._unop(expr.op, val, vf)
        if kind is Select:
            return self._select(expr, ctx, sel, seq, m)
        raise _Fallback("unsupported")

    def _operands(self, expr: BinOp, ctx: _Ctx, sel: Optional[np.ndarray],
                  seq: _Seq, m: int) -> Tuple[object, bool, object, bool]:
        """A binary op's operands in the scalar evaluation order, with
        the op counted by their static types."""
        lhs, lf = self._eval(expr.lhs, ctx, sel, seq)
        rhs, rf = self._eval(expr.rhs, ctx, sel, seq)
        if expr.op in COMPLEX_OPS:
            self.counts.complex_ops += m
        elif lf or rf:
            self.counts.float_ops += m
        else:
            self.counts.int_ops += m
        return lhs, lf, rhs, rf

    def _load(self, expr: Load, ctx: _Ctx, sel: Optional[np.ndarray],
              seq: _Seq, m: int) -> Tuple[object, bool]:
        idx = self._index_vec(*self._eval(expr.index, ctx, sel, seq), m)
        arr = self._array(expr.obj, idx, m)
        self._record_access(expr.obj, idx, False)
        self.counts.loads += m
        if m:  # the scalar path creates per-object entries lazily
            self.obj_accesses[expr.obj] = (
                self.obj_accesses.get(expr.obj, 0) + m
            )
        self._emit(expr, ctx, sel, seq, expr.obj, idx, False)
        vals = arr[idx]
        if arr.dtype.kind == "f":
            # .item() widens to python float == float64; exact upcast
            return vals.astype(np.float64), True
        return vals.astype(np.int64), False

    def _select(self, expr: Select, ctx: _Ctx, sel: Optional[np.ndarray],
                seq: _Seq, m: int) -> Tuple[object, bool]:
        cond, _cf = self._eval(expr.cond, ctx, sel, seq)
        self.counts.int_ops += m
        if not isinstance(cond, np.ndarray):
            # uniform condition: the scalar path evaluates only the
            # chosen branch in every iteration
            branch = expr.if_true if cond else expr.if_false
            return self._eval(branch, ctx, sel, seq)
        mask = cond != 0  # NaN compares unequal to 0 == truthy, as scalar
        base = np.arange(ctx.n, dtype=np.int64) if sel is None else sel
        t_sel = base[mask]
        f_sel = base[~mask]
        t_val, tf = self._eval(expr.if_true, ctx, t_sel, seq)
        f_val, ff = self._eval(expr.if_false, ctx, f_sel, seq)
        if len(t_sel) == 0:
            out_f = ff
        elif len(f_sel) == 0:
            out_f = tf
        elif tf != ff:
            # per-element result types would diverge
            raise _Fallback("float-semantics")
        else:
            out_f = tf
        dtype = np.float64 if out_f else np.int64
        out = np.empty(m, dtype=dtype)
        out[mask] = self._materialize(t_val, tf, len(t_sel))
        out[~mask] = self._materialize(f_val, ff, len(f_sel))
        return out, out_f

    # -- operator semantics ------------------------------------------------
    def _binop(self, op: str, lhs, lf: bool, rhs, rf: bool):
        if not isinstance(lhs, np.ndarray) and not isinstance(rhs,
                                                              np.ndarray):
            # two runtime constants: defer to the exact scalar kernel
            try:
                res = _apply_binop(op, lhs, rhs)
            except InterpreterError:
                raise _Fallback("scalar-error") from None
            return res, isinstance(res, float)
        out_float = lf or rf
        if op in ("+", "-", "*"):
            if not out_float:
                (a0, a1), (b0, b1) = _int_bounds(lhs), _int_bounds(rhs)
                if op == "+":
                    _guard_i64(a0 + b0, a1 + b1)
                elif op == "-":
                    _guard_i64(a0 - b1, a1 - b0)
                else:
                    _guard_i64(a0 * b0, a0 * b1, a1 * b0, a1 * b1)
                l, r = self._as_i64(lhs), self._as_i64(rhs)
            else:
                l, r = self._as_f64(lhs, lf), self._as_f64(rhs, rf)
            if op == "+":
                return l + r, out_float
            if op == "-":
                return l - r, out_float
            return l * r, out_float
        if op == "/":
            if self._any_zero(rhs):
                # scalar raises (Interpreter/ZeroDivision)
                raise _Fallback("scalar-error")
            if not out_float:
                l, r = self._as_i64(lhs), self._as_i64(rhs)
                if _int_bounds(l)[0] == _I64_MIN and \
                        bool((np.asarray(r) == -1).any()):
                    raise _Fallback("int-range")
                q = np.floor_divide(l, r)
                rem = l - q * r
                # truncate toward zero, as the scalar reference does
                q = q + ((rem != 0) & ((l < 0) != (r < 0)))
                return q, False
            return (self._as_f64(lhs, lf) / self._as_f64(rhs, rf)), True
        if op == "%":
            if self._any_zero(rhs):
                raise _Fallback("scalar-error")  # "modulo by zero"
            if not out_float:
                l, r = self._as_i64(lhs), self._as_i64(rhs)
                if _int_bounds(l)[0] == _I64_MIN and \
                        bool((np.asarray(r) == -1).any()):
                    raise _Fallback("int-range")
                return np.mod(l, r), False
            l = self._as_f64(lhs, lf)
            r = self._as_f64(rhs, rf)
            # CPython float_rem: fmod, sign-adjust, signed-zero fix
            mod = np.fmod(l, r)
            mod = np.where((mod != 0) & ((r < 0) != (mod < 0)),
                           mod + r, mod)
            return np.where(mod == 0, np.copysign(0.0, r), mod), True
        if op in ("min", "max"):
            if lf != rf:
                # result type varies per element
                raise _Fallback("float-semantics")
            l, r = self._aligned(lhs, rhs, lf)
            # np.where mirrors `lhs if lhs <= rhs else rhs` exactly,
            # including NaN and signed-zero behavior
            if op == "min":
                return np.where(l <= r, l, r), lf
            return np.where(l >= r, l, r), lf
        if op in ("==", "!=", "<", "<=", ">", ">="):
            if lf != rf:
                # python compares int/float exactly; numpy rounds the
                # int through float64 first — only safe within 2^53
                iv = rhs if lf else lhs
                b = _int_bounds(iv)
                if b[0] < -_F64_EXACT or b[1] > _F64_EXACT:
                    raise _Fallback("float-semantics")
            l, r = self._aligned(lhs, rhs, lf or rf)
            res = {
                "==": l == r, "!=": l != r, "<": l < r,
                "<=": l <= r, ">": l > r, ">=": l >= r,
            }[op]
            return np.asarray(res).astype(np.int64), False
        if op in ("&", "|", "^", "<<", ">>"):
            if lf or rf:
                # int(float) per element; rare, scalar-only
                raise _Fallback("float-semantics")
            l, r = self._as_i64(lhs), self._as_i64(rhs)
            if op in ("<<", ">>"):
                b = _int_bounds(r)
                if b[0] < 0:
                    raise _Fallback("scalar-error")  # negative shift count
                if b[1] > 62:
                    raise _Fallback("int-range")
                if op == "<<":
                    lb = _int_bounds(l)
                    _guard_i64(lb[0] << b[1], lb[1] << b[1])
                    return np.left_shift(l, r), False
                return np.right_shift(l, r), False
            fn = {"&": np.bitwise_and, "|": np.bitwise_or,
                  "^": np.bitwise_xor}[op]
            return fn(l, r), False
        raise _Fallback("unsupported")

    def _unop(self, op: str, val, vf: bool):
        if not isinstance(val, np.ndarray):
            try:
                res = _apply_unop(op, val)
            except InterpreterError:
                raise _Fallback("scalar-error") from None
            if op in ("exp", "log"):
                # libm vs numpy can differ in ULPs
                raise _Fallback("float-semantics")
            return res, isinstance(res, float)
        if op == "-":
            if not vf:
                b = _int_bounds(val)
                _guard_i64(-b[0], -b[1])
            return -val, vf
        if op == "abs":
            if not vf and _int_bounds(val)[0] == _I64_MIN:
                raise _Fallback("int-range")
            return np.abs(val), vf
        if op == "sqrt":
            v = self._as_f64(val, vf)
            if bool((v < 0).any()):
                raise _Fallback("scalar-error")
            return np.sqrt(v), True
        if op == "floor":
            if not vf:
                return val, False
            if not np.isfinite(val).all():
                raise _Fallback("scalar-error")  # math.floor raises
            fl = np.floor(val)
            if bool((fl < _I64_MIN).any()) or bool((fl > _I64_MAX).any()):
                raise _Fallback("int-range")
            return fl.astype(np.int64), False
        if op == "not":
            if vf and bool(np.isnan(val).any()):
                # NaN is truthy in python, != 0 in numpy
                raise _Fallback("float-semantics")
            return (val == 0).astype(np.int64), False
        if op in ("exp", "log"):
            raise _Fallback("float-semantics")
        raise _Fallback("unsupported")

    # -- operand plumbing --------------------------------------------------
    @staticmethod
    def _any_zero(rhs) -> bool:
        if isinstance(rhs, np.ndarray):
            return bool((rhs == 0).any())
        return rhs == 0

    @staticmethod
    def _as_i64(v) -> np.ndarray:
        if isinstance(v, np.ndarray):
            return v
        _guard_i64(int(v))
        return np.int64(v)

    @staticmethod
    def _as_f64(v, is_float: bool):
        if isinstance(v, np.ndarray):
            return v.astype(np.float64) if v.dtype.kind != "f" else v
        if is_float:
            return np.float64(v)
        try:
            return np.float64(float(v))  # CPython's exact int->float
        except OverflowError:
            raise _Fallback("scalar-error") from None

    def _aligned(self, lhs, rhs, as_float: bool):
        if as_float:
            return self._as_f64(lhs, True), self._as_f64(rhs, True)
        return self._as_i64(lhs), self._as_i64(rhs)

    def _materialize(self, v, is_float: bool, m: int) -> np.ndarray:
        dtype = np.float64 if is_float else np.int64
        if isinstance(v, np.ndarray):
            return v if v.dtype == dtype else v.astype(dtype)
        if not is_float:
            _guard_i64(int(v))
        return np.full(m, v, dtype=dtype)

    def _index_vec(self, v, is_float: bool, m: int) -> np.ndarray:
        """The scalar path computes ``int(eval(index))`` per access."""
        if isinstance(v, np.ndarray):
            if not is_float:
                return v
            if not np.isfinite(v).all():
                # int(nan/inf) raises in the scalar path
                raise _Fallback("scalar-error")
            t = np.trunc(v)
            if bool((t < _I64_MIN).any()) or bool((t > _I64_MAX).any()):
                raise _Fallback("int-range")
            return t.astype(np.int64)
        iv = int(v)
        _guard_i64(iv)
        return np.full(m, iv, dtype=np.int64)

    # -- memory ------------------------------------------------------------
    def _array(self, obj: str, idx: np.ndarray, m: int) -> np.ndarray:
        """The current image of ``obj``, once ``idx`` is known to be a
        legal access vector into it."""
        arr = self.pending.get(obj)
        if arr is None:
            arr = self.state.arrays.get(obj)
        if arr is None:
            raise _Fallback("scalar-error")  # unknown object
        if arr.dtype.kind not in "if":
            raise _Fallback("unsupported")
        if m and (int(idx.min()) < 0 or int(idx.max()) >= arr.size):
            raise _Fallback("scalar-error")  # out of bounds
        return arr

    def _record_access(self, obj: str, idx: np.ndarray,
                       is_write: bool, fold: bool = False) -> None:
        rec = self.access.get(obj)
        if rec is None:
            rec = self.access[obj] = _AccessRecord()
        rec.instances += 1
        rec.has_store = rec.has_store or is_write
        if rec.first is None:
            rec.first = idx
        elif rec.all_equal and not np.array_equal(rec.first, idx):
            rec.all_equal = False
        # fail the nest the moment legality is decided, not at commit —
        # in-place stencils would otherwise pay a full doomed vectorized
        # pass before their scalar re-run
        if rec.has_store and rec.instances > 1:
            if not rec.all_equal:
                raise _Fallback("unequal-vectors")
            if fold:
                return  # the fold store orders its repeats itself
            if not rec.checked_unique:
                rec.checked_unique = True
                rec.unique = bool(
                    np.unique(rec.first).size == rec.first.size
                )
            if not rec.unique:
                raise _Fallback("repeated-index")

    def _fold(self, arr: np.ndarray, idx: np.ndarray, op: str,
              x_left: bool, r, rf: bool) -> None:
        """``arr[idx[k]] = arr[idx[k]] op r[k]`` for k in program order.

        A stable sort of ``idx`` ranks each iteration among the earlier
        ones that store to its element; step t applies every element's
        t-th update at once, so each element sees its updates in order.
        """
        m = len(idx)
        if m == 0:
            return
        order = np.argsort(idx, kind="stable")
        ordered = idx[order]
        pos = np.arange(m)
        head = np.ones(m, dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
        rank = pos - np.maximum.accumulate(np.where(head, pos, 0))
        per_step = np.bincount(rank)
        steps = len(per_step)
        if steps > 1 and steps * _FOLD_WIDTH > m:
            raise _Fallback("narrow-fold")
        # iterations grouped by step, each step's in sorted element order
        by_step = order[np.argsort(rank, kind="stable")]
        elems = idx[by_step]
        if isinstance(r, np.ndarray):
            r = r[by_step]
        cuts = [0]
        cuts.extend(np.cumsum(per_step).tolist())
        xf = arr.dtype.kind == "f"
        wide = np.float64 if xf else np.int64  # the scalar load's .item()
        for t in range(steps):
            a, b = cuts[t], cuts[t + 1]
            e = elems[a:b]
            x = arr[e].astype(wide)
            other = r[a:b] if isinstance(r, np.ndarray) else r
            if x_left:
                vals, vf = self._binop(op, x, xf, other, rf)
            else:
                vals, vf = self._binop(op, other, rf, x, xf)
            self._guard_store_cast(arr.dtype, vals, vf)
            arr[e] = vals

    # -- trace emission ----------------------------------------------------
    def _emit(self, node, ctx: _Ctx, sel: Optional[np.ndarray],
              seq: _Seq, obj: str, idx: np.ndarray,
              is_write: bool) -> None:
        s = seq.next()
        if not self.record_trace:
            return
        full = sel is None
        rows = np.arange(ctx.n, dtype=np.int64) if full else sel
        cols = [c if full else c[sel] for c in ctx.prefix]
        cols.append(rows)
        cols.append(np.full(len(rows), s, dtype=np.int64))
        self.emissions.append(_Emission(
            cols, self.site_ids[id(node)], obj, idx, is_write,
            ctx.uid, full,
        ))

    def _assemble_segment(self) -> Optional[Tuple]:
        """Interleave per-site emissions into program-order columns."""
        ems = self.emissions
        if not ems:
            return None
        names = sorted({e.obj for e in ems})
        name_id = {n: i for i, n in enumerate(names)}
        total = sum(len(e.idx) for e in ems)
        site = np.empty(total, dtype=np.int32)
        obj = np.empty(total, dtype=np.int16)
        idx = np.empty(total, dtype=np.int64)
        w = np.empty(total, dtype=bool)
        k = len(ems)
        if all(e.node_uid == ems[0].node_uid and e.full for e in ems):
            # the common shape: every emission covers the same full
            # table, so program order is a strided interleave
            for j, e in enumerate(ems):
                site[j::k] = e.site
                obj[j::k] = name_id[e.obj]
                idx[j::k] = e.idx
                w[j::k] = e.is_write
            return site, obj, idx, w, tuple(names)
        depth = max(len(e.cols) for e in ems)
        keys = []
        for c in range(depth):
            keys.append(np.concatenate([
                e.cols[c] if c < len(e.cols)
                else np.full(len(e.idx), -1, dtype=np.int64)
                for e in ems
            ]))
        order = np.lexsort(keys[::-1])
        np.concatenate([np.full(len(e.idx), e.site, dtype=np.int32)
                        for e in ems], out=site)
        np.concatenate([np.full(len(e.idx), name_id[e.obj],
                                dtype=np.int16) for e in ems], out=obj)
        np.concatenate([e.idx for e in ems], out=idx)
        np.concatenate([np.full(len(e.idx), e.is_write, dtype=bool)
                        for e in ems], out=w)
        return site[order], obj[order], idx[order], w[order], tuple(names)

    # -- commit ------------------------------------------------------------
    def _commit(self) -> None:
        st = self.state
        st.counts = st.counts.merged(self.counts)
        for k, v in self.iterations.items():
            st.iterations[k] = st.iterations.get(k, 0) + v
        for k, v in self.obj_accesses.items():
            st.obj_accesses[k] = st.obj_accesses.get(k, 0) + v
        st.inner_iterations += self.inner_iterations
        for k, v in self.inner_iters.items():
            st.inner_iters_by_loop[k] = (
                st.inner_iters_by_loop.get(k, 0) + v
            )
        for k, v in self.inner_invocs.items():
            st.inner_invocations_by_loop[k] = (
                st.inner_invocations_by_loop.get(k, 0) + v
            )
        for name, arr in self.pending.items():
            st.arrays[name][...] = arr


class VecInterpreter:
    """Drop-in :class:`~repro.ir.interp.Interpreter` with whole-loop
    vectorized execution per top-level nest and scalar fallback."""

    def __init__(self, record_trace: bool = False):
        self.record_trace = record_trace
        #: nests executed vectorized vs. by the scalar fallback (telemetry
        #: for tests and the bench harness; not part of the result);
        #: ``jit_nests`` counts the subset of fallbacks that ran through
        #: the specialized per-nest compiler instead of the tree walker
        self.vectorized_nests = 0
        self.fallback_nests = 0
        self.jit_nests = 0
        #: fallback nests per reason code (:data:`FALLBACK_CODES`)
        self.fallback_reasons: Dict[str, int] = {}

    def run(self, kernel: Kernel,
            arrays: Dict[str, np.ndarray],
            scalars: Optional[Dict[str, float]] = None) -> InterpResult:
        from ..analysis.verifier import assert_kernel_verified

        assert_kernel_verified(kernel, context="interpreter")
        scalar = Interpreter(record_trace=self.record_trace)
        scalar._check_arrays(kernel, arrays)
        env_scalars = dict(kernel.scalars)
        if scalars:
            env_scalars.update(scalars)
        site_ids = kernel.site_ids()
        loop_ids = kernel.innermost_loop_ids()
        scalar._site_ids = site_ids
        scalar._loop_ids = loop_ids
        state = _State(
            arrays=arrays,
            scalars=env_scalars,
            trace=[] if self.record_trace else None,
        )
        innermost = {id(l) for l in kernel.innermost_loops()}
        # one (site, obj, idx, is_write, names) column segment per nest
        # that recorded accesses, in program order
        segments: List[Tuple] = []
        for nest_index, loop in enumerate(kernel.loops):
            nest = _NestRun(state, site_ids, loop_ids, innermost,
                            self.record_trace)
            try:
                seg = nest.execute(loop)
            except _Fallback as exc:
                self.fallback_nests += 1
                self.fallback_reasons[exc.code] = (
                    self.fallback_reasons.get(exc.code, 0) + 1
                )
                jit = nestjit.compiled_nest(kernel, nest_index, state,
                                            self.record_trace)
                if jit is not None:
                    self.jit_nests += 1
                    seg = jit.execute(state)
                else:
                    scalar._run_loop(loop, state, {}, innermost)
                    seg = self._take_records(state)
            else:
                self.vectorized_nests += 1
            if seg is not None:
                segments.append(seg)
        return InterpResult(
            counts=state.counts,
            arrays=arrays,
            trace=(self._merge_trace(segments)
                   if self.record_trace else None),
            iterations=dict(state.iterations),
            accesses_per_object=dict(state.obj_accesses),
            inner_iterations=state.inner_iterations,
            inner_iters_by_loop=dict(state.inner_iters_by_loop),
            inner_invocations_by_loop=dict(state.inner_invocations_by_loop),
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _take_records(state: _State) -> Optional[Tuple]:
        """The tree walker's records of one nest as a column segment
        (None when it recorded nothing); empties ``state.trace``."""
        if not state.trace:
            return None
        ct = ColumnarTrace.from_records(state.trace)
        state.trace.clear()
        return ct.site, ct.obj_id, ct.idx, ct.is_write, ct.obj_names

    @staticmethod
    def _merge_trace(parts: List[Tuple]) -> ColumnarTrace:
        if not parts:
            return ColumnarTrace.empty()
        all_names = sorted({n for p in parts for n in p[4]})
        name_id = {n: i for i, n in enumerate(all_names)}
        remapped = []
        for s, o, i, w, local in parts:
            lut = np.array([name_id[n] for n in local] or [0],
                           dtype=np.int16)
            remapped.append((s, lut[o], i, w))
        return ColumnarTrace(
            np.concatenate([p[0] for p in remapped]),
            np.concatenate([p[1] for p in remapped]),
            np.concatenate([p[2] for p in remapped]),
            np.concatenate([p[3] for p in remapped]),
            tuple(all_names),
        )


def make_interpreter(record_trace: bool = False):
    """The vectorized interpreter, or the tree-walking reference under
    ``REPRO_REFERENCE=1``."""
    if reference_enabled():
        return Interpreter(record_trace=record_trace)
    return VecInterpreter(record_trace=record_trace)
