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

Legality of vectorizing a nest is decided on the index vectors the
full pass builds. The pass runs the nest statement at a time: in the
order (body site, iteration). Every pair of accesses to one element of
a stored object from two different iterations, at least one of them a
store, must keep its scalar order under the order the nest runs in.
The stores sorted by (element, program order), and each load's place
among them, yield the pairs to check: each store against its element's
previous store, each load against the last store of its element before
it and the first after it (:class:`_Order`). An object that one
iteration alone accesses per element needs no test; its vectors are
equal and injective. Gathers, scatters, guarded
updates of the element an iteration owns and disjoint-object stencils
pass statement at a time. The test reasons per object name, so a call
in which two names share memory runs every nest on the tree walker.

An in-place recurrence (Seidel-2D, ADI's sweeps, Needleman-Wunsch)
fails that order, and may pass a wavefront schedule: the order
(wavefront, body site, iteration) with wavefront ``t = c . k``, ``k``
the per-loop iteration counters and ``c`` a small non-negative integer
vector. The schedules are tried fewest wavefronts first. A wavefront
nest must keep its trace and counts independent of values: every
access of every stored object in one iteration table, and no ``When``,
``Select``, fold, or load (directly or through a temp) in a subscript
or loop bound. The full pass then still emits the trace and counts;
only the stored values are recomputed, wavefront by wavefront, from the
committed arrays, through the same operator kernels and store-cast
guards, so a guard that trips in a late wavefront commits nothing. A
schedule with fewer rows per wavefront than :data:`_WAVE_WIDTH` stays
on the fallback, whose per-iteration cost is lower there.

Folds are ordered by a schedule of their own: an in-place fold, a store
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

import itertools
import math
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
#: :attr:`VecInterpreter.fallback_reasons`. For a nest that no
#: admissible schedule orders: ``repeated-index`` — a stored object
#: repeats an index and is no fold; ``unequal-vectors`` — a stored
#: object is accessed at unequal index vectors. Then:
#: ``narrow-fold`` — a fold with too many steps per element;
#: ``narrow-wavefront`` — only a schedule with too few rows per
#: wavefront orders the nest;
#: ``scalar-error`` — the scalar path raises (out of bounds, zero
#: divisor, square root of a negative, unbound name, zero step);
#: ``int-range`` — a value leaves int64 or the stored dtype;
#: ``float-semantics`` — libm ``exp``/``log``, NaN truthiness,
#: ``int(float)``, mixed-type ``min``/``max``/``Select``;
#: ``unsupported`` — a dtype, node kind or statement shape the vector
#: path does not express, or a conflict test too large for int64
#: keys; ``aliased`` — two of the kernel's object names share memory
FALLBACK_CODES = (
    "repeated-index", "unequal-vectors", "narrow-fold", "narrow-wavefront",
    "scalar-error", "int-range", "float-semantics", "unsupported",
    "aliased",
)

#: operators of an in-place fold ``X[e] = X[e] op r``
_FOLD_OPS = frozenset(("+", "-", "*", "min", "max"))
#: a fold that repeats an index runs vectorized when its iterations
#: number at least this many times its steps (elements updated per
#: step, on average): each step costs about as much as three compiled
#: fallback iterations (``benchmarks/perf/bench_fold.py``;
#: EXPERIMENTS.md, "In-place folds on the vector path")
_FOLD_WIDTH = 3
#: a wavefront schedule runs vectorized when its iterations number at
#: least this many times its wavefronts: each wavefront costs about as
#: much as 8 to 16 compiled fallback iterations
#: (``benchmarks/perf/bench_fold.py``; EXPERIMENTS.md, "In-place
#: recurrences on the vector path")
_WAVE_WIDTH = 12
#: the conflict test of a nest that no wavefront can order looks at
#: every this-many-th element first, and the test of a wavefront
#: schedule at every this-many-th pair
_SAMPLE = 61
#: largest loop depth whose wavefront schedules are tried, and the
#: largest per-loop coefficient
_WAVE_DEPTH = 3
_WAVE_COEF = 2


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
    the table (or a Python scalar), and ``env0`` is ``env`` before the
    loop body assigned any temp; ``prefix`` holds the hierarchical
    order-key columns of every ancestor level. ``loop`` is the table's
    loop node, ``up`` the enclosing table, ``parent_idx`` each row's
    row in ``up`` and ``offs`` each row's iteration counter of ``loop``
    (all None for the root table).
    """

    __slots__ = ("n", "env", "env0", "prefix", "loop", "up",
                 "parent_idx", "offs")

    def __init__(self, n: int, env: Dict[str, Tuple[object, bool]],
                 prefix: List[np.ndarray],
                 loop: Optional[Loop] = None, up: Optional["_Ctx"] = None,
                 parent_idx: Optional[np.ndarray] = None,
                 offs: Optional[np.ndarray] = None):
        self.n = n
        self.env = env
        self.env0 = dict(env)
        self.prefix = prefix
        self.loop = loop
        self.up = up
        self.parent_idx = parent_idx
        self.offs = offs

    def counters(self) -> List[np.ndarray]:
        """Per-loop iteration counters of every row, outermost first."""
        cols = []
        rows = None
        ctx = self
        while ctx.loop is not None:
            cols.append(ctx.offs if rows is None else ctx.offs[rows])
            rows = ctx.parent_idx if rows is None else ctx.parent_idx[rows]
            ctx = ctx.up
        return cols[::-1]


class _Access:
    """One static access site's dynamic accesses for one table: rows
    ``sel`` of ``ctx`` (all rows when None), emitted ``seq``-th in the
    table's scalar evaluation order."""

    __slots__ = ("node", "obj", "idx", "is_write", "ctx", "sel", "seq")

    def __init__(self, node, obj: str, idx: np.ndarray, is_write: bool,
                 ctx: _Ctx, sel: Optional[np.ndarray], seq: int):
        self.node = node
        self.obj = obj
        self.idx = idx
        self.is_write = is_write
        self.ctx = ctx
        self.sel = sel
        self.seq = seq

    def rows(self) -> np.ndarray:
        if self.sel is None:
            return np.arange(self.ctx.n, dtype=np.int64)
        return self.sel

    def sample(self, stride: int) -> "_Access":
        """The accesses to elements that ``stride`` divides."""
        keep = self.idx % stride == 0
        return _Access(self.node, self.obj, self.idx[keep], self.is_write,
                       self.ctx, self.rows()[keep], self.seq)

    def order_cols(self) -> List[np.ndarray]:
        """Hierarchical program-order key columns of every access."""
        sel = self.sel
        cols = [c if sel is None else c[sel] for c in self.ctx.prefix]
        cols.append(self.rows())
        cols.append(np.full(len(self.idx), self.seq, dtype=np.int64))
        return cols


class _Order:
    """The pairs of accesses to one element, at least one a store, whose
    order every schedule must keep, each as (earlier row, later row) in
    scalar order: each store after its element's previous store, each
    load after the last store of its element before it and before the
    first store after it. The stores sorted by (element, program
    order), and each load's place among them, yield the pairs.

    ``tie[k]`` says whether pair ``k`` runs in order statement at a
    time, i.e. in the order (access record, row); a wavefront schedule
    runs it in order when ``t(later row) - t(earlier row) + tie > 0``.
    """

    def __init__(self, accs: List[_Access], offsets: Dict[str, int]):
        accs = [a for a in accs if len(a.idx)]
        self.objs = [a.obj for a in accs]
        if not accs:
            self.row_b = self.row_a = self.rec_a = np.empty(0, np.int64)
            self.tie = np.empty(0, dtype=bool)
            return
        k = len(accs)
        lens = [len(a.idx) for a in accs]
        elems = [a.idx + offsets[a.obj] for a in accs]
        if all(a.ctx is accs[0].ctx for a in accs):
            # one table: (row, record) is program order
            span, rank = accs[0].ctx.n * k, None
        else:
            span = sum(lens)
            rank = np.empty(span, dtype=np.int64)
            rank[_program_order(accs)] = np.arange(span)
        if (max(int(e.max()) for e in elems) + 1) * span >= 2 ** 62:
            raise _Fallback("unsupported")  # the keys would leave int64
        cuts = np.cumsum([0] + lens).tolist()

        def key(j: int) -> np.ndarray:
            """(element, program order) of record ``j``'s accesses."""
            if rank is None:
                return elems[j] * span + (accs[j].rows() * k + j)
            return elems[j] * span + rank[cuts[j]:cuts[j + 1]]

        st = [j for j, a in enumerate(accs) if a.is_write]
        s_key = np.concatenate([key(j) for j in st] + [np.empty(0, np.int64)])
        # each record's keys mostly ascend: a few long runs to merge
        order = np.argsort(s_key, kind="stable")
        s_key = s_key[order]
        s_rec = np.repeat(np.array(st, dtype=np.int64),
                          [lens[j] for j in st])[order]
        s_row = np.concatenate([accs[j].rows() for j in st]
                               + [np.empty(0, np.int64)])[order]
        # a store of no element at each end: at a load's place ``pos``
        # among the stores, ``below[pos]`` is the element of the store
        # before it and ``above[pos]`` that of the store after it
        s_elem = np.concatenate(([-1], s_key // span, [-1]))
        below, above = s_elem[:-1], s_elem[1:]
        q = np.flatnonzero(s_elem[1:-2] == s_elem[2:-1])
        parts = [(s_row[q], s_row[q + 1], s_rec[q + 1],
                  (s_rec[q] < s_rec[q + 1])
                  | ((s_rec[q] == s_rec[q + 1]) & (s_row[q] < s_row[q + 1])))]
        for j, a in enumerate(accs):
            if a.is_write:
                continue
            pos = np.searchsorted(s_key, key(j))
            rows = a.rows()
            prev = np.flatnonzero(below[pos] == elems[j])
            q = pos[prev] - 1
            parts.append((s_row[q], rows[prev],
                          np.full(len(q), j, dtype=np.int64), s_rec[q] < j))
            nxt = np.flatnonzero(above[pos] == elems[j])
            q = pos[nxt]
            parts.append((rows[nxt], s_row[q], s_rec[q], j < s_rec[q]))
        self.row_b, self.row_a, self.rec_a, self.tie = (
            np.concatenate(col) for col in zip(*parts))

    def failing_objects(self) -> set:
        """Objects of the pairs out of order statement at a time."""
        recs = np.unique(self.rec_a[~self.tie])
        return {self.objs[r] for r in recs.tolist()}

    def wave_ordered(self, counters: List[np.ndarray],
                     coefs: Tuple[int, ...]) -> bool:
        """Whether ``t = coefs . counters`` keeps every pair in order
        (checked on every :data:`_SAMPLE`-th pair first, so a schedule
        that fails usually fails at a fraction of the cost)."""
        for sl in (slice(None, None, _SAMPLE), slice(None)):
            rb, ra = self.row_b[sl], self.row_a[sl]
            gap = self.tie[sl].astype(np.int64)
            for c, k in zip(coefs, counters):
                if c:
                    gap += c * (k[ra] - k[rb])
            if not bool((gap > 0).all()):
                return False
        return True


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


def _values_steer(loop: Loop) -> bool:
    """Whether a loaded value can change the nest's trace or counts: a
    ``When`` or ``Select``, or a load (directly or through a temp) in a
    subscript or loop bound."""
    assigns: List[Assign] = []
    keyed: List[Expr] = []  # subscripts and loop bounds
    stack: List[Stmt] = [loop]
    while stack:
        stmt = stack.pop()
        if isinstance(stmt, When):
            return True
        if isinstance(stmt, Loop):
            stack.extend(stmt.body)
            keyed.extend((stmt.lower, stmt.upper))
        elif isinstance(stmt, Assign):
            assigns.append(stmt)
        elif isinstance(stmt, Store):
            keyed.append(stmt.index)
        for expr in stmt.expressions():
            for node in expr.walk():
                if isinstance(node, Select):
                    return True
                if isinstance(node, Load):
                    keyed.append(node.index)
    loaded: set = set()  # temps that carry a loaded value

    def reads_load(expr: Expr) -> bool:
        return any(isinstance(n, Load)
                   or (isinstance(n, Temp) and n.name in loaded)
                   for n in expr.walk())

    grew = True
    while grew:
        grew = False
        for a in assigns:
            if a.name not in loaded and reads_load(a.value):
                loaded.add(a.name)
                grew = True
    return any(reads_load(expr) for expr in keyed)


def _program_order(accs: List["_Access"]) -> np.ndarray:
    """The permutation that puts the concatenated accesses of ``accs``
    in scalar program order."""
    cols = [a.order_cols() for a in accs]
    depth = max(len(c) for c in cols)
    keys = [np.concatenate([
        c[d] if d < len(c) else np.full(len(c[0]), -1, dtype=np.int64)
        for c in cols
    ]) for d in range(depth)]
    return np.lexsort(keys[::-1])


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
        #: every access of the full pass, in pass order
        self.accesses: List[_Access] = []
        #: the nest's in-place fold stores (:func:`_folds`) and their
        #: objects, which order their own repeats
        self.folds: Dict[int, bool] = {}
        self.fold_objs: set = set()
        #: whether a wavefront schedule may run the nest: its trace and
        #: counts cannot depend on values (:func:`_values_steer`)
        self.may_wave = False

    # -- top level ---------------------------------------------------------
    def execute(self, loop: Loop) -> Optional[Tuple]:
        root = _Ctx(1, {}, [])
        self.folds = _folds(loop)
        self.may_wave = not self.folds and not _values_steer(loop)
        try:
            self._exec_loop(loop, root, _Seq())
        except _Fallback:
            # a pass that ran accesses out of scalar order computed
            # values the scalar path never sees: the order is the reason
            code = self._disorder()
            if code is not None:
                raise _Fallback(code) from None
            raise
        self._schedule()
        self._commit()
        if not self.record_trace:
            return None
        return self._assemble_segment()

    # -- schedules ---------------------------------------------------------
    def _shared(self) -> set:
        """Stored objects, folds aside, whose elements more than one
        iteration may access: accessed more than once, and not at one
        injective index vector over all rows of one table."""
        by_obj: Dict[str, List[_Access]] = {}
        for a in self.accesses:
            by_obj.setdefault(a.obj, []).append(a)
        shared = set()
        for obj, accs in by_obj.items():
            if (len(accs) < 2 or obj in self.fold_objs
                    or not any(a.is_write for a in accs)):
                continue
            first = accs[0]
            if all(a.ctx is first.ctx and a.sel is None
                   and np.array_equal(a.idx, first.idx) for a in accs) \
                    and np.unique(first.idx).size == first.idx.size:
                continue
            shared.add(obj)
        return shared

    def _order(self, objs: set, stride: int = 1) -> _Order:
        offsets, base = {}, 0
        for obj in sorted(objs):
            offsets[obj] = base
            base += self.state.arrays[obj].size
        accs = [a for a in self.accesses if a.obj in objs]
        if stride > 1:
            accs = [a.sample(stride) for a in accs]
        return _Order(accs, offsets)

    def _unordered(self, objs: set) -> Optional[set]:
        """The objects of pairs that statement at a time runs out of
        scalar order, or None. A sample of the elements goes first: its
        pairs are pairs of the whole, so a nest that fails usually fails
        at a fraction of the cost."""
        for stride in (_SAMPLE, 1):
            order = self._order(objs, stride)
            if not bool(order.tie.all()):
                return order.failing_objects()
        return None

    def _disorder(self) -> Optional[str]:
        """None when the accesses so far run in scalar order statement at
        a time, else the reason code of the first that does not."""
        failing = self._unordered(self._shared())
        return None if failing is None else self._disorder_code(failing)

    def _disorder_code(self, objs: set) -> str:
        """The code of the first access, in pass order, at which one of
        ``objs`` leaves one injective index vector per stored object."""
        first: Dict[str, np.ndarray] = {}
        equal: Dict[str, bool] = {}
        stored: set = set()
        for a in self.accesses:
            obj = a.obj
            if obj not in objs:
                continue
            if a.is_write:
                stored.add(obj)
            if obj not in first:
                first[obj], equal[obj] = a.idx, True
                continue
            equal[obj] = equal[obj] and np.array_equal(first[obj], a.idx)
            if obj in stored:
                if not equal[obj]:
                    return "unequal-vectors"
                if np.unique(first[obj]).size < first[obj].size:
                    return "repeated-index"
        return "unequal-vectors"

    def _schedule(self) -> None:
        """Keep the pass's stored values when it ran every conflicting
        pair of accesses in scalar order; else recompute them by the
        widest wavefront schedule that does, or fall back."""
        shared = self._shared()
        if not shared:
            return
        stored = {a.obj for a in self.accesses if a.is_write}
        table = self._wave_table(stored)
        if table is None:
            failing = self._unordered(shared)
            if failing is not None:
                raise _Fallback(self._disorder_code(failing))
            return
        order = self._order(stored)
        if bool(order.tie.all()):
            return
        counters = table.counters()
        for waves, coefs, t in self._waves(counters):
            if order.wave_ordered(counters, coefs):
                if waves * _WAVE_WIDTH > table.n:
                    raise _Fallback("narrow-wavefront")
                self._recompute(table, t, stored)
                return
        raise _Fallback(self._disorder_code(order.failing_objects()))

    def _wave_table(self, stored: set) -> Optional[_Ctx]:
        """The one iteration table that holds every access of every
        stored object, when the nest's trace and counts cannot depend on
        values; else None."""
        if not self.may_wave:
            return None
        tables = {id(a.ctx): a.ctx for a in self.accesses
                  if a.obj in stored}
        if len(tables) != 1:
            return None
        table = next(iter(tables.values()))
        if table.loop is None:
            return None
        return table

    @staticmethod
    def _waves(counters: List[np.ndarray]):
        """Wavefront schedules ``t = coefs . counters`` as (wavefronts,
        coefs, t), fewest wavefronts first."""
        if len(counters) > _WAVE_DEPTH:
            return []
        cands = []
        for coefs in itertools.product(range(_WAVE_COEF + 1),
                                       repeat=len(counters)):
            if math.gcd(*coefs) != 1:
                continue  # the zero vector, or a multiple of another
            t = sum(c * k for c, k in zip(coefs, counters) if c)
            waves = int(np.count_nonzero(np.bincount(t)))
            cands.append((waves, coefs, t))
        cands.sort(key=lambda cand: cand[:2])
        return cands

    def _recompute(self, table: _Ctx, t: np.ndarray, stored: set) -> None:
        """Recompute the stored values from the committed arrays,
        wavefront by wavefront: each wavefront runs the table's
        statements in body order over its rows in row order. The trace
        and counts of the full pass stand."""
        order = np.argsort(t, kind="stable")
        sizes = np.bincount(t)
        cuts = np.concatenate(([0], np.cumsum(sizes[sizes > 0]))).tolist()
        # index vectors, loop vars and inherited temps in wavefront order
        idx = {id(a.node): a.idx[order] for a in self.accesses
               if a.ctx is table}
        env = {name: (v[order] if isinstance(v, np.ndarray) else v, f)
               for name, (v, f) in table.env0.items()}
        arrays = self.state.arrays
        work = {obj: arrays[obj].copy() for obj in stored}
        span = [0, 0]  # the current wavefront's rows
        local: Dict[str, Tuple[object, bool]] = {}
        assigned: set = set()
        binop, unop = self._binop, self._unop

        def compile_(expr: Expr):
            kind = expr.__class__
            if kind is Const or kind is Scalar or (
                    kind in (LoopVar, Temp) and expr.name not in assigned
                    and not isinstance(env[expr.name][0], np.ndarray)):
                if kind is Const:
                    got = (expr.value, isinstance(expr.value, float))
                elif kind is Scalar:
                    v = self.state.scalars[expr.name]
                    got = (v, isinstance(v, float))
                else:
                    got = env[expr.name]
                return lambda: got
            if kind is LoopVar or kind is Temp:
                name = expr.name
                if name in assigned:
                    return lambda: local[name]
                vec, f = env[name]
                return lambda: (vec[span[0]:span[1]], f)
            if kind is Load:
                ix = idx[id(expr)]
                arr = work.get(expr.obj)
                if arr is None:
                    arr = arrays[expr.obj]
                f = arr.dtype.kind == "f"
                wide = np.float64 if f else np.int64
                return lambda: (arr[ix[span[0]:span[1]]].astype(
                    wide, copy=False), f)
            if kind is BinOp:
                lhs, rhs, op = compile_(expr.lhs), compile_(expr.rhs), \
                    expr.op
                return lambda: binop(op, *lhs(), *rhs())
            operand, op = compile_(expr.operand), expr.op
            return lambda: unop(op, *operand())

        def compile_stmt(stmt: Stmt):
            value = compile_(stmt.value)
            if isinstance(stmt, Assign):
                assigned.add(stmt.name)
                name = stmt.name

                def assign() -> None:
                    local[name] = value()
                return assign
            ix, arr = idx[id(stmt)], work[stmt.obj]

            def store() -> None:
                vals, vf = value()
                vals = self._materialize(vals, vf, span[1] - span[0])
                self._guard_store_cast(arr.dtype, vals, vf)
                arr[ix[span[0]:span[1]]] = vals
            return store

        steps = [compile_stmt(s) for s in table.loop.body
                 if not isinstance(s, Loop)]
        for span[0], span[1] in zip(cuts[:-1], cuts[1:]):
            for step in steps:
                step()
        self.pending.update(work)

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
        # only a wavefront schedule reads the counters
        child = _Ctx(n_c, env, prefix, loop, ctx,
                     *((parent_idx, offs) if self.may_wave else ()))
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
        if x_left is not None:
            # the fold's load is the object's one earlier access
            load = next(a for a in reversed(self.accesses)
                        if a.obj == stmt.obj)
            if not np.array_equal(load.idx, idx):
                raise _Fallback("unequal-vectors")
            self.fold_objs.add(stmt.obj)
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
        self.accesses.append(
            _Access(node, obj, idx, is_write, ctx, sel, seq.next()))

    def _assemble_segment(self) -> Optional[Tuple]:
        """Interleave per-site accesses into program-order columns."""
        accs = self.accesses
        if not accs:
            return None
        names = sorted({a.obj for a in accs})
        name_id = {n: i for i, n in enumerate(names)}
        total = sum(len(a.idx) for a in accs)
        site = np.empty(total, dtype=np.int32)
        obj = np.empty(total, dtype=np.int16)
        idx = np.empty(total, dtype=np.int64)
        w = np.empty(total, dtype=bool)
        k = len(accs)
        if all(a.ctx is accs[0].ctx and a.sel is None for a in accs):
            # the common shape: every access site covers the same full
            # table, so program order is a strided interleave
            for j, a in enumerate(accs):
                site[j::k] = self.site_ids[id(a.node)]
                obj[j::k] = name_id[a.obj]
                idx[j::k] = a.idx
                w[j::k] = a.is_write
            return site, obj, idx, w, tuple(names)
        order = _program_order(accs)
        np.concatenate([np.full(len(a.idx), self.site_ids[id(a.node)],
                                dtype=np.int32) for a in accs], out=site)
        np.concatenate([np.full(len(a.idx), name_id[a.obj],
                                dtype=np.int16) for a in accs], out=obj)
        np.concatenate([a.idx for a in accs], out=idx)
        np.concatenate([np.full(len(a.idx), a.is_write, dtype=bool)
                        for a in accs], out=w)
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
        # the vector path and nestjit reason per object name: names that
        # share memory leave every nest to the tree walker
        aliased = self._aliased([arrays[name] for name in kernel.objects])
        for nest_index, loop in enumerate(kernel.loops):
            nest = _NestRun(state, site_ids, loop_ids, innermost,
                            self.record_trace)
            try:
                if aliased:
                    raise _Fallback("aliased")
                seg = nest.execute(loop)
            except _Fallback as exc:
                self.fallback_nests += 1
                self.fallback_reasons[exc.code] = (
                    self.fallback_reasons.get(exc.code, 0) + 1
                )
                jit = None if aliased else nestjit.compiled_nest(
                    kernel, nest_index, state, self.record_trace)
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
    def _aliased(arrs: List[np.ndarray]) -> bool:
        return any(np.may_share_memory(a, b)
                   for j, a in enumerate(arrs) for b in arrs[j + 1:])

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
        if len(parts) == 1 and tuple(all_names) == tuple(parts[0][4]):
            # the common call: one segment already in merged object
            # order (the constructor casts a column only if it must)
            return ColumnarTrace(*parts[0])
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
