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

A nest whose trace and counts cannot depend on values (no ``When``,
``Select`` or fold, and no load, directly or through a temp, in a
subscript or loop bound) and that accesses a stored object at two or
more sites runs by a schedule. Its full pass emits the trace and counts
but computes no stored value. Each row of a group runs at a wavefront
``t``: a group is one table's run of statements between two of its
loops, a row one iteration of that table. A wavefront runs its groups
in body order, each over its rows in row order, through the same
operator kernels and store-cast guards, from the committed arrays, so a
guard that trips in a late wavefront commits nothing. The wavefronts
come from the conflict pairs: a pair in order statement at a time may
share a wavefront, any other needs its later row in a later one. When
one group holds every pair, Lamport's hyperplane method (CACM 1974)
derives ``t = c . k`` from the pairs' distance vectors, ``k`` the
group's per-loop iteration counters, innermost coefficient first.
Across groups each row gets its earliest wavefront, the longest path to
it through the pairs, in the spirit of Feautrier's per-statement
schedules (IJPP 1992); cholesky's then run at ``k + 2`` (k-body),
``j + 1`` (j-tail), ``k2 + 1`` (diagonal body) and ``i`` (square
root), ``n`` wavefronts. Either schedule is checked on every pair, and
a nest it failed would fall back.

Folds are ordered by a schedule of their own: an in-place fold, a store
``X[e] = X[e] op r`` with ``op`` one of ``+ - * min max``, where the
load ``X[e]`` is an operand of the stored value and nothing else in the
nest accesses ``X``. Then no load, count or trace entry depends on
``X``'s values, so the nest runs vectorized as above and only ``X``'s
stored values are recomputed: iterations that store to the same
element are ranked by a stable sort of the store vector, and step ``t``
applies every element's ``t``-th update at once, through the same
operator kernel and store-cast guards as any other store.

A nest whose ``When`` or ``Select`` conditions read an object it stores
(and whose stored values reach no subscript or loop bound) may run in
rounds when its pass is out of order: the pass is the first round, and
in each later one a load of a stored object sees the last store before
it, in scalar order, of the previous round's stores. By induction over
scalar order, a round whose stores equal the previous round's is the
scalar run; the nest commits it, or falls back after :data:`_ROUNDS`
rounds. This is a run-time check of a speculation, like the LRPD test
(Rauchwerger and Padua, PLDI 1995).

Every fallback carries one reason code (:data:`FALLBACK_CODES`), and
:class:`VecInterpreter` counts fallback nests per code.
"""

from __future__ import annotations

import operator
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

_I64_MIN = -(2 ** 63)
_I64_MAX = 2 ** 63 - 1
#: largest integer magnitude exactly representable in float64; int/float
#: comparisons beyond it are exact in Python but rounded in numpy
_F64_EXACT = 2 ** 53

#: why a nest left the vector path, counted per code in
#: :attr:`VecInterpreter.fallback_reasons`. For a nest that runs out of
#: scalar order and no schedule orders: ``repeated-index`` — a stored
#: object repeats an index and is no fold; ``unequal-vectors`` — a
#: stored object is accessed at unequal index vectors. Then:
#: ``scalar-error`` — the scalar path raises (out of bounds, zero
#: divisor, square root of a negative, unbound name, zero step);
#: ``int-range`` — a value leaves int64 or the stored dtype;
#: ``float-semantics`` — libm ``exp``/``log``, NaN truthiness,
#: ``int(float)``, mixed-type ``min``/``max``/``Select``;
#: ``unsupported`` — a dtype, node kind or statement shape the vector
#: path does not express, or a conflict test too large for int64
#: keys; ``aliased`` — two of the kernel's object names share memory
FALLBACK_CODES = (
    "repeated-index", "unequal-vectors", "scalar-error", "int-range",
    "float-semantics", "unsupported", "aliased",
)

#: operators of an in-place fold ``X[e] = X[e] op r``
_FOLD_OPS = frozenset(("+", "-", "*", "min", "max"))
#: float operators whose :meth:`_NestRun._binop` path is the operator
_FLOAT_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}
#: the conflict test of a nest that no schedule can order looks at
#: every this-many-th element first
_SAMPLE = 61
#: rounds a nest whose guards read a stored object may take, after its
#: first pass, to reach a store set that no longer changes
_ROUNDS = 4


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
    the table (or a Python scalar, or None for a value a scheduled
    nest's pass leaves to its wavefronts); ``prefix`` holds the
    hierarchical order-key columns of every ancestor level. ``up`` is
    the enclosing table, ``parent_idx`` each row's row in ``up`` and
    ``offs`` each row's iteration counter of the table's loop (all None
    for the root table, and the last two outside a scheduled nest).
    """

    __slots__ = ("n", "env", "prefix", "up", "parent_idx", "offs")

    def __init__(self, n: int, env: Dict[str, Tuple[object, bool]],
                 prefix: List[np.ndarray], up: Optional["_Ctx"] = None,
                 parent_idx: Optional[np.ndarray] = None,
                 offs: Optional[np.ndarray] = None):
        self.n = n
        self.env = env
        self.prefix = prefix
        self.up = up
        self.parent_idx = parent_idx
        self.offs = offs

    def counters(self) -> List[np.ndarray]:
        """Per-loop iteration counters of every row, outermost first."""
        cols = []
        rows = None
        ctx = self
        while ctx.up is not None:
            cols.append(ctx.offs if rows is None else ctx.offs[rows])
            rows = ctx.parent_idx if rows is None else ctx.parent_idx[rows]
            ctx = ctx.up
        return cols[::-1]


class _Group:
    """A run of one table's body statements between two of its loops:
    ``stmts`` run for every row of ``ctx``, from ``env``, the table's
    bindings when the run starts."""

    __slots__ = ("ctx", "env", "stmts")

    def __init__(self, ctx: _Ctx):
        self.ctx = ctx
        self.env = dict(ctx.env)
        self.stmts: List[Stmt] = []


class _Access:
    """One static access site's dynamic accesses for one table: rows
    ``sel`` of ``ctx`` (all rows when None), emitted ``seq``-th in the
    table's scalar evaluation order by a statement of ``group`` (None
    for a loop bound). A store in a nest that may run in rounds keeps
    its values in ``vals``."""

    __slots__ = ("node", "obj", "idx", "is_write", "ctx", "sel", "seq",
                 "group", "vals", "rank")

    def __init__(self, node, obj: str, idx: np.ndarray, is_write: bool,
                 ctx: _Ctx, sel: Optional[np.ndarray], seq: int,
                 group: Optional[_Group]):
        self.node = node
        self.obj = obj
        self.idx = idx
        self.is_write = is_write
        self.ctx = ctx
        self.sel = sel
        self.seq = seq
        self.group = group
        self.vals: Optional[np.ndarray] = None
        #: each access's place in program order (:func:`_rank`)
        self.rank: Optional[np.ndarray] = None

    def rows(self) -> np.ndarray:
        if self.sel is None:
            return np.arange(self.ctx.n, dtype=np.int64)
        return self.sel

    def sample(self, stride: int) -> "_Access":
        """The accesses to elements that ``stride`` divides."""
        keep = self.idx % stride == 0
        part = _Access(self.node, self.obj, self.idx[keep], self.is_write,
                       self.ctx, self.rows()[keep], self.seq, self.group)
        if self.rank is not None:
            part.rank = self.rank[keep]
        return part

    def order_cols(self) -> List[np.ndarray]:
        """Hierarchical program-order key columns of every access."""
        sel = self.sel
        cols = [c if sel is None else c[sel] for c in self.ctx.prefix]
        cols.append(self.rows())
        cols.append(np.full(len(self.idx), self.seq, dtype=np.int64))
        return cols


class _Order:
    """The pairs of accesses to one element, at least one a store, whose
    order every schedule must keep, each from an earlier access (record
    ``rec_b`` of ``accs``, row ``row_b``) to a later one (``rec_a``,
    ``row_a``) in scalar order: each store after its element's previous
    store, each load after the last store of its element before it and
    before the first store after it. The stores sorted by (element,
    program order), and each load's place among them, yield the pairs.

    ``tie[k]`` says whether pair ``k`` runs in order statement at a
    time, i.e. in the order (access record, row): a schedule may run a
    tied pair in one wavefront, any other needs its later row in a
    later wavefront.
    """

    def __init__(self, accs: List[_Access], offsets: Dict[str, int]):
        self.accs = accs = [a for a in accs if len(a.idx)]
        if not accs:
            self.rec_b = self.rec_a = np.empty(0, np.int32)
            self.row_b = self.row_a = np.empty(0, np.int64)
            self.tie = np.empty(0, dtype=bool)
            return
        k = len(accs)
        lens = [len(a.idx) for a in accs]
        elems = [a.idx + offsets[a.obj] for a in accs]
        if all(a.ctx is accs[0].ctx for a in accs):
            # one table: (row, record) is program order
            span, rank = accs[0].ctx.n * k, None
        else:
            if any(a.rank is None for a in accs):
                _rank(accs)
            rank = np.concatenate([a.rank for a in accs])
            span = int(rank.max()) + 1
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
        # record numbers are few: int32 halves the two record columns
        s_rec = np.repeat(np.array(st, dtype=np.int32),
                          [lens[j] for j in st])[order]
        s_row = np.concatenate([accs[j].rows() for j in st]
                               + [np.empty(0, np.int64)])[order]
        # a store of no element at each end: at a load's place ``pos``
        # among the stores, ``below[pos]`` is the element of the store
        # before it and ``above[pos]`` that of the store after it
        s_elem = np.concatenate(([-1], s_key // span, [-1]))
        below, above = s_elem[:-1], s_elem[1:]
        q = np.flatnonzero(s_elem[1:-2] == s_elem[2:-1])
        parts = [(s_rec[q], s_row[q], s_rec[q + 1], s_row[q + 1],
                  (s_rec[q] < s_rec[q + 1])
                  | ((s_rec[q] == s_rec[q + 1]) & (s_row[q] < s_row[q + 1])))]
        for j, a in enumerate(accs):
            if a.is_write:
                continue
            pos = np.searchsorted(s_key, key(j))
            rows = a.rows()
            recs = np.full(len(rows), j, dtype=np.int32)
            prev = np.flatnonzero(below[pos] == elems[j])
            q = pos[prev] - 1
            parts.append((s_rec[q], s_row[q], recs[prev], rows[prev],
                          s_rec[q] < j))
            nxt = np.flatnonzero(above[pos] == elems[j])
            q = pos[nxt]
            parts.append((recs[nxt], rows[nxt], s_rec[q], s_row[q],
                          j < s_rec[q]))
        self.rec_b, self.row_b, self.rec_a, self.row_a, self.tie = (
            np.concatenate(col) for col in zip(*parts))

    def failing_objects(self) -> set:
        """Objects of the pairs out of order statement at a time."""
        recs = np.unique(self.rec_a[~self.tie])
        return {self.accs[r].obj for r in recs.tolist()}


def _hyperplane(counters: List[np.ndarray], row_b: np.ndarray,
                row_a: np.ndarray, gap: np.ndarray) -> np.ndarray:
    """Lamport's wavefronts ``t = c . counters`` of one iteration table:
    each pair's distance vector ``d`` (later row's counters minus the
    earlier row's) is lexicographically positive, and level ``l``'s
    coefficient, chosen after every deeper one, is the least
    non-negative ``c_l`` with ``c . d >= gap`` for each pair whose first
    non-zero distance is at level ``l``."""
    depth = len(counters)
    dist = [k[row_a] - k[row_b] for k in counters]
    lead = np.full(len(row_b), depth)
    for level in range(depth - 1, -1, -1):
        lead[dist[level] != 0] = level
    coefs = [0] * depth
    t = np.zeros(len(counters[0]) if counters else 0, dtype=np.int64)
    for level in range(depth - 1, -1, -1):
        sel = lead == level
        if sel.any():
            rest = -gap[sel].astype(np.int64)
            for c, d in zip(coefs[level + 1:], dist[level + 1:]):
                if c:
                    rest = rest + c * d[sel]
            # ceil((gap - rest) / d_l), with d_l > 0
            coefs[level] = max(0, int((-(rest // dist[level][sel])).max()))
        if coefs[level]:
            t += coefs[level] * counters[level]
    return t


def _longest_paths(nodes: int, src: np.ndarray, dst: np.ndarray,
                   gap: np.ndarray) -> np.ndarray:
    """Each node's earliest wavefront: the longest path to it along the
    edges ``src -> dst`` of length ``gap``, relaxed a frontier of nodes
    at a time in topological order (Kahn's algorithm). The edges run
    forward in scalar order, so they form no cycle."""
    keep = src != dst  # a row's own accesses run in scalar order
    order = np.argsort(src[keep], kind="stable")
    src, dst, gap = src[keep][order], dst[keep][order], gap[keep][order]
    starts = np.zeros(nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=nodes), out=starts[1:])
    waiting = np.bincount(dst, minlength=nodes)
    t = np.zeros(nodes, dtype=np.int64)
    ready = np.flatnonzero(waiting == 0)
    while len(ready):
        lo = starts[ready]
        count = starts[ready + 1] - lo
        total = int(count.sum())
        if not total:
            break
        edges = np.repeat(lo - np.cumsum(count) + count, count) \
            + np.arange(total)
        heads = dst[edges]
        np.maximum.at(t, heads, t[src[edges]] + gap[edges])
        np.subtract.at(waiting, heads, 1)
        ready = np.sort(heads[waiting[heads] == 0])
        if len(ready) > 1:  # a node with two edges from the frontier
            ready = ready[np.concatenate(([True], ready[1:] != ready[:-1]))]
    if waiting.any():
        raise _Fallback("unsupported")  # unreachable: the edges run forward
    return t


def _int_bounds(value) -> Tuple[int, int]:
    """Exact python-int [min, max] of an int operand (vector or scalar)."""
    if isinstance(value, np.ndarray):
        if value.size == 0:
            return (0, 0)
        return (int(value.min()), int(value.max()))
    return (int(value), int(value))


def _injective(idx: np.ndarray) -> bool:
    """Whether no element index repeats (the indices are in bounds, so
    a count per element is cheaper than sorting them)."""
    return idx.size < 2 or int(np.bincount(idx).max()) < 2


def _guard_i64(*corners: int) -> None:
    for c in corners:
        if not (_I64_MIN <= c <= _I64_MAX):
            raise _Fallback("int-range")


def _folds(loop: Loop) -> Dict[int, bool]:
    """The nest's in-place folds: ``id(store)`` -> whether ``X[e]`` is
    the left operand, for each store ``X[e] = X[e] op r``, with one
    subscript expression ``e``, whose object the nest accesses nowhere
    else (at run time, the load's index vector must still equal the
    store's)."""
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
                and (value.lhs is load or value.rhs is load)
                and repr(load.index) == repr(store.index)):
            folds[id(store)] = value.lhs is load
    return folds


def _steering(loop: Loop) -> Tuple[bool, set, set, set]:
    """How loaded values can steer the nest: whether it has a ``When`` or
    ``Select``, the objects whose loaded values reach a ``When`` or
    ``Select`` condition, those whose loaded values reach a subscript or
    loop bound (each directly or through temps), and the stored objects
    that the nest accesses at two or more sites."""
    assigns: List[Assign] = []
    guards: List[Expr] = []  # conditions
    keyed: List[Expr] = []  # subscripts and loop bounds
    sites: Dict[str, int] = {}
    stored: set = set()
    stack: List[Stmt] = [loop]
    while stack:
        stmt = stack.pop()
        exprs = stmt.expressions()
        if isinstance(stmt, Loop):
            stack.extend(stmt.body)
            keyed.extend(exprs)
        elif isinstance(stmt, When):
            stack.extend(stmt.body)
            guards.append(stmt.cond)
            exprs = (stmt.cond,)
        elif isinstance(stmt, Assign):
            assigns.append(stmt)
        elif isinstance(stmt, Store):
            stored.add(stmt.obj)
            sites[stmt.obj] = sites.get(stmt.obj, 0) + 1
            keyed.append(stmt.index)
        for expr in exprs:
            for node in expr.walk():
                if isinstance(node, Select):
                    guards.append(node.cond)
                elif isinstance(node, Load):
                    keyed.append(node.index)
                    sites[node.obj] = sites.get(node.obj, 0) + 1
    carried: Dict[str, set] = {}  # objects each temp's value was loaded from

    def loaded(expr: Expr) -> set:
        out: set = set()
        for node in expr.walk():
            if isinstance(node, Load):
                out.add(node.obj)
            elif isinstance(node, Temp):
                out |= carried.get(node.name, set())
        return out

    grew = True
    while grew:
        grew = False
        for a in assigns:
            objs = loaded(a.value)
            have = carried.setdefault(a.name, set())
            if not objs <= have:
                have |= objs
                grew = True
    return (bool(guards), set().union(*map(loaded, guards)),
            set().union(*map(loaded, keyed)),
            {obj for obj in stored if sites[obj] > 1})


def _plan(loop: Loop) -> Tuple[Dict[int, bool], bool, bool]:
    """What a nest's run needs of its statements: its folds
    (:func:`_folds`), whether it runs by a schedule (its trace and
    counts cannot depend on values, and it accesses a stored object at
    two or more sites), and whether an out-of-order pass may settle in
    rounds (its conditions read an object it stores, whose values reach
    no subscript or loop bound)."""
    folds = _folds(loop)
    branches, guarded, keyed, repeated = _steering(loop)
    return (folds,
            not folds and not branches and not keyed and bool(repeated),
            not folds and bool(guarded & repeated) and not keyed & repeated)


def _rank(accs: List["_Access"]) -> None:
    """Set each access's ``rank``: its place in scalar program order
    among the accesses of ``accs``. The order key's columns, shifted so
    that a shallower access's missing ones read 0, join into one int64
    key when their ranges multiply within it."""
    cols = [a.order_cols() for a in accs]
    depth = max(len(c) for c in cols)
    keys = [np.concatenate([
        c[d] + 1 if d < len(c) else np.zeros(len(c[0]), dtype=np.int64)
        for c in cols
    ]) for d in range(depth)]
    spans = [int(k.max()) + 1 for k in keys]
    if float(np.prod(spans, dtype=np.float64)) < 2 ** 62:
        key = keys[0]
        for k, span in zip(keys[1:], spans[1:]):
            key = key * span + k
        # each record's keys ascend: a few long runs to merge
        order = np.argsort(key, kind="stable")
    else:
        order = np.lexsort(keys[::-1])
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    start = 0
    for a in accs:
        a.rank = rank[start:start + len(a.idx)]
        start += len(a.idx)


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
        #: the nest's in-place fold stores (:func:`_folds`)
        self.folds: Dict[int, bool] = {}
        #: whether the nest runs by a schedule: its trace and counts
        #: cannot depend on values, and it accesses a stored object at
        #: two or more sites; its pass then computes no stored value
        self.scheduled = False
        #: whether an out-of-order pass may be run again in rounds
        self.may_settle = False
        #: a round's view of the previous round's stores, per stored
        #: object: (sorted (element, position) keys, values); position
        #: is ``row * stride + seq`` in the one table that accesses them
        self.seen: Optional[Dict[str, Tuple[np.ndarray, np.ndarray]]] = None
        self.stride = self.width = 0
        self._begin()

    def _begin(self) -> None:
        """Empty the buffers of one pass."""
        self.counts = OpCounts()
        self.iterations: Dict[str, int] = {}
        self.obj_accesses: Dict[str, int] = {}
        self.inner_iterations = 0
        self.inner_iters: Dict[int, int] = {}
        self.inner_invocs: Dict[int, int] = {}
        self.pending: Dict[str, np.ndarray] = {}
        #: every access of the full pass, in pass order
        self.accesses: List[_Access] = []
        #: every statement group of the pass, in pass order, and the
        #: one the pass is in (None while it evaluates loop bounds)
        self.groups: List[_Group] = []
        self.group: Optional[_Group] = None
        #: the fold objects, which order their own repeats
        self.fold_objs: set = set()

    # -- top level ---------------------------------------------------------
    def execute(self, loop: Loop, plan: Tuple) -> Optional[Tuple]:
        self.folds, self.scheduled, self.may_settle = plan
        try:
            self._pass(loop)
        except _Fallback:
            # a pass that ran accesses out of scalar order computed
            # values the scalar path never sees: the order is the reason
            code = None if self.scheduled else self._disorder()
            if code is not None:
                raise _Fallback(code) from None
            raise
        if self.scheduled:
            self._recompute(self._schedule())
        else:
            self._check(loop)
        self._commit()
        if not self.record_trace:
            return None
        return self._assemble_segment()

    def _pass(self, loop: Loop) -> None:
        self._exec_loop(loop, _Ctx(1, {}, []), _Seq())

    # -- conflict test -----------------------------------------------------
    def _shared(self, reordered: bool = False) -> set:
        """Stored objects, folds aside, whose elements more than one
        row may access: not at one injective index vector over all rows
        of one group, and accessed more than once unless the rows run
        ``reordered`` (a lone store's repeats then need ordering too)."""
        by_obj: Dict[str, List[_Access]] = {}
        for a in self.accesses:
            by_obj.setdefault(a.obj, []).append(a)
        shared = set()
        for obj, accs in by_obj.items():
            if ((len(accs) < 2 and not reordered) or obj in self.fold_objs
                    or not any(a.is_write for a in accs)):
                continue
            first = accs[0]
            if all(a.group is first.group and a.sel is None
                   and np.array_equal(a.idx, first.idx) for a in accs) \
                    and first.group is not None \
                    and _injective(first.idx):
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
                if not _injective(first[obj]):
                    return "repeated-index"
        return "unequal-vectors"

    def _check(self, loop: Loop) -> None:
        """Keep the pass's stored values when it ran every conflicting
        pair of accesses in scalar order; else settle them in rounds, or
        fall back."""
        shared = self._shared()
        failing = self._unordered(shared) if shared else None
        if failing is None:
            return
        code = self._disorder_code(failing)
        if not (self.may_settle and self._settle(loop)):
            raise _Fallback(code)

    # -- rounds ------------------------------------------------------------
    def _settle(self, loop: Loop) -> bool:
        """Run the pass again, each load of a stored object seeing the
        last store before it of the pass before, until its stores stop
        changing (then commit them in scalar order) or :data:`_ROUNDS`
        rounds have run."""
        stored = {a.obj for a in self.accesses if a.is_write}
        accs = [a for a in self.accesses if a.obj in stored]
        if len({id(a.ctx) for a in accs}) != 1:
            return False
        self.stride = max(a.seq for a in accs) + 1
        self.width = width = accs[0].ctx.n * self.stride
        if max(self.state.arrays[obj].size for obj in stored) * width \
                >= 2 ** 62:
            return False  # the keys would leave int64
        for _ in range(_ROUNDS):
            self.seen = seen = self._stores()
            self._begin()
            try:
                self._pass(loop)
            except _Fallback:
                return False
            stores = self._stores()
            if all(np.array_equal(stores[obj][0], seen[obj][0])
                   and stores[obj][1].tobytes() == seen[obj][1].tobytes()
                   for obj in stored):
                for obj, (keys, vals) in stores.items():
                    arr = self.state.arrays[obj].copy()
                    last = np.ones(len(keys), dtype=bool)
                    last[:-1] = keys[1:] // width != keys[:-1] // width
                    arr[keys[last] // width] = vals[last]
                    self.pending[obj] = arr
                return True
        return False

    def _stores(self) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
        """The pass's stores per object: their (element, position) keys
        in ascending order, and their values."""
        out: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        for obj in {a.obj for a in self.accesses if a.is_write}:
            accs = [a for a in self.accesses if a.is_write and a.obj == obj]
            keys = np.concatenate([
                a.idx * self.width + a.rows() * self.stride + a.seq
                for a in accs])
            dtype = self.state.arrays[obj].dtype
            vals = np.concatenate([a.vals.astype(dtype) for a in accs])
            order = np.argsort(keys, kind="stable")
            out[obj] = (keys[order], vals[order])
        return out

    def _seen(self, obj: str, idx: np.ndarray) -> np.ndarray:
        """What the last access, a load of ``obj`` at ``idx``, sees of
        the previous round: the last earlier store to each element, or
        the committed value."""
        keys, vals = self.seen[obj]
        a = self.accesses[-1]
        want = idx * self.width + a.rows() * self.stride + a.seq
        q = np.searchsorted(keys, want) - 1
        out = self.state.arrays[obj][idx]
        hit = q >= 0
        hit[hit] = keys[q[hit]] // self.width == idx[hit]
        out[hit] = vals[q[hit]]
        return out

    # -- schedules ---------------------------------------------------------
    def _schedule(self) -> List[np.ndarray]:
        """Each group's wavefront per row. A pass whose conflicting pairs
        all run in order statement at a time needs one wavefront; when
        one group holds every pair, Lamport's hyperplane orders it; else
        each row takes its earliest wavefront. Either schedule is then
        checked on every pair."""
        groups = self.groups
        base = np.cumsum([0] + [g.ctx.n for g in groups]).tolist()
        t = np.zeros(base[-1], dtype=np.int64)
        shared = self._shared(reordered=True)
        order = self._order(shared) if shared else None
        if order is not None and not bool(order.tie.all()):
            gap = ~order.tie
            first = {id(g): b for g, b in zip(groups, base)}
            paired = {id(a.group) for a in order.accs}
            held = [g for g in groups if id(g) in paired]
            if len(held) == 1:
                # the rows of the one group are the pairs' nodes
                lo = first[id(held[0])]
                t_held = t[lo:lo + held[0].ctx.n]
                t_held[:] = _hyperplane(held[0].ctx.counters(),
                                        order.row_b, order.row_a, gap)
                before, after = order.row_b, order.row_a
            else:
                rec_base = np.array([first[id(a.group)] for a in order.accs],
                                    dtype=np.int64)
                before = rec_base[order.rec_b] + order.row_b
                after = rec_base[order.rec_a] + order.row_a
                t = t_held = _longest_paths(base[-1], before, after, gap)
            late = t_held[after]
            late -= t_held[before]
            if not bool((late >= gap).all()):
                raise _Fallback(self._disorder_code(order.failing_objects()))
        return [t[b:e] for b, e in zip(base[:-1], base[1:])]

    def _recompute(self, times: List[np.ndarray]) -> None:
        """Compute the stored values from the committed arrays,
        wavefront by wavefront: each wavefront runs the groups that
        store, in pass order, each over its rows of that wavefront in
        row order. The trace and counts of the full pass stand."""
        arrays = self.state.arrays
        work = {obj: arrays[obj].copy()
                for obj in {a.obj for a in self.accesses if a.is_write}}
        waves = np.flatnonzero(np.bincount(
            np.concatenate(times + [np.empty(0, dtype=np.int64)])))
        runs = []
        for group, t in zip(self.groups, times):
            if not any(isinstance(s, Store) for s in group.stmts):
                continue
            order = np.argsort(t, kind="stable")
            cuts = np.searchsorted(t[order], waves).tolist() + [len(t)]
            span = [0, 0]
            runs.append((cuts, span, self._steps(group, order, span, work)))
        for k in range(len(waves)):
            for cuts, span, steps in runs:
                span[0], span[1] = cuts[k], cuts[k + 1]
                if span[0] < span[1]:
                    for step in steps:
                        step()
        self.pending.update(work)

    def _steps(self, group: _Group, order: np.ndarray, span: List[int],
               work: Dict[str, np.ndarray]) -> list:
        """One closure per statement of ``group``, running it over the
        rows ``order[span[0]:span[1]]``. Each expression compiles to a
        closure of its value and its static type (the type the pass
        found); a float ``+ - *`` of floats skips :meth:`_binop`'s
        dispatch, whose float path is that one operator."""
        idx = {id(a.node): a.idx[order] for a in self.accesses
               if a.group is group}
        arrays = self.state.arrays
        local: Dict[str, object] = {}
        types: Dict[str, bool] = {}
        binop, unop = self._binop, self._unop

        def compile_(expr: Expr):
            kind = expr.__class__
            if kind is LoopVar or kind is Temp:
                name = expr.name
                if name in types:
                    return (lambda: local[name]), types[name]
                vec, f = group.env[name]
                if vec is None:
                    # a temp loaded in another group: its value would
                    # depend on that group's wavefront
                    raise _Fallback("unsupported")
                if isinstance(vec, np.ndarray):
                    vec = vec[order]
                    return (lambda: vec[span[0]:span[1]]), f
                return (lambda: vec), f
            if kind is Const or kind is Scalar:
                v = expr.value if kind is Const \
                    else self.state.scalars[expr.name]
                return (lambda: v), isinstance(v, float)
            if kind is Load:
                ix = idx[id(expr)]
                arr = work.get(expr.obj)
                if arr is None:
                    arr = arrays[expr.obj]
                f = arr.dtype.kind == "f"
                wide = np.float64 if f else np.int64
                return (lambda: arr[ix[span[0]:span[1]]].astype(
                    wide, copy=False)), f
            if kind is BinOp:
                (lhs, lf), (rhs, rf), op = compile_(expr.lhs), \
                    compile_(expr.rhs), expr.op
                if lf and rf and op in _FLOAT_ARITH:
                    fn = _FLOAT_ARITH[op]
                    return (lambda: fn(lhs(), rhs())), True
                return (lambda: binop(op, lhs(), lf, rhs(), rf)[0]), \
                    self._binop_type(op, lf, rf)
            (operand, f), op = compile_(expr.operand), expr.op
            return (lambda: unop(op, operand(), f)[0]), \
                unop(op, None, f)[1]

        def compile_stmt(stmt: Stmt):
            value, vf = compile_(stmt.value)
            if isinstance(stmt, Assign):
                name = stmt.name
                types[name] = vf

                def assign() -> None:
                    local[name] = value()
                return assign
            ix, arr = idx[id(stmt)], work[stmt.obj]

            def store() -> None:
                vals = self._materialize(value(), vf, span[1] - span[0])
                self._guard_store_cast(arr.dtype, vals, vf)
                arr[ix[span[0]:span[1]]] = vals
            return store

        return [compile_stmt(s) for s in group.stmts]

    # -- loops -------------------------------------------------------------
    def _exec_loop(self, loop: Loop, ctx: _Ctx, seq: _Seq) -> None:
        if ctx.n == 0:
            # the enclosing loop never iterates: the scalar interpreter
            # never invokes this one (no bound evals, no map entries)
            return
        self.group = None
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
        # only a schedule reads the counters
        child = _Ctx(n_c, env, prefix, ctx,
                     *((parent_idx, offs) if self.scheduled else ()))
        child_seq = _Seq()
        group = None
        for stmt in loop.body:
            if isinstance(stmt, Loop):
                self._exec_loop(stmt, child, child_seq)
                group = None
                continue
            if group is None:
                group = _Group(child)
                self.groups.append(group)
            group.stmts.append(stmt)
            self.group = group
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
        if self.scheduled:
            pass  # the wavefronts compute the stored values
        elif x_left is None:
            if stmt.obj not in self.pending:
                arr = self.pending[stmt.obj] = arr.copy()
            vals = self._materialize(value, vf, m)
            self._guard_store_cast(arr.dtype, vals, vf)
            # duplicate scatter indices: numpy assigns in order, last
            # wins — the same winner the scalar per-iteration order picks
            arr[idx] = vals
        else:
            if stmt.obj not in self.pending:
                arr = self.pending[stmt.obj] = arr.copy()
            self._fold(arr, idx, stmt.value.op, x_left, r, rf)
        self.counts.stores += m
        if m:  # the scalar path creates per-object entries lazily
            self.obj_accesses[stmt.obj] = (
                self.obj_accesses.get(stmt.obj, 0) + m
            )
        self._emit(stmt, ctx, sel, seq, stmt.obj, idx, True)
        if self.may_settle:
            self.accesses[-1].vals = vals

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
        if self.scheduled:
            return None, arr.dtype.kind == "f"
        if self.seen is not None and expr.obj in self.seen:
            vals = self._seen(expr.obj, idx)
        else:
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
        if lhs is None or rhs is None:
            # a scheduled pass: the wavefronts compute the value
            return None, self._binop_type(op, lf, rf)
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

    @staticmethod
    def _binop_type(op: str, lf: bool, rf: bool) -> bool:
        """Whether ``lhs op rhs`` is a float, as :meth:`_binop` decides
        it from its operands' types alone."""
        if op in ("+", "-", "*", "/", "%"):
            return lf or rf
        if op in ("min", "max"):
            if lf != rf:
                raise _Fallback("float-semantics")
            return lf
        if op in ("==", "!=", "<", "<=", ">", ">="):
            return False
        if op in ("&", "|", "^", "<<", ">>"):
            if lf or rf:
                raise _Fallback("float-semantics")
            return False
        raise _Fallback("unsupported")

    def _unop(self, op: str, val, vf: bool):
        if val is None:
            # a scheduled pass: the wavefronts compute the value
            if op in ("-", "abs"):
                return None, vf
            if op == "sqrt":
                return None, True
            if op in ("floor", "not"):
                return None, False
            if op in ("exp", "log"):
                raise _Fallback("float-semantics")
            raise _Fallback("unsupported")
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
        self.accesses.append(_Access(node, obj, idx, is_write, ctx, sel,
                                     seq.next(), self.group))

    def _assemble_segment(self) -> Optional[Tuple]:
        """Interleave per-site accesses into program-order columns."""
        accs = self.accesses
        if not accs:
            return None
        names = sorted({a.obj for a in accs})
        name_id = {n: i for i, n in enumerate(names)}
        if all(a.ctx is accs[0].ctx and a.sel is None for a in accs):
            # the common shape: every access site covers the same full
            # table, so program order is row after row of the sites
            rows = accs[0].ctx.n
            return (
                np.tile(np.array([self.site_ids[id(a.node)] for a in accs],
                                 dtype=np.int32), rows),
                np.tile(np.array([name_id[a.obj] for a in accs],
                                 dtype=np.int16), rows),
                np.stack([a.idx for a in accs], axis=1).ravel(),
                np.tile(np.array([a.is_write for a in accs], dtype=bool),
                        rows),
                tuple(names))
        total = sum(len(a.idx) for a in accs)
        site = np.empty(total, dtype=np.int32)
        obj = np.empty(total, dtype=np.int16)
        idx = np.empty(total, dtype=np.int64)
        w = np.empty(total, dtype=bool)
        if any(a.rank is None for a in accs):
            _rank(accs)
        for a in accs:
            at = a.rank
            site[at] = self.site_ids[id(a.node)]
            obj[at] = name_id[a.obj]
            idx[at] = a.idx
            w[at] = a.is_write
        return site, obj, idx, w, tuple(names)

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
        #: nests executed vectorized vs. by the tree walker (telemetry
        #: for tests and the bench harness; not part of the result)
        self.vectorized_nests = 0
        self.fallback_nests = 0
        #: fallback nests per reason code (:data:`FALLBACK_CODES`)
        self.fallback_reasons: Dict[str, int] = {}
        #: per kernel and per nest, by id: the object, which the entry
        #: keeps alive so that its id is not reused, and what its calls
        #: share: site ids, innermost loop ids and innermost loops, or
        #: the nest's :func:`_plan`
        self._known: Dict[int, Tuple] = {}

    def _kernel_ids(self, kernel: Kernel) -> Tuple:
        entry = self._known.get(id(kernel))
        if entry is None:
            entry = self._known[id(kernel)] = (
                kernel, kernel.site_ids(), kernel.innermost_loop_ids(),
                {id(l) for l in kernel.innermost_loops()})
        return entry[1:]

    def _plan(self, loop: Loop) -> Tuple:
        entry = self._known.get(id(loop))
        if entry is None:
            entry = self._known[id(loop)] = (loop, _plan(loop))
        return entry[1]

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
        site_ids, loop_ids, innermost = self._kernel_ids(kernel)
        scalar._site_ids = site_ids
        scalar._loop_ids = loop_ids
        state = _State(
            arrays=arrays,
            scalars=env_scalars,
            trace=[] if self.record_trace else None,
        )
        # one (site, obj, idx, is_write, names) column segment per nest
        # that recorded accesses, in program order
        segments: List[Tuple] = []
        # the vector path reasons per object name: names that share
        # memory leave every nest to the tree walker
        aliased = self._aliased([arrays[name] for name in kernel.objects])
        for loop in kernel.loops:
            nest = _NestRun(state, site_ids, loop_ids, innermost,
                            self.record_trace)
            try:
                if aliased:
                    raise _Fallback("aliased")
                seg = nest.execute(loop, self._plan(loop))
            except _Fallback as exc:
                self.fallback_nests += 1
                self.fallback_reasons[exc.code] = (
                    self.fallback_reasons.get(exc.code, 0) + 1
                )
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
