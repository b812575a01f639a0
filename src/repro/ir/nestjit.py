"""Per-nest Python specialization of the scalar interpreter.

When :class:`~repro.ir.vecinterp.VecInterpreter` cannot vectorize a
nest (reductions into few elements, in-place stencils, data-dependent
loop-carried flow), the tree-walking fallback pays full dispatch per
dynamic operation. This module compiles such a nest into straight-line Python
source that mirrors :class:`~repro.ir.interp.Interpreter` semantics
*operation for operation* — same evaluation order, same Python-number
arithmetic (``_apply_binop`` inlined per static operand type), same
dtype casts through the backing numpy array, same program-order
accesses, same ``InterpreterError`` messages at the same dynamic
points — then runs the generated function instead of the tree walk.
Operation counts and iteration maps are folded into closed form per
basic block, so the generated loop body only pays for loads, stores,
arithmetic, and trace appends.

The trace is recorded as two int columns, not as per-access tuples:
each access appends its static site id and its element index. A site's
object and read/write direction are compile-time constants, kept in a
per-nest site table that expands the columns into the nest's columnar
trace segment after the run.

Anything whose scalar semantics the generator cannot reproduce
verbatim (reads of conditionally-assigned temps, shadowed loop
variables, missing objects/scalars, zero steps, aliased arrays,
non-numeric dtypes) simply refuses to compile — the caller falls back
to the tree-walking interpreter, which *is* the semantics.

Compiled nests are cached by a structural fingerprint of the kernel
(including array dtypes/sizes and scalar operand types), so workloads
that rebuild identical kernels per invocation compile once.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import InterpreterError
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
from .interp import _State, _apply_binop, _apply_unop
from .program import Kernel
from .stmt import Assign, Loop, Stmt, Store, When

#: compiled-nest cache size (cleared wholesale when full)
_CACHE_CAP = 512
_cache: Dict[tuple, Optional["_Compiled"]] = {}

#: static value types: int, float, dynamic (decided per element at run)
_INT, _FLT, _DYN = "i", "f", "d"


class _Bail(Exception):
    """This nest cannot be specialized faithfully; tree-walk it."""


# ---------------------------------------------------------------------------
# fingerprinting
# ---------------------------------------------------------------------------
def _fp_expr(e: Expr) -> tuple:
    k = e.__class__
    if k is Const:
        return ("C", e.value, e.value.__class__.__name__)
    if k is LoopVar:
        return ("L", e.name)
    if k is Temp:
        return ("T", e.name)
    if k is Scalar:
        return ("S", e.name)
    if k is Load:
        return ("Ld", e.obj, _fp_expr(e.index))
    if k is BinOp:
        return ("B", e.op, _fp_expr(e.lhs), _fp_expr(e.rhs))
    if k is UnaryOp:
        return ("U", e.op, _fp_expr(e.operand))
    if k is Select:
        return ("Se", _fp_expr(e.cond), _fp_expr(e.if_true),
                _fp_expr(e.if_false))
    raise _Bail


def _fp_stmt(s: Stmt) -> tuple:
    if isinstance(s, Loop):
        return ("loop", s.var, s.step, _fp_expr(s.lower), _fp_expr(s.upper),
                tuple(_fp_stmt(b) for b in s.body))
    if isinstance(s, Store):
        return ("store", s.obj, _fp_expr(s.index), _fp_expr(s.value))
    if isinstance(s, When):
        return ("when", _fp_expr(s.cond),
                tuple(_fp_stmt(b) for b in s.body))
    if isinstance(s, Assign):
        return ("assign", s.name, _fp_expr(s.value))
    raise _Bail


def kernel_fingerprint(kernel: Kernel) -> tuple:
    """Structural identity of a kernel (same fingerprint => same
    generated code, including positional site/loop ids)."""
    return (
        tuple(_fp_stmt(l) for l in kernel.loops),
        tuple(sorted((n, o.num_elements)
                     for n, o in kernel.objects.items())),
    )


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------
class _Block:
    """One basic block: emitted lines plus foldable static counts."""

    __slots__ = ("lines", "indent", "counts", "objs")

    def __init__(self, indent: int):
        self.lines: List[str] = []
        self.indent = indent
        # int/float/complex ops, loads, stores, loop_overhead
        self.counts = [0, 0, 0, 0, 0, 0]
        # per-object access counts, keyed by the object's counter slot
        self.objs: Dict[int, int] = {}

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def count_bundle(self) -> List[str]:
        names = ("cI", "cF", "cC", "cLD", "cST", "cLP")
        return [f"{n} += {v}" for n, v in zip(names, self.counts) if v] + [
            f"ac_{o} += {v}" for o, v in self.objs.items() if v
        ]

    def fold_scaled(self, parent: "_Block", trip: str) -> None:
        """Fold this loop body's per-iteration constants into the parent
        multiplied by the trip-count variable."""
        names = ("cI", "cF", "cC", "cLD", "cST", "cLP")
        for n, v in zip(names, self.counts):
            if v:
                parent.emit(f"{n} += {v} * {trip}")
        for o, v in self.objs.items():
            if v:
                parent.emit(f"ac_{o} += {v} * {trip}")


class _NestCompiler:
    """Generates the specialized function source for one nest."""

    def __init__(self, kernel: Kernel, nest_index: int, record_trace: bool,
                 arrays: Dict[str, np.ndarray], scalar_types: dict,
                 loaded: set):
        self.kernel = kernel
        self.nest = kernel.loops[nest_index]
        self.record_trace = record_trace
        self.arrays = arrays
        self.scalar_types = scalar_types
        self.loaded = loaded
        self.site_ids = kernel.site_ids()
        self.loop_ids = kernel.innermost_loop_ids()
        self.innermost = {id(l) for l in kernel.innermost_loops()}
        self.blocks: List[_Block] = []
        self.tmp_n = 0
        self.loop_n = 0
        # name tables (deterministic orders for the result fold); an
        # object's counter slot is its position in obj_order
        self.obj_order: List[str] = []
        # site table: static site id -> (object, is_write)
        self.sites: Dict[int, Tuple[str, bool]] = {}
        self.var_order: List[str] = []
        self.inner_keys: List[int] = []
        # scoping
        self.loop_stack: List[str] = []
        self.definite: Dict[str, str] = {}   # temp -> static type
        self.maybe: set = set()
        self.assign_log: List[str] = []

    # -- small helpers ---------------------------------------------------
    def fresh(self) -> str:
        self.tmp_n += 1
        return f"v{self.tmp_n}"

    @property
    def b(self) -> _Block:
        return self.blocks[-1]

    def hoist(self, code: str, typ: str) -> Tuple[str, str]:
        if code.isidentifier():
            return code, typ
        v = self.fresh()
        self.b.emit(f"{v} = {code}")
        return v, typ

    def note_obj(self, obj: str) -> int:
        """Counter slot of ``obj`` (allocated on first use)."""
        if obj not in self.obj_order:
            self.obj_order.append(obj)
        return self.obj_order.index(obj)

    def record(self, node, obj: str, idx: str, is_write: bool) -> None:
        """Emit the trace append of one access of ``obj`` at ``idx``."""
        site = self.site_ids[id(node)]
        self.sites[site] = (obj, is_write)
        self.b.emit(f"_ts({site})")
        self.b.emit(f"_ti({idx})")

    def dtype_of(self, obj: str) -> np.dtype:
        arr = self.arrays.get(obj)
        if arr is None or arr.dtype.kind not in "if":
            raise _Bail
        return arr.dtype

    # -- expressions -----------------------------------------------------
    def expr(self, e: Expr) -> Tuple[str, str]:
        """Emit effects for ``e`` into the current block; return
        ``(code, static_type)`` where code is a pure Python expression."""
        k = e.__class__
        if k is Const:
            v = e.value
            if isinstance(v, float) and not math.isfinite(v):
                raise _Bail  # repr() of inf/nan is not a Python literal
            code = repr(v)
            if code.startswith("-"):
                # parenthesize: unary minus binds looser than % and **
                code = f"({code})"
            return code, _FLT if isinstance(v, float) else _INT
        if k is LoopVar:
            if e.name not in self.loop_stack:
                raise _Bail  # unbound: the tree walker raises properly
            return f"L_{_ident(e.name)}", _INT
        if k is Temp:
            if e.name in self.maybe or e.name not in self.definite:
                raise _Bail  # conditional/unbound temp
            return f"T_{_ident(e.name)}", self.definite[e.name]
        if k is Scalar:
            t = self.scalar_types.get(e.name)
            if t is None:
                raise _Bail  # missing scalar: tree walker raises lazily
            return f"S_{_ident(e.name)}", t
        if k is Load:
            return self.load(e)
        if k is BinOp:
            return self.binop(e)
        if k is UnaryOp:
            return self.unop(e)
        if k is Select:
            return self.select(e)
        raise _Bail

    def load(self, e: Load) -> Tuple[str, str]:
        dt = self.dtype_of(e.obj)
        slot = self.note_obj(e.obj)
        idx = self.index_of(e.index)
        size = self.arrays[e.obj].size
        self.b.emit(
            f"if {idx} < 0 or {idx} >= {size}: "
            f"raise _IE(f\"load out of bounds: {e.obj}[{{{idx}}}] "
            f"(size {size})\")"
        )
        self.b.counts[3] += 1
        self.b.objs[slot] = self.b.objs.get(slot, 0) + 1
        if self.record_trace:
            self.record(e, e.obj, idx, False)
        v = self.fresh()
        self.b.emit(f"{v} = lst_{_ident(e.obj)}[{idx}]")
        return v, _FLT if dt.kind == "f" else _INT

    def index_of(self, index_expr: Expr) -> str:
        code, typ = self.expr(index_expr)
        if typ is not _INT:
            code = f"int({code})"
        v, _ = self.hoist(code, _INT)
        return v

    def binop(self, e: BinOp) -> Tuple[str, str]:
        lc, lt = self.expr(e.lhs)
        rc, rt = self.expr(e.rhs)
        op = e.op
        # -- operation counting (mirrors runtime isinstance classes) ----
        if op in COMPLEX_OPS:
            self.b.counts[2] += 1
        elif lt is _DYN or rt is _DYN:
            lc, lt = self.hoist(lc, lt)
            rc, rt = self.hoist(rc, rt)
            self.b.emit(
                f"cF, cI = (cF + 1, cI) if ({lc}.__class__ is float "
                f"or {rc}.__class__ is float) else (cF, cI + 1)"
            )
        elif lt is _FLT or rt is _FLT:
            self.b.counts[1] += 1
        else:
            self.b.counts[0] += 1
        # -- semantics --------------------------------------------------
        both_int = lt is _INT and rt is _INT
        any_dyn = lt is _DYN or rt is _DYN
        out = (_DYN if any_dyn
               else _FLT if (lt is _FLT or rt is _FLT) else _INT)
        if op in ("+", "-", "*"):
            return f"({lc} {op} {rc})", out
        if op == "/":
            if any_dyn:
                lc, _ = self.hoist(lc, lt)
                rc, _ = self.hoist(rc, rt)
                v = self.fresh()
                self.b.emit(f"{v} = _ab('/', {lc}, {rc})")
                return v, _DYN
            if both_int:
                lc, _ = self.hoist(lc, lt)
                rc, _ = self.hoist(rc, rt)
                self.b.emit(f"if {rc} == 0: "
                            f"raise _IE('integer division by zero')")
                v = self.fresh()
                self.b.emit(
                    f"{v} = -(-{lc} // {rc}) "
                    f"if ({lc} < 0) != ({rc} < 0) else {lc} // {rc}"
                )
                return v, _INT
            return f"({lc} / {rc})", _FLT
        if op == "%":
            rc, _ = self.hoist(rc, rt)
            self.b.emit(f"if {rc} == 0: raise _IE('modulo by zero')")
            if any_dyn:
                lc, _ = self.hoist(lc, lt)
                v = self.fresh()
                self.b.emit(f"{v} = {lc} % {rc}")
                return v, _DYN
            return f"({lc} % {rc})", _INT if both_int else _FLT
        if op in ("min", "max"):
            lc, _ = self.hoist(lc, lt)
            rc, _ = self.hoist(rc, rt)
            cmp = "<=" if op == "min" else ">="
            res = f"({lc} if {lc} {cmp} {rc} else {rc})"
            return res, lt if lt is rt else _DYN
        if op in ("==", "!=", "<", "<=", ">", ">="):
            return f"(1 if {lc} {op} {rc} else 0)", _INT
        if op in ("&", "|", "^", "<<", ">>"):
            if lt is not _INT:
                lc = f"int({lc})"
            if rt is not _INT:
                rc = f"int({rc})"
            return f"({lc} {op} {rc})", _INT
        raise _Bail

    def unop(self, e: UnaryOp) -> Tuple[str, str]:
        vc, vt = self.expr(e.operand)
        op = e.op
        if op in COMPLEX_OPS:
            self.b.counts[2] += 1
        elif vt is _DYN:
            vc, vt = self.hoist(vc, vt)
            self.b.emit(
                f"cF, cI = (cF + 1, cI) if {vc}.__class__ is float "
                f"else (cF, cI + 1)"
            )
        elif vt is _FLT:
            self.b.counts[1] += 1
        else:
            self.b.counts[0] += 1
        if op == "-":
            return f"(-{vc})", vt
        if op == "abs":
            return f"abs({vc})", vt
        if op == "not":
            return f"(0 if {vc} else 1)", _INT
        if op == "floor":
            return f"_floor({vc})", _INT
        if op == "sqrt":
            vc, _ = self.hoist(vc, vt)
            self.b.emit(f"if {vc} < 0: "
                        f"raise _IE(f'sqrt of negative value {{{vc}}}')")
            return f"_sqrt({vc})", _FLT
        if op == "exp":
            return f"_exp({vc})", _FLT
        if op == "log":
            vc, _ = self.hoist(vc, vt)
            self.b.emit(f"if {vc} <= 0: "
                        f"raise _IE(f'log of non-positive value {{{vc}}}')")
            return f"_log({vc})", _FLT
        raise _Bail

    def select(self, e: Select) -> Tuple[str, str]:
        cc, _ct = self.expr(e.cond)
        self.b.counts[0] += 1  # the select itself, always an int op
        v = self.fresh()
        self.b.emit(f"if {cc}:")
        self.blocks.append(_Block(self.b.indent + 1))
        tc, tt = self.expr(e.if_true)
        self.b.emit(f"{v} = {tc}")
        t_block = self.blocks.pop()
        for line in t_block.count_bundle():
            t_block.emit(line)
        self.b.lines.extend(t_block.lines)
        self.b.emit("else:")
        self.blocks.append(_Block(self.b.indent + 1))
        fc, ft = self.expr(e.if_false)
        self.b.emit(f"{v} = {fc}")
        f_block = self.blocks.pop()
        for line in f_block.count_bundle():
            f_block.emit(line)
        self.b.lines.extend(f_block.lines)
        return v, tt if tt is ft else _DYN

    # -- statements ------------------------------------------------------
    def stmt(self, s: Stmt) -> None:
        if isinstance(s, Loop):
            self.loop(s)
        elif isinstance(s, Store):
            self.store(s)
        elif isinstance(s, When):
            self.when(s)
        elif isinstance(s, Assign):
            code, typ = self.expr(s.value)
            name = s.name
            self.definite[name] = typ
            self.maybe.discard(name)
            self.assign_log.append(name)
            self.b.emit(f"T_{_ident(name)} = {code}")
        else:
            raise _Bail

    def store(self, s: Store) -> None:
        dt = self.dtype_of(s.obj)
        slot = self.note_obj(s.obj)
        idx = self.index_of(s.index)
        code, typ = self.expr(s.value)
        val, _ = self.hoist(code, typ)
        size = self.arrays[s.obj].size
        self.b.emit(
            f"if {idx} < 0 or {idx} >= {size}: "
            f"raise _IE(f\"store out of bounds: {s.obj}[{{{idx}}}] "
            f"(size {size})\")"
        )
        o = _ident(s.obj)
        self.b.emit(f"arr_{o}[{idx}] = {val}")
        if s.obj in self.loaded:
            # keep the Python-value mirror in sync through the dtype
            # cast; float64 stores of float values need no read-back
            if dt == np.float64 and typ is _FLT:
                self.b.emit(f"lst_{o}[{idx}] = {val}")
            else:
                self.b.emit(f"lst_{o}[{idx}] = arr_{o}[{idx}].item()")
        self.b.counts[4] += 1
        self.b.objs[slot] = self.b.objs.get(slot, 0) + 1
        if self.record_trace:
            self.record(s, s.obj, idx, True)

    def when(self, s: When) -> None:
        cc, _ct = self.expr(s.cond)
        self.b.emit(f"if {cc}:")
        self.blocks.append(_Block(self.b.indent + 1))
        before = dict(self.definite)
        before_maybe = set(self.maybe)
        for inner in s.body:
            self.stmt(inner)
        block = self.blocks.pop()
        for line in block.count_bundle():
            block.emit(line)
        if not block.lines:
            block.emit("pass")
        self.b.lines.extend(block.lines)
        # temps first assigned under the When are only conditionally
        # bound afterwards; reassigned ones keep (possibly widened) type
        for name, typ in list(self.definite.items()):
            if name not in before:
                self.maybe.add(name)
            elif before[name] is not typ:
                self.definite[name] = _DYN
        self.maybe |= before_maybe

    def loop(self, loop: Loop) -> None:
        if loop.step == 0:
            raise _Bail  # the tree walker raises the named error
        if loop.var in self.loop_stack:
            raise _Bail  # shadowed induction variable
        lo_c, lo_t = self.expr(loop.lower)
        up_c, up_t = self.expr(loop.upper)
        if lo_t is not _INT:
            lo_c = f"int({lo_c})"
        if up_t is not _INT:
            up_c = f"int({up_c})"
        lo, _ = self.hoist(lo_c, _INT)
        up, _ = self.hoist(up_c, _INT)
        self.loop_n += 1
        n = f"n{self.loop_n}"
        self.b.emit(f"{n} = len(range({lo}, {up}, {loop.step}))")
        if loop.var not in self.var_order:
            self.var_order.append(loop.var)
        # the scalar path touches iterations[var] on every invocation,
        # creating the entry even for zero-trip loops — count both
        self.b.emit(f"ic_{_ident(loop.var)} += 1")
        self.b.emit(f"it_{_ident(loop.var)} += {n}")
        self.b.emit(f"cLP += 2 * {n}")
        if id(loop) in self.innermost:
            key = self.loop_ids[id(loop)]
            if key not in self.inner_keys:
                self.inner_keys.append(key)
            self.b.emit(f"inv_{key} += 1")
            self.b.emit(f"itr_{key} += {n}")
        var = f"L_{_ident(loop.var)}"
        self.b.emit(f"for {var} in range({lo}, {up}, {loop.step}):")
        parent = self.b
        self.blocks.append(_Block(parent.indent + 1))
        self.loop_stack.append(loop.var)
        before = dict(self.definite)
        before_maybe = set(self.maybe)
        log_mark = len(self.assign_log)
        for stmt in loop.body:
            self.stmt(stmt)
        body = self.blocks.pop()
        self.loop_stack.pop()
        # temps assigned in the body would leak across iterations in
        # Python while the scalar env resets; reads are only legal when
        # re-dominated by an assign, which overwrites the leak — but a
        # body assign shadowing an enclosing definite/maybe temp would
        # make later iterations read the leak where the scalar reference
        # re-reads the enclosing copy
        if set(self.assign_log[log_mark:]) & (set(before) | before_maybe):
            raise _Bail
        self.definite = before
        self.maybe = before_maybe
        if not body.lines:
            body.emit("pass")
        parent.lines.extend(body.lines)
        body.fold_scaled(parent, n)

    # -- whole nest ------------------------------------------------------
    def compile(self) -> Tuple[str, dict]:
        root = _Block(1)
        self.blocks = [root]
        self.loop(self.nest)
        for line in root.count_bundle():
            root.emit(line)

        prelude: List[str] = ["def _nest(arrays, scalars, tsite, tidx):"]
        e = prelude.append
        for obj in self.obj_order:
            o = _ident(obj)
            e(f"    arr_{o} = arrays[{obj!r}]")
            if obj in self.loaded:
                e(f"    lst_{o} = arr_{o}.tolist()")
        for name, _t in sorted(self.scalar_types.items()):
            e(f"    S_{_ident(name)} = scalars[{name!r}]")
        if self.record_trace:
            e("    _ts = tsite.append")
            e("    _ti = tidx.append")
        e("    cI = cF = cC = cLD = cST = cLP = 0")
        for v in self.var_order:
            e(f"    ic_{_ident(v)} = it_{_ident(v)} = 0")
        for key in self.inner_keys:
            e(f"    inv_{key} = itr_{key} = 0")
        for slot in range(len(self.obj_order)):
            e(f"    ac_{slot} = 0")
        lines = prelude + root.lines
        ret_iters = ", ".join(
            f"ic_{_ident(v)}, it_{_ident(v)}" for v in self.var_order
        )
        ret_objs = ", ".join(f"ac_{j}" for j in range(len(self.obj_order)))
        ret_inner = ", ".join(f"inv_{k}, itr_{k}" for k in self.inner_keys)
        lines.append(
            f"    return (cI, cF, cC, cLD, cST, cLP, "
            f"({ret_iters}{',' if ret_iters else ''}), "
            f"({ret_objs}{',' if ret_objs else ''}), "
            f"({ret_inner}{',' if ret_inner else ''}))"
        )
        meta = {
            "vars": list(self.var_order),
            "objs": list(self.obj_order),
            "inner_keys": list(self.inner_keys),
            "sites": dict(self.sites),
        }
        return "\n".join(lines), meta


def _ident(name: str) -> str:
    out = "".join(c if c.isalnum() or c == "_" else f"_{ord(c):x}_"
                  for c in name)
    return out


# ---------------------------------------------------------------------------
# runtime wrapper
# ---------------------------------------------------------------------------
class _Compiled:
    """A compiled nest: the generated function, its result-fold metadata
    and its site table.

    The generated function appends each access's static site id and
    element index to two int lists. The site table maps a site to its
    object's id among the sorted :attr:`trace_names` (``site_obj``) and
    to its direction (``site_write``), which expands the two columns
    into the nest's trace segment.
    """

    __slots__ = ("fn", "vars", "objs", "inner_keys", "source",
                 "site_obj", "site_write", "trace_names")

    def __init__(self, fn, meta: dict, source: str):
        self.fn = fn
        self.vars = meta["vars"]
        self.objs = meta["objs"]
        self.inner_keys = meta["inner_keys"]
        self.source = source
        sites = meta["sites"]
        self.trace_names = tuple(sorted({o for o, _ in sites.values()}))
        local = {name: j for j, name in enumerate(self.trace_names)}
        size = max(sites, default=-1) + 1
        self.site_obj = np.zeros(size, dtype=np.int16)
        self.site_write = np.zeros(size, dtype=bool)
        for site, (obj, is_write) in sites.items():
            self.site_obj[site] = local[obj]
            self.site_write[site] = is_write

    def execute(self, state: _State) -> Optional[Tuple]:
        """Run the nest on ``state``. Returns its trace segment
        ``(site, obj, idx, is_write, names)`` with ``obj`` indexing
        ``names``, or None when the nest recorded no access."""
        tsite: List[int] = []
        tidx: List[int] = []
        res = self.fn(state.arrays, state.scalars, tsite, tidx)
        (cI, cF, cC, cLD, cST, cLP, iters, objs, inner) = res
        c = state.counts
        c.int_ops += cI
        c.float_ops += cF
        c.complex_ops += cC
        c.loads += cLD
        c.stores += cST
        c.loop_overhead += cLP
        # dict entries are created on invocation/access in the scalar
        # path, so never-reached loops / untouched objects stay absent
        its = state.iterations
        for j, v in enumerate(self.vars):
            if iters[2 * j]:  # invocations of any loop over this var
                its[v] = its.get(v, 0) + iters[2 * j + 1]
        oa = state.obj_accesses
        for o, n in zip(self.objs, objs):
            if n:
                oa[o] = oa.get(o, 0) + n
        total = 0
        ii = state.inner_iters_by_loop
        iv = state.inner_invocations_by_loop
        for j, key in enumerate(self.inner_keys):
            inv, itr = inner[2 * j], inner[2 * j + 1]
            if inv:
                iv[key] = iv.get(key, 0) + inv
                ii[key] = ii.get(key, 0) + itr
                total += itr
        state.inner_iterations += total
        if not tsite:
            return None
        site = np.array(tsite, dtype=np.int32)
        return (site, self.site_obj[site], np.array(tidx, dtype=np.int64),
                self.site_write[site], self.trace_names)


_EXEC_GLOBALS = {
    "_IE": InterpreterError,
    "_ab": _apply_binop,
    "_au": _apply_unop,
    "_sqrt": math.sqrt,
    "_exp": math.exp,
    "_log": math.log,
    "_floor": math.floor,
}


def compiled_nest(kernel: Kernel, nest_index: int, state: _State,
                  record_trace: bool) -> Optional[_Compiled]:
    """Compiled specialization of ``kernel.loops[nest_index]``, or None
    when the nest (or its runtime bindings) can't be mirrored exactly."""
    try:
        fp = kernel_fingerprint(kernel)
    except _Bail:
        return None
    nest = kernel.loops[nest_index]
    stmts = _walk_stmts([nest])
    exprs = [n for s in stmts for n in _stmt_exprs(s)]
    loop_vars = {s.var for s in stmts if isinstance(s, Loop)}
    temps = {s.name for s in stmts if isinstance(s, Assign)}
    temps |= {n.name for n in exprs if isinstance(n, Temp)}
    if loop_vars & temps:
        return None  # one scalar namespace; prefixed locals would split it
    used_scalars = tuple(sorted(
        {n.name for n in exprs if isinstance(n, Scalar)}
    ))
    scalar_types = {}
    for name in used_scalars:
        if name not in state.scalars:
            return None  # the tree walker raises (or not) at the right time
        v = state.scalars[name]
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            return None
        scalar_types[name] = _FLT if isinstance(v, float) else _INT
    loaded = {n.obj for n in exprs if isinstance(n, Load)}
    accessed = sorted(
        loaded | {s.obj for s in stmts if isinstance(s, Store)}
    )
    for name in (loop_vars | temps | set(used_scalars) | set(accessed)):
        if not name.isidentifier():
            return None  # keep generated source well-formed
    arrs = []
    for obj in accessed:
        arr = state.arrays.get(obj)
        if arr is None or arr.ndim != 1 or arr.dtype.kind not in "if":
            return None
        arrs.append(arr)
    if len({id(a) for a in arrs}) != len(arrs):
        return None  # aliased arrays would stale the value mirrors
    key = (
        fp, nest_index, record_trace,
        tuple((o, state.arrays[o].dtype.str) for o in accessed),
        tuple(sorted(scalar_types.items())),
    )
    try:
        hash(key)
    except TypeError:
        return None
    # a single lookup: another thread may clear the cache between a
    # membership test and a read
    try:
        return _cache[key]
    except KeyError:
        pass
    if len(_cache) >= _CACHE_CAP:
        _cache.clear()
    compiled: Optional[_Compiled]
    try:
        comp = _NestCompiler(kernel, nest_index, record_trace,
                             state.arrays, scalar_types, loaded)
        source, meta = comp.compile()
        ns: dict = {}
        exec(compile(source, "<nestjit>", "exec"), dict(_EXEC_GLOBALS), ns)
        compiled = _Compiled(ns["_nest"], meta, source)
    except _Bail:
        compiled = None
    except SyntaxError:  # pragma: no cover - generator bug guard
        compiled = None
    _cache[key] = compiled
    return compiled


def _walk_stmts(stmts) -> List[Stmt]:
    out: List[Stmt] = []
    work = list(stmts)
    while work:
        s = work.pop()
        out.append(s)
        if isinstance(s, (Loop, When)):
            work.extend(s.body)
    return out


def _stmt_exprs(s: Stmt) -> List[Expr]:
    if isinstance(s, Loop):
        roots = [s.lower, s.upper]
    elif isinstance(s, Store):
        roots = [s.index, s.value]
    elif isinstance(s, When):
        roots = [s.cond]
    elif isinstance(s, Assign):
        roots = [s.value]
    else:
        return []
    return [n for r in roots for n in r.walk()]
