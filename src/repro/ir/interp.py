"""Functional interpreter for kernel IR — the golden model.

The interpreter serves three roles:

* **Correctness oracle** — offloaded executions are validated against its
  outputs (the paper: "all our applications with accelerator offloads are
  validated by execution until program completion").
* **Instruction/access accounting** — dynamic op counts by class
  (int/float/complex), loads/stores per object, loop iteration counts;
  these feed the OoO baseline model and Table VI coverage numbers.
* **Address tracing** — optional program-order element access trace that
  drives the cache simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

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
from .stmt import Assign, Loop, Stmt, Store, When
from .program import Kernel
from .trace import ColumnarTrace


class MemAccess(NamedTuple):
    """One dynamic element access in program order."""

    site_id: int
    obj: str
    elem_index: int
    is_write: bool


@dataclass
class OpCounts:
    """Dynamic operation counts by functional-unit class."""

    int_ops: int = 0
    float_ops: int = 0
    complex_ops: int = 0
    loads: int = 0
    stores: int = 0
    loop_overhead: int = 0  # induction update + bound compare per iteration

    @property
    def compute_ops(self) -> int:
        return self.int_ops + self.float_ops + self.complex_ops

    @property
    def total_insts(self) -> int:
        return self.compute_ops + self.loads + self.stores + self.loop_overhead

    def merged(self, other: "OpCounts") -> "OpCounts":
        return OpCounts(
            self.int_ops + other.int_ops,
            self.float_ops + other.float_ops,
            self.complex_ops + other.complex_ops,
            self.loads + other.loads,
            self.stores + other.stores,
            self.loop_overhead + other.loop_overhead,
        )


@dataclass
class InterpResult:
    """Outputs and accounting from one kernel execution.

    ``trace`` is columnar (:class:`~repro.ir.trace.ColumnarTrace`); it
    iterates as :class:`MemAccess` records in program order.
    """

    counts: OpCounts
    arrays: Dict[str, np.ndarray]
    trace: Optional[ColumnarTrace]
    iterations: Dict[str, int] = field(default_factory=dict)
    accesses_per_object: Dict[str, int] = field(default_factory=dict)
    #: innermost-loop body executions (total inner iterations)
    inner_iterations: int = 0
    #: per-innermost-loop totals, keyed by the loop's stable structural
    #: id (:meth:`~repro.ir.program.Kernel.innermost_loop_ids`): body
    #: iterations and invocation counts (times the loop was entered).
    #: Keying by ``id(loop)`` — as this used to — silently merges counts
    #: across kernels once the allocator reuses a GC'd loop's address.
    inner_iters_by_loop: Dict[int, int] = field(default_factory=dict)
    inner_invocations_by_loop: Dict[int, int] = field(default_factory=dict)


class Interpreter:
    """Tree-walking evaluator with instrumentation."""

    def __init__(self, record_trace: bool = False):
        self.record_trace = record_trace

    def run(self, kernel: Kernel,
            arrays: Dict[str, np.ndarray],
            scalars: Optional[Dict[str, float]] = None) -> InterpResult:
        """Execute ``kernel`` over ``arrays`` (mutated in place).

        ``arrays`` must contain a flat NumPy array per declared object.
        """
        # static legality guard (repro.analysis); env-var opt-out via
        # REPRO_NO_VERIFY=1. Imported lazily: repro.ir must be loadable
        # before repro.analysis (which imports from it).
        from ..analysis.verifier import assert_kernel_verified

        assert_kernel_verified(kernel, context="interpreter")
        self._check_arrays(kernel, arrays)
        env_scalars = dict(kernel.scalars)
        if scalars:
            env_scalars.update(scalars)
        self._site_ids = kernel.site_ids()
        self._loop_ids = kernel.innermost_loop_ids()
        state = _State(
            arrays=arrays,
            scalars=env_scalars,
            trace=[] if self.record_trace else None,
        )
        innermost = {id(l) for l in kernel.innermost_loops()}
        for loop in kernel.loops:
            self._run_loop(loop, state, {}, innermost)
        return InterpResult(
            counts=state.counts,
            arrays=arrays,
            trace=(ColumnarTrace.from_records(state.trace)
                   if state.trace is not None else None),
            iterations=dict(state.iterations),
            accesses_per_object=dict(state.obj_accesses),
            inner_iterations=state.inner_iterations,
            inner_iters_by_loop=dict(state.inner_iters_by_loop),
            inner_invocations_by_loop=dict(state.inner_invocations_by_loop),
        )

    # ------------------------------------------------------------------
    def _check_arrays(self, kernel: Kernel,
                      arrays: Dict[str, np.ndarray]) -> None:
        for name, obj in kernel.objects.items():
            arr = arrays.get(name)
            if arr is None:
                raise InterpreterError(f"missing array for object {name!r}")
            if arr.ndim != 1:
                raise InterpreterError(
                    f"array for {name!r} must be flat, got ndim={arr.ndim}"
                )
            if arr.size != obj.num_elements:
                raise InterpreterError(
                    f"array for {name!r} has {arr.size} elements, "
                    f"object declares {obj.num_elements}"
                )

    # ------------------------------------------------------------------
    def _run_loop(self, loop: Loop, state: "_State",
                  outer_env: Dict[str, float], innermost: set) -> None:
        lower = int(self._eval(loop.lower, outer_env, state))
        upper = int(self._eval(loop.upper, outer_env, state))
        if loop.step == 0:
            # normally rejected at construction (IRError) and by AN-V14;
            # reachable via REPRO_NO_VERIFY=1 + post-hoc mutation, and
            # range() would leak a bare ValueError
            raise InterpreterError(
                f"loop over {loop.var!r} has zero step"
            )
        is_inner = id(loop) in innermost
        if is_inner:
            loop_key = self._loop_ids[id(loop)]
            state.inner_invocations_by_loop[loop_key] = (
                state.inner_invocations_by_loop.get(loop_key, 0) + 1
            )
        iters = 0
        var = loop.var
        counts = state.counts
        body = [(isinstance(stmt, Loop), stmt) for stmt in loop.body]
        for value in range(lower, upper, loop.step):
            iters += 1
            env = dict(outer_env)
            env[var] = value
            counts.loop_overhead += 2  # induction ++ / bound check
            for nested, stmt in body:
                if nested:
                    self._run_loop(stmt, state, env, innermost)
                else:
                    self._exec_stmt(stmt, env, state)
            if is_inner:
                state.inner_iterations += 1
        if is_inner:
            state.inner_iters_by_loop[loop_key] = (
                state.inner_iters_by_loop.get(loop_key, 0) + iters
            )
        state.iterations[loop.var] = state.iterations.get(loop.var, 0) + iters

    def _exec_stmt(self, stmt: Stmt, env: Dict[str, float],
                   state: "_State") -> None:
        if isinstance(stmt, Assign):
            env[stmt.name] = self._eval(stmt.value, env, state)
        elif isinstance(stmt, Store):
            self._store(stmt, env, state)
        elif isinstance(stmt, When):
            if self._eval(stmt.cond, env, state):
                for inner in stmt.body:
                    self._exec_stmt(inner, env, state)
        else:
            raise InterpreterError(f"unknown statement {stmt!r}")

    def _store(self, stmt: Store, env: Dict[str, float],
               state: "_State") -> None:
        index = int(self._eval(stmt.index, env, state))
        value = self._eval(stmt.value, env, state)
        arr = state.arrays.get(stmt.obj)
        if arr is None:
            raise InterpreterError(
                f"store to unknown object {stmt.obj!r} at index {index}"
            )
        if not (0 <= index < arr.size):
            raise InterpreterError(
                f"store out of bounds: {stmt.obj}[{index}] (size {arr.size})"
            )
        arr[index] = value
        state.counts.stores += 1
        state.obj_accesses[stmt.obj] = state.obj_accesses.get(stmt.obj, 0) + 1
        if state.trace is not None:
            # plain tuple, not MemAccess: structurally identical, and the
            # NamedTuple constructor is measurable at millions of appends
            # (ColumnarTrace.from_records consumes either)
            state.trace.append(
                (self._site_ids[id(stmt)], stmt.obj, index, True)
            )

    # ------------------------------------------------------------------
    def _eval(self, expr: Expr, env: Dict[str, float],
              state: "_State") -> float:
        kind = expr.__class__
        if kind is Const:
            return expr.value
        if kind is LoopVar or kind is Temp:
            try:
                return env[expr.name]
            except KeyError:
                raise InterpreterError(
                    f"unbound name {expr.name!r} in expression"
                ) from None
        if kind is Scalar:
            try:
                return state.scalars[expr.name]
            except KeyError:
                raise InterpreterError(
                    f"unbound scalar {expr.name!r}"
                ) from None
        if kind is Load:
            index = int(self._eval(expr.index, env, state))
            arr = state.arrays.get(expr.obj)
            if arr is None:
                raise InterpreterError(
                    f"load from unknown object {expr.obj!r} at index {index}"
                )
            if not (0 <= index < arr.size):
                raise InterpreterError(
                    f"load out of bounds: {expr.obj}[{index}] "
                    f"(size {arr.size})"
                )
            state.counts.loads += 1
            state.obj_accesses[expr.obj] = (
                state.obj_accesses.get(expr.obj, 0) + 1
            )
            if state.trace is not None:
                state.trace.append(
                    (self._site_ids[id(expr)], expr.obj, index, False)
                )
            return arr.item(index)
        if kind is BinOp:
            lhs = self._eval(expr.lhs, env, state)
            rhs = self._eval(expr.rhs, env, state)
            # _count_op inlined (hottest interpreter operation)
            op = expr.op
            counts = state.counts
            if op in COMPLEX_OPS:
                counts.complex_ops += 1
            elif isinstance(lhs, float) or isinstance(rhs, float):
                counts.float_ops += 1
            else:
                counts.int_ops += 1
            return _apply_binop(op, lhs, rhs)
        if kind is UnaryOp:
            val = self._eval(expr.operand, env, state)
            self._count_op(expr.op, val, 0, state)
            return _apply_unop(expr.op, val)
        if kind is Select:
            cond = self._eval(expr.cond, env, state)
            state.counts.int_ops += 1  # the select itself
            branch = expr.if_true if cond else expr.if_false
            return self._eval(branch, env, state)
        raise InterpreterError(f"unknown expression {expr!r}")

    @staticmethod
    def _count_op(op: str, lhs: float, rhs: float, state: "_State") -> None:
        counts = state.counts
        if op in COMPLEX_OPS:
            counts.complex_ops += 1
        elif isinstance(lhs, float) or isinstance(rhs, float):
            counts.float_ops += 1
        else:
            counts.int_ops += 1


def _apply_binop(op: str, lhs, rhs):
    if op == "+":
        return lhs + rhs
    if op == "-":
        return lhs - rhs
    if op == "*":
        return lhs * rhs
    if op == "/":
        if isinstance(lhs, int) and isinstance(rhs, int):
            if rhs == 0:
                raise InterpreterError("integer division by zero")
            # trunc-toward-zero without the float64 round trip that
            # corrupts quotients once |operands| reach 2^53
            return -(-lhs // rhs) if (lhs < 0) != (rhs < 0) else lhs // rhs
        return lhs / rhs
    if op == "%":
        if rhs == 0:
            raise InterpreterError("modulo by zero")
        return lhs % rhs
    if op == "min":
        return lhs if lhs <= rhs else rhs
    if op == "max":
        return lhs if lhs >= rhs else rhs
    if op == "==":
        return 1 if lhs == rhs else 0
    if op == "!=":
        return 1 if lhs != rhs else 0
    if op == "<":
        return 1 if lhs < rhs else 0
    if op == "<=":
        return 1 if lhs <= rhs else 0
    if op == ">":
        return 1 if lhs > rhs else 0
    if op == ">=":
        return 1 if lhs >= rhs else 0
    if op == "&":
        return int(lhs) & int(rhs)
    if op == "|":
        return int(lhs) | int(rhs)
    if op == "^":
        return int(lhs) ^ int(rhs)
    if op == "<<":
        return int(lhs) << int(rhs)
    if op == ">>":
        return int(lhs) >> int(rhs)
    raise InterpreterError(f"unhandled binary op {op!r}")


def _apply_unop(op: str, val):
    import math

    if op == "-":
        return -val
    if op == "abs":
        return abs(val)
    if op == "sqrt":
        if val < 0:
            raise InterpreterError(f"sqrt of negative value {val}")
        return math.sqrt(val)
    if op == "exp":
        return math.exp(val)
    if op == "log":
        if val <= 0:
            raise InterpreterError(f"log of non-positive value {val}")
        return math.log(val)
    if op == "floor":
        return math.floor(val)
    if op == "not":
        return 0 if val else 1
    raise InterpreterError(f"unhandled unary op {op!r}")


@dataclass
class _State:
    arrays: Dict[str, np.ndarray]
    scalars: Dict[str, float]
    #: MemAccess-shaped plain tuples (site_id, obj, elem_index, is_write)
    trace: Optional[List[Tuple[int, str, int, bool]]]
    counts: OpCounts = field(default_factory=OpCounts)
    iterations: Dict[str, int] = field(default_factory=dict)
    obj_accesses: Dict[str, int] = field(default_factory=dict)
    inner_iterations: int = 0
    inner_iters_by_loop: Dict[int, int] = field(default_factory=dict)
    inner_invocations_by_loop: Dict[int, int] = field(default_factory=dict)
