"""Statement and loop nodes of the kernel IR."""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

from ..errors import IRError
from .expr import Expr, ExprLike, Load, as_expr


class Stmt:
    """Base statement."""

    __slots__ = ()

    def expressions(self) -> Tuple[Expr, ...]:
        """All top-level expressions read by this statement."""
        return ()


class Assign(Stmt):
    """Define (or redefine) a loop-local temporary."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: ExprLike):
        self.name = name
        self.value = as_expr(value)

    def expressions(self) -> Tuple[Expr, ...]:
        return (self.value,)

    def __repr__(self) -> str:
        return f"%{self.name} = {self.value!r}"


class Store(Stmt):
    """Write one element of a memory object at a flat index."""

    __slots__ = ("obj", "index", "value")

    def __init__(self, obj: str, index: ExprLike, value: ExprLike):
        self.obj = obj
        self.index = as_expr(index)
        self.value = as_expr(value)

    def expressions(self) -> Tuple[Expr, ...]:
        return (self.index, self.value)

    @property
    def is_indirect(self) -> bool:
        """True when the index itself depends on loaded data."""
        return next(self.index.loads(), None) is not None

    def __repr__(self) -> str:
        return f"{self.obj}[{self.index!r}] = {self.value!r}"


class When(Stmt):
    """Predicated statement block (control dep -> data dep by predication).

    The compiler converts `When` into per-statement predication when
    building the DFG (paper §V-A-2: "Control-dependencies in the DFG are
    converted to data dependencies by predication").
    """

    __slots__ = ("cond", "body")

    def __init__(self, cond: ExprLike, body: Sequence[Stmt]):
        self.cond = as_expr(cond)
        self.body = list(body)
        if not self.body:
            raise IRError("When requires a non-empty body")
        for stmt in self.body:
            if isinstance(stmt, Loop):
                raise IRError("When bodies may not contain loops")

    def expressions(self) -> Tuple[Expr, ...]:
        out: List[Expr] = [self.cond]
        for stmt in self.body:
            out.extend(stmt.expressions())
        return tuple(out)

    def __repr__(self) -> str:
        return f"when {self.cond!r}: {self.body!r}"


class Loop(Stmt):
    """Counted loop: ``for var in range(lower, upper, step)``.

    Bounds are expressions so inner-loop trip counts may be data-dependent
    (e.g. CSR row pointers: ``for j in Ap[i] .. Ap[i+1]``).
    """

    __slots__ = ("var", "lower", "upper", "step", "body", "parallel")

    def __init__(self, var: str, lower: ExprLike, upper: ExprLike,
                 body: Sequence[Union[Stmt, "Loop"]], step: int = 1,
                 parallel: bool = False):
        if step == 0:
            raise IRError("loop step must be nonzero")
        self.var = var
        self.lower = as_expr(lower)
        self.upper = as_expr(upper)
        self.step = step
        self.body = list(body)
        #: hint that iterations are independent (multithreading case study)
        self.parallel = parallel
        if not self.body:
            raise IRError(f"loop over {var!r} has an empty body")

    def expressions(self) -> Tuple[Expr, ...]:
        return (self.lower, self.upper)

    # -- structure helpers ---------------------------------------------------
    def inner_loops(self) -> List["Loop"]:
        return [s for s in self.body if isinstance(s, Loop)]

    @property
    def is_innermost(self) -> bool:
        return not self.inner_loops()

    def innermost(self) -> List["Loop"]:
        """All innermost loops in this nest (in program order)."""
        inner = self.inner_loops()
        if not inner:
            return [self]
        out: List[Loop] = []
        for loop in inner:
            out.extend(loop.innermost())
        return out

    def depth(self) -> int:
        inner = self.inner_loops()
        return 1 + (max(l.depth() for l in inner) if inner else 0)

    def all_loads(self) -> List[Load]:
        out: List[Load] = []
        for stmt in self.body:
            if isinstance(stmt, Loop):
                out.extend(stmt.all_loads())
            else:
                for expr in stmt.expressions():
                    out.extend(expr.loads())
        for expr in self.expressions():
            out.extend(expr.loads())
        return out

    def all_stores(self) -> List[Store]:
        out: List[Store] = []
        for stmt in self.body:
            if isinstance(stmt, Loop):
                out.extend(stmt.all_stores())
            elif isinstance(stmt, Store):
                out.append(stmt)
            elif isinstance(stmt, When):
                out.extend(s for s in stmt.body if isinstance(s, Store))
        return out

    def __repr__(self) -> str:
        return (
            f"for {self.var} in [{self.lower!r}, {self.upper!r}) "
            f"step {self.step}: <{len(self.body)} stmts>"
        )
