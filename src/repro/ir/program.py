"""Kernels and memory objects.

A :class:`Kernel` is a named loop nest (or sequence of nests) over a set
of declared :class:`MemObject` data structures plus scalar parameters —
exactly the "application memory objects / access instructions /
operations" triple that the paper's offload abstraction is built from
(§IV-A).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import IRError
from .expr import Expr, ExprLike, Load, LoopVar, Scalar, Temp, as_expr
from .stmt import Assign, Loop, Stmt, Store, When
from .types import DType


class MemObject:
    """A flat, row-major memory object (application data structure)."""

    def __init__(self, name: str, shape: Union[int, Tuple[int, ...]],
                 dtype: DType):
        if isinstance(shape, int):
            shape = (shape,)
        if not shape or any(d <= 0 for d in shape):
            raise IRError(f"object {name!r}: bad shape {shape}")
        self.name = name
        self.shape = tuple(shape)
        self.dtype = dtype

    @property
    def num_elements(self) -> int:
        return math.prod(self.shape)

    @property
    def size_bytes(self) -> int:
        return self.num_elements * self.dtype.size_bytes

    # -- indexing sugar ---------------------------------------------------
    def flat_index(self, idxs: Sequence[ExprLike]) -> Expr:
        """Row-major flattening of a multi-dimensional index."""
        idxs = [as_expr(ix) for ix in idxs]
        if len(idxs) != len(self.shape):
            raise IRError(
                f"object {self.name!r} is {len(self.shape)}-D, "
                f"got {len(idxs)} indices"
            )
        flat = idxs[0]
        for dim, ix in zip(self.shape[1:], idxs[1:]):
            flat = flat * dim + ix
        return flat

    def __getitem__(self, idxs) -> Load:
        if not isinstance(idxs, tuple):
            idxs = (idxs,)
        return Load(self.name, self.flat_index(idxs))

    def store(self, idxs, value: ExprLike) -> Store:
        if not isinstance(idxs, tuple):
            idxs = (idxs,)
        return Store(self.name, self.flat_index(idxs), value)

    def __repr__(self) -> str:
        dims = "x".join(str(d) for d in self.shape)
        return f"<MemObject {self.name} {dims} {self.dtype!r}>"


@dataclass
class Kernel:
    """A named offloadable code region: loop nests over memory objects."""

    name: str
    objects: Dict[str, MemObject]
    loops: List[Loop]
    scalars: Dict[str, float] = field(default_factory=dict)
    #: objects whose final contents are the kernel's outputs
    outputs: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.validate()

    # -- validation --------------------------------------------------------
    def validate(self) -> None:
        if not self.loops:
            raise IRError(f"kernel {self.name!r} has no loops")
        for out in self.outputs:
            if out not in self.objects:
                raise IRError(f"unknown output object {out!r}")
        for loop in self.loops:
            self._validate_loop(loop, enclosing=[])

    def _validate_loop(self, loop: Loop, enclosing: List[str]) -> None:
        if loop.var in enclosing:
            raise IRError(f"shadowed loop variable {loop.var!r}")
        scope = enclosing + [loop.var]
        for expr in loop.expressions():
            self._validate_expr(expr, enclosing)
        temps: set = set()
        for stmt in loop.body:
            if isinstance(stmt, Loop):
                self._validate_loop(stmt, scope)
            else:
                self._validate_stmt(stmt, scope, temps)

    def _validate_stmt(self, stmt: Stmt, scope: List[str],
                       temps: set) -> None:
        if isinstance(stmt, When):
            self._validate_expr(stmt.cond, scope, temps)
            for inner in stmt.body:
                self._validate_stmt(inner, scope, temps)
            return
        for expr in stmt.expressions():
            self._validate_expr(expr, scope, temps)
        if isinstance(stmt, Assign):
            temps.add(stmt.name)
        if isinstance(stmt, Store) and stmt.obj not in self.objects:
            raise IRError(f"store to undeclared object {stmt.obj!r}")

    def _validate_expr(self, expr: Expr, scope: List[str],
                       temps: Optional[set] = None) -> None:
        for node in expr.walk():
            if isinstance(node, LoopVar) and node.name not in scope:
                raise IRError(f"loop var {node.name!r} used out of scope")
            if isinstance(node, Scalar) and node.name not in self.scalars:
                raise IRError(f"undeclared scalar {node.name!r}")
            if isinstance(node, Load) and node.obj not in self.objects:
                raise IRError(f"load from undeclared object {node.obj!r}")
            if (isinstance(node, Temp) and temps is not None
                    and node.name not in temps):
                raise IRError(f"temp %{node.name} read before assignment")

    # -- queries --------------------------------------------------------------
    def innermost_loops(self) -> List[Loop]:
        out: List[Loop] = []
        for loop in self.loops:
            out.extend(loop.innermost())
        return out

    def site_ids(self) -> Dict[int, int]:
        """Stable small integers per static Load/Store site.

        Keyed by ``id()`` of the Load expression / Store statement. Both
        the interpreter (trace records) and the DFG builder (access nodes)
        use this map, so traces can be joined with access nodes.
        """
        site_ids: Dict[int, int] = {}

        def visit_expr(expr: Expr) -> None:
            for node in expr.walk():
                if isinstance(node, Load) and id(node) not in site_ids:
                    site_ids[id(node)] = len(site_ids)

        def visit_stmt(stmt: Stmt) -> None:
            if isinstance(stmt, Loop):
                for e in stmt.expressions():
                    visit_expr(e)
                for s in stmt.body:
                    visit_stmt(s)
                return
            if isinstance(stmt, When):
                visit_expr(stmt.cond)
                for s in stmt.body:
                    visit_stmt(s)
                return
            for e in stmt.expressions():
                visit_expr(e)
            if isinstance(stmt, Store) and id(stmt) not in site_ids:
                site_ids[id(stmt)] = len(site_ids)

        for loop in self.loops:
            visit_stmt(loop)
        return site_ids

    def innermost_loop_ids(self) -> Dict[int, int]:
        """Stable small integers per innermost loop, in visit order.

        The loop-granular companion of :meth:`site_ids`: keyed by
        ``id()`` of the Loop object, valued by its structural position,
        so per-loop accounting can be keyed stably. Unlike a raw
        ``id()`` key, the position survives kernel reconstruction — two
        structurally identical kernels number their loops identically —
        and cannot alias when the allocator reuses a GC'd loop's address.
        """
        return {id(l): i for i, l in enumerate(self.innermost_loops())}

    def fingerprint(self) -> str:
        """Stable structural identity of this kernel.

        Two kernels with the same name, loop-nest structure, statements,
        objects and scalar defaults fingerprint identically regardless of
        object identity — unlike ``id()``, which the allocator may reuse
        after garbage collection. Compile caches key on this.
        """

        def fmt_loop(loop: Loop) -> str:
            body = ",".join(
                fmt_loop(s) if isinstance(s, Loop) else repr(s)
                for s in loop.body
            )
            return (
                f"for {loop.var} in [{loop.lower!r},{loop.upper!r}) "
                f"step {loop.step} {{{body}}}"
            )

        parts = [
            self.name,
            ";".join(fmt_loop(loop) for loop in self.loops),
            ",".join(
                f"{name}:{obj.shape}:{obj.dtype!r}"
                for name, obj in sorted(self.objects.items())
            ),
            ",".join(f"{k}={v}" for k, v in sorted(self.scalars.items())),
            ",".join(sorted(self.outputs)),
        ]
        return hashlib.sha1("|".join(parts).encode()).hexdigest()
