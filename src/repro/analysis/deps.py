"""Affine dependence & footprint analysis (rules AN-D01..AN-D03).

Per innermost loop, summarizes every memory access as an
:class:`AccessRegion` (object, stride w.r.t. the induction variable,
static element interval) and runs a GCD + interval loop-carried
dependence test, statically classifying the loop as

* ``PARALLEL``   — iterations provably independent,
* ``REDUCTION``  — the only carried dependence is an accumulator
  (loop-invariant store address read back in the same loop),
* ``SERIAL``     — a carried dependence exists or independence cannot
  be proven (indirect/unanalyzable accesses).

The classification is deliberately redundant with
:func:`repro.dfg.classify.classify_kernel_loop` — the DFG classifier
decides *how to offload*, this pass decides *what is true of the
memory accesses* — and rule AN-D03 cross-checks the two: a genuine
contradiction means one of the analyses has a bug.

Rules
-----
==========  ========  =====================================================
AN-D01      error     loop annotated ``parallel=True`` but a loop-carried
                      dependence exists (or cannot be excluded)
AN-D02      info      reduction loop (carried accumulator)
AN-D03      error     dependence classification contradicts the DFG
                      offload classifier
==========  ========  =====================================================
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..dfg.classify import Classification, classify_kernel_loop
from ..dfg.node import AccessPattern
from ..dfg.scev import analyze_index, classify_pattern
from ..ir.expr import Expr
from ..ir.program import Kernel
from ..ir.stmt import Loop, Stmt, Store, When
from .findings import Finding, Severity
from .ranges import Env, affine_form, affine_range, expr_interval, \
    loop_var_range


class DepKind(enum.Enum):
    PARALLEL = "parallel"
    REDUCTION = "reduction"
    SERIAL = "serial"


@dataclass(frozen=True)
class AccessRegion:
    """Summary of one static access site w.r.t. an innermost loop."""

    obj: str
    is_write: bool
    pattern: AccessPattern
    #: element stride per innermost iteration (None = not affine)
    stride: Optional[int]
    #: constant part of the affine index (None = unknown/outer-dependent)
    offset: Optional[int]
    outer_dependent: bool
    #: static element interval touched over the whole loop, when known
    interval: Optional[Tuple[int, int]]
    #: canonical index text, for same-address (RMW) detection
    index_repr: str
    guarded: bool = False


@dataclass
class LoopDepSummary:
    """Dependence summary of one innermost loop."""

    var: str
    location: str
    reads: Tuple[AccessRegion, ...]
    writes: Tuple[AccessRegion, ...]
    kind: DepKind
    reasons: Tuple[str, ...]


# ---------------------------------------------------------------------------
# region extraction
# ---------------------------------------------------------------------------
def _region(obj: str, index: Expr, is_write: bool, var: str, env: Env,
            guarded: bool) -> AccessRegion:
    rec = analyze_index(index, var)
    interval = None
    form = affine_form(index)
    if form is not None:
        res = affine_range(form[0], form[1], env)
        if res is not None:
            interval = (res[0], res[1])
    else:
        interval = expr_interval(index, env)
    return AccessRegion(
        obj=obj, is_write=is_write,
        pattern=classify_pattern(index, var),
        stride=rec.stride if rec is not None else None,
        offset=rec.const_offset if rec is not None else None,
        outer_dependent=rec.outer_dependent if rec is not None else False,
        interval=interval,
        index_repr=repr(index),
        guarded=guarded,
    )


def _collect_regions(loop: Loop, var: str, env: Env,
                     guarded: bool = False
                     ) -> Tuple[List[AccessRegion], List[AccessRegion]]:
    reads: List[AccessRegion] = []
    writes: List[AccessRegion] = []

    def visit_expr(expr: Expr, in_when: bool) -> None:
        for load in expr.loads():
            reads.append(_region(load.obj, load.index, False, var, env,
                                 in_when))

    def visit_body(body: Sequence[Stmt], in_when: bool) -> None:
        for stmt in body:
            if isinstance(stmt, Loop):  # defensive: innermost has none
                for e in stmt.expressions():
                    visit_expr(e, in_when)
                visit_body(stmt.body, in_when)
            elif isinstance(stmt, When):
                visit_expr(stmt.cond, in_when)
                visit_body(stmt.body, True)
            elif isinstance(stmt, Store):
                visit_expr(stmt.index, in_when)
                visit_expr(stmt.value, in_when)
                writes.append(_region(stmt.obj, stmt.index, True, var,
                                      env, in_when))
            else:
                for e in stmt.expressions():
                    visit_expr(e, in_when)

    visit_body(loop.body, guarded)
    return reads, writes


# ---------------------------------------------------------------------------
# dependence testing
# ---------------------------------------------------------------------------
def _disjoint(a: Optional[Tuple[int, int]],
              b: Optional[Tuple[int, int]]) -> bool:
    return (a is not None and b is not None
            and (a[1] < b[0] or b[1] < a[0]))


def _carried(write: AccessRegion, other: AccessRegion,
             trip_bound: Optional[int]) -> Optional[str]:
    """Reason a loop-carried dependence may exist between ``write`` and
    ``other`` (a read or another write); None = provably independent or
    same-iteration-only (plain RMW)."""
    if _disjoint(write.interval, other.interval):
        return None
    if write.stride is None:
        return "unanalyzable write index"
    if other.stride is None:
        kind = "write" if other.is_write else "read"
        return f"unanalyzable {kind} index"
    sw, so = write.stride, other.stride
    ow, oo = write.offset, other.offset
    if sw == 0 and so == 0:
        if write.index_repr == other.index_repr:
            return "loop-carried accumulator"
        if (ow is not None and oo is not None
                and not write.outer_dependent
                and not other.outer_dependent):
            return None if ow != oo else "loop-carried accumulator"
        return "loop-carried accumulator"
    if sw == 0 or so == 0:
        # one side fixed, the other sweeps: the sweep crosses the fixed
        # element unless the intervals are disjoint (checked above)
        return "invariant/stream overlap"
    if write.index_repr == other.index_repr:
        return None  # identical address every iteration: RMW only
    if sw == so:
        if (ow is not None and oo is not None
                and not write.outer_dependent
                and not other.outer_dependent):
            if ow == oo:
                return None  # same element, same iteration
            dist = oo - ow
            if dist % sw != 0:
                return None  # offsets never align across iterations
            if trip_bound is not None and abs(dist // sw) >= trip_bound:
                return None  # dependence distance exceeds the trip count
            return f"carried dependence, distance {dist // sw}"
        return "possibly overlapping equal-stride accesses"
    g = math.gcd(abs(sw), abs(so))
    if (ow is not None and oo is not None
            and not write.outer_dependent and not other.outer_dependent
            and (oo - ow) % g != 0):
        return None  # GCD test: address lattices never intersect
    return "cross-stride overlap"


def analyze_innermost_loop(loop: Loop, kernel: Kernel,
                           env: Optional[Env] = None,
                           location: str = "") -> LoopDepSummary:
    """Region summaries + dependence classification of one innermost
    loop. ``env`` supplies enclosing-loop variable ranges."""
    env = dict(env or {})
    var_range = loop_var_range(loop, env)
    trip_bound = None
    if var_range is not None and not var_range.empty:
        env[loop.var] = var_range
        if var_range.exact and loop.step != 0:
            trip_bound = (var_range.hi - var_range.lo) // abs(loop.step) + 1
    reads, writes = _collect_regions(loop, loop.var, env)

    kind = DepKind.PARALLEL
    reasons: List[str] = []
    for i, w in enumerate(writes):
        others = reads + writes[i + 1:]
        for other in others:
            if other.obj != w.obj:
                continue
            reason = _carried(w, other, trip_bound)
            if reason is None:
                continue
            if reason == "loop-carried accumulator":
                if kind is not DepKind.SERIAL:
                    kind = DepKind.REDUCTION
            else:
                kind = DepKind.SERIAL
            reasons.append(f"{w.obj}: {reason}")
    return LoopDepSummary(
        var=loop.var, location=location or f"{kernel.name}/loop[{loop.var}]",
        reads=tuple(reads), writes=tuple(writes),
        kind=kind, reasons=tuple(dict.fromkeys(reasons)),
    )


def innermost_walk(kernel: Kernel) -> Iterator[Tuple[Loop, Env, str]]:
    """Yield ``(loop, enclosing_env, path)`` for every innermost loop.

    Paths are unique: a sibling loop reusing an enclosing-level variable
    name gets an ordinal suffix (``loop[i#2]``).
    """

    def walk(loops: Sequence[Loop], env: Env, prefix: str
             ) -> Iterator[Tuple[Loop, Env, str]]:
        seen: Dict[str, int] = {}
        for loop in loops:
            n = seen.get(loop.var, 0)
            seen[loop.var] = n + 1
            seg = (f"loop[{loop.var}]" if n == 0
                   else f"loop[{loop.var}#{n + 1}]")
            path = f"{prefix}/{seg}"
            inner = loop.inner_loops()
            if not inner:
                yield loop, env, path
                continue
            rng = loop_var_range(loop, env)
            inner_env = dict(env)
            if rng is not None and not rng.empty:
                inner_env[loop.var] = rng
            yield from walk(inner, inner_env, path)

    yield from walk(kernel.loops, {}, kernel.name)


def analyze_kernel(kernel: Kernel) -> List[LoopDepSummary]:
    """Dependence summaries for every innermost loop of ``kernel``."""
    return [analyze_innermost_loop(loop, kernel, env, location=path)
            for loop, env, path in innermost_walk(kernel)]


# ---------------------------------------------------------------------------
# cross-check against the DFG offload classifier
# ---------------------------------------------------------------------------
def agrees_with_classification(kind: DepKind,
                               classification: Classification) -> bool:
    """True when the dependence class and the offload class can both be
    right. The offload classifier answers a different question (how to
    legally offload), so several pairs are compatible:

    * ``PARALLEL``  ↔ PARALLELIZABLE, or PIPELINABLE (the offloader may
      be more conservative than the GCD/interval test);
    * ``REDUCTION``/``SERIAL`` ↔ PIPELINABLE or SERIAL.

    The contradictions are ``PARALLEL`` ↔ SERIAL (we proved independence
    where the offloader found a hard serial chain) and non-``PARALLEL``
    ↔ PARALLELIZABLE (the offloader claims independence we refuted).
    """
    if kind is DepKind.PARALLEL:
        return classification is not Classification.SERIAL
    return classification is not Classification.PARALLELIZABLE


def dependence_findings(kernel: Kernel) -> List[Finding]:
    """AN-D01..AN-D03 lint findings for ``kernel``."""
    findings: List[Finding] = []
    for loop, env, path in innermost_walk(kernel):
        summary = analyze_innermost_loop(loop, kernel, env, location=path)
        if loop.parallel and summary.kind is not DepKind.PARALLEL:
            findings.append(Finding(
                rule="AN-D01", severity=Severity.ERROR, location=path,
                message=(
                    f"loop over {loop.var!r} is annotated parallel but "
                    f"analysis found: {'; '.join(summary.reasons)}"
                ),
                kernel=kernel.name,
            ))
        if summary.kind is DepKind.REDUCTION:
            findings.append(Finding(
                rule="AN-D02", severity=Severity.INFO, location=path,
                message=(
                    f"reduction loop: {'; '.join(summary.reasons)}"
                ),
                kernel=kernel.name,
            ))
        classify = classify_kernel_loop(loop, kernel)
        if not agrees_with_classification(summary.kind, classify.kind):
            findings.append(Finding(
                rule="AN-D03", severity=Severity.ERROR, location=path,
                message=(
                    f"dependence analysis says {summary.kind.value} "
                    f"({'; '.join(summary.reasons) or 'no dependences'}) "
                    f"but the offload classifier says "
                    f"{classify.kind.value} "
                    f"({'; '.join(classify.reasons) or 'no reasons'})"
                ),
                kernel=kernel.name,
            ))
    return findings
