"""AN-C static cost model: closed-form traffic/time/energy intervals.

The pass family derives, per kernel x configuration x machine point, a
sound **interval** ``[lo, hi]`` for every figure-visible metric of a run
(:class:`~repro.sim.results.RunResult`): time, energy, per-level cache
traffic, data movement, instruction and memory-op counts. The interval
discipline is the whole contract:

* the **lower bound** is provable from first principles (compulsory
  misses: every distinct cache line a run touches crosses the chip
  boundary at least once; compute: every instruction issues at most
  ``issue_width`` per cycle; accelerators: a partition cannot retire
  iterations faster than its initiation interval), and
* the **upper bound** is a no-reuse worst case built from the simulator's
  own charge sheet (every latency bounded by the named ``LATM_*``
  constants below, every event count bounded by its architectural
  maximum).

Measured values from :func:`repro.sim.system.simulate_workload` must fall
inside the interval for *every* kernel — the soundness oracle in
:mod:`repro.testing.oracle` enforces exactly that across the fuzzer and
all registered workloads. Nothing here runs the event-driven simulator:
the cost of a query is one symbolic walk over the IR plus (for
accelerator configs) one compile of the kernel, which is what makes the
model usable as a DSE pre-pass (:mod:`repro.analysis.prune`) and an
offload lint (:mod:`repro.analysis.costlint`).

Widths are honest: data-dependent trip counts make upper bounds
infinite, and the latency margins are deliberately pessimistic, so most
real offload comparisons stay undecided — the point is that when an
interval comparison *does* decide, the decision needs no simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple,
)

from ..ir.expr import (
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
from ..ir.program import Kernel, MemObject
from ..energy.tables import EnergyTable
from ..ir.stmt import Assign, Loop, Stmt, Store, When
from ..params import CACHE_LINE_BYTES, MachineParams
from .ranges import affine_form

if TYPE_CHECKING:
    from ..sim.tracecache import WorkloadTrace

INF = math.inf

# ---------------------------------------------------------------------------
# margin constants (all latencies in cycles at the named clock)
# ---------------------------------------------------------------------------

#: worst-case latency of one host demand access (L1 + L2 + L3 bank + NoC
#: round trips + DRAM + late-prefetch residual), with margin.
LATM_OOO_ACCESS = 320
#: worst-case cycles to fetch/drain one cache line through the access
#: path (L3 probe + NoC + DRAM fill + writeback), with margin.
LATM_LINE = 256
#: worst-case cycles for one indirect element access (ACP + L3 + DRAM).
LATM_ELEM = 256
#: upper bound on data movement per host memory access (fills, evicts,
#: prefetch chains and NoC header byte-hops all included).
MOVE_HI_PER_HOST_ACCESS = 8192
#: L2/L3/DRAM/prefetch access-count caps per host access (demand probe +
#: prefetcher side effects), validated by the soundness oracle.
L2_HI_PER_ACCESS = 4
L3_HI_PER_ACCESS = 6
DRAM_HI_PER_ACCESS = 8
PREFETCH_HI_PER_ACCESS = 2
#: per-call / per-offload picosecond slack absorbing integer rounding of
#: `cycles_to_ps` across chunked delays.
SLACK_PS_PER_CALL = 4000
#: per-channel pipeline-fill delay upper bound (ps).
CHAN_FILL_PS = 20_000
#: the engine splits work into ~128 chunks (``TARGET_CHUNKS``); the
#: one-time channel fill delay serializes one chunk's flits, bounded
#: here with the divisor halved for margin.
TARGET_CHUNKS_BOUND = 64
#: host<->engine relaunch handshake (engine HOST_SYNC_CYCLES=40 at 2GHz).
RELAUNCH_PS = 20_000
#: flat per-offload configure upper bound (MMIO + scheduler tables), ps;
#: the setup microcode itself is added exactly via the backend.
CONFIGURE_PS = 40_000
#: movement upper per fetched line on the accel path (fill + writeback +
#: NoC headers + handshakes).
MOVE_HI_PER_LINE = 1024
#: movement upper per indirect element access on the accel path (the
#: element's line may be DRAM-filled into the home cluster).
MOVE_HI_PER_ELEM = 512
#: flat per-call energy margin (pJ) for coherence acquires and MMIO odds
#: and ends not itemized below.
ENERGY_MARGIN_PJ_PER_CALL = 50_000.0

#: the six paper configurations the model's margins are validated on
#: (see ``tools/validate_cost.py`` and the soundness oracle).
VALIDATED_CONFIGS = (
    "ooo", "mono_ca", "mono_da_io", "mono_da_f", "dist_da_io", "dist_da_f",
)

#: metric keys every prediction carries.
METRICS = (
    "time_ps", "energy_pj", "insts", "mem_ops", "movement_bytes",
    "l1", "l2", "l3", "dram", "prefetches", "acp", "accel_iterations",
)


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """A closed interval ``[lo, hi]``; ``hi`` may be ``math.inf``."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval: [{self.lo}, {self.hi}]")

    # -- constructors --------------------------------------------------
    @staticmethod
    def point(v: float) -> "Interval":
        return Interval(v, v)

    @staticmethod
    def zero() -> "Interval":
        return _ZERO

    @staticmethod
    def top() -> "Interval":
        return Interval(0.0, INF)

    # -- predicates ----------------------------------------------------
    @property
    def exact(self) -> bool:
        return self.lo == self.hi and math.isfinite(self.lo)

    def contains(self, value: float, rel: float = 1e-9,
                 abs_: float = 1e-6) -> bool:
        slack = max(abs_, rel * max(abs(self.lo),
                                    abs(value),
                                    abs(self.hi) if math.isfinite(self.hi)
                                    else 0.0))
        if value < self.lo - slack:
            return False
        if math.isfinite(self.hi) and value > self.hi + slack:
            return False
        return True

    def width_over(self, measured: float) -> float:
        """Bound tightness: interval width / measured value."""
        if not math.isfinite(self.hi):
            return INF
        if measured == 0:
            return 0.0 if self.hi == self.lo else INF
        return (self.hi - self.lo) / abs(measured)

    # -- arithmetic (counts: both endpoints >= 0 unless stated) --------
    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def scale(self, k: float) -> "Interval":
        """Multiply by a nonnegative constant (``0 * inf == 0``)."""
        if k < 0:
            raise ValueError("scale expects a nonnegative factor")
        return Interval(_mul0(self.lo, k), _mul0(self.hi, k))

    def times(self, other: "Interval") -> "Interval":
        """Product of two nonnegative intervals (``0 * inf == 0``)."""
        return Interval(_mul0(self.lo, other.lo), _mul0(self.hi, other.hi))

    def join(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def clamp_nonneg(self) -> "Interval":
        return Interval(max(self.lo, 0.0), max(self.hi, 0.0))

    def widen(self, rel: float = 0.0, abs_: float = 0.0) -> "Interval":
        lo = self.lo - abs_ - rel * abs(self.lo)
        hi = self.hi
        if math.isfinite(hi):
            hi = hi + abs_ + rel * abs(hi)
        return Interval(max(lo, 0.0) if self.lo >= 0 else lo, hi)

    def as_pair(self) -> Tuple[float, float]:
        return (self.lo, self.hi)


_ZERO = Interval(0.0, 0.0)
_ONE = Interval(1.0, 1.0)


def _mul0(a: float, b: float) -> float:
    """Multiplication with the counting convention ``0 * inf == 0``."""
    if a == 0 or b == 0:
        return 0.0
    return a * b


def _imax(a: Interval, b: Interval) -> Interval:
    """Interval of ``max(x, y)`` for independent x in a, y in b."""
    return Interval(max(a.lo, b.lo), max(a.hi, b.hi))


def _ceil_div(num: float, den: float) -> float:
    """``ceil(num / den)`` tolerating infinite numerators."""
    if not math.isfinite(num):
        return INF if num > 0 else -INF
    return math.ceil(num / den)


# ---------------------------------------------------------------------------
# value intervals over expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarDesc:
    """What the walker knows about one in-scope name.

    ``n_values``/``step_mag``/``grid_exact`` describe the arithmetic
    progression an induction variable walks (used by the distinct-line
    lower bound); temporaries carry only a value interval.
    """

    lo: float
    hi: float
    n_values: Interval = _ONE
    step_mag: int = 0
    grid_exact: bool = False


Env = Dict[str, VarDesc]

_CMP_OPS = ("<", "<=", ">", ">=", "==", "!=")


def value_interval(expr: Expr, env: Env,
                   scalars: Mapping[str, Any]) -> Interval:
    """Sound interval for the runtime value of ``expr``.

    Loaded data is unknown (``[-inf, inf]``); scalars resolve to the
    bound call values; everything else follows interval arithmetic with
    the interpreter's numeric semantics (truncating integer division,
    Python modulo, comparisons yielding 0/1).
    """
    if isinstance(expr, Const):
        return Interval.point(float(expr.value))
    if isinstance(expr, Scalar):
        if expr.name in scalars:
            return Interval.point(float(scalars[expr.name]))
        return Interval(-INF, INF)
    if isinstance(expr, (LoopVar, Temp)):
        desc = env.get(expr.name)
        if desc is None:
            return Interval(-INF, INF)
        return Interval(desc.lo, desc.hi)
    if isinstance(expr, Load):
        return Interval(-INF, INF)
    if isinstance(expr, UnaryOp):
        return _unop_value(expr.op, value_interval(expr.operand, env, scalars))
    if isinstance(expr, BinOp):
        lhs = value_interval(expr.lhs, env, scalars)
        rhs = value_interval(expr.rhs, env, scalars)
        return _binop_value(expr.op, lhs, rhs)
    if isinstance(expr, Select):
        cond = value_interval(expr.cond, env, scalars)
        if cond.lo > 0 or cond.hi < 0:
            return value_interval(expr.if_true, env, scalars)
        if cond.lo == cond.hi == 0:
            return value_interval(expr.if_false, env, scalars)
        return value_interval(expr.if_true, env, scalars).join(
            value_interval(expr.if_false, env, scalars))
    return Interval(-INF, INF)


def _unop_value(op: str, v: Interval) -> Interval:
    if op == "-":
        return Interval(-v.hi, -v.lo)
    if op == "abs":
        lo = 0.0 if v.lo <= 0 <= v.hi else min(abs(v.lo), abs(v.hi))
        return Interval(lo, max(abs(v.lo), abs(v.hi)))
    if op == "floor":
        return Interval(math.floor(v.lo) if math.isfinite(v.lo) else v.lo,
                        math.floor(v.hi) if math.isfinite(v.hi) else v.hi)
    if op == "not":
        if v.lo > 0 or v.hi < 0:
            return Interval.point(0.0)
        if v.lo == v.hi == 0:
            return Interval.point(1.0)
        return Interval(0.0, 1.0)
    if op == "sqrt":
        if v.lo < 0:
            return Interval(-INF, INF)  # may fault at runtime
        hi = math.sqrt(v.hi) if math.isfinite(v.hi) else INF
        return Interval(math.sqrt(v.lo), hi)
    if op == "rsqrt":
        if v.lo <= 0:
            return Interval(-INF, INF)
        lo = 0.0 if not math.isfinite(v.hi) else 1.0 / math.sqrt(v.hi)
        return Interval(lo, 1.0 / math.sqrt(v.lo))
    if op == "exp":
        try:
            lo = math.exp(v.lo) if math.isfinite(v.lo) else (
                0.0 if v.lo < 0 else INF)
            hi = math.exp(v.hi) if math.isfinite(v.hi) else INF
        except OverflowError:
            return Interval(0.0, INF)
        return Interval(lo, hi)
    if op == "log":
        if v.lo <= 0:
            return Interval(-INF, INF)
        hi = math.log(v.hi) if math.isfinite(v.hi) else INF
        return Interval(math.log(v.lo), hi)
    return Interval(-INF, INF)


def _binop_value(op: str, a: Interval, b: Interval) -> Interval:
    if op == "+":
        return Interval(a.lo + b.lo, a.hi + b.hi)
    if op == "-":
        return Interval(a.lo - b.hi, a.hi - b.lo)
    if op == "*":
        cands = [_mul0(x, y) for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
        return Interval(min(cands), max(cands))
    if op == "min":
        return Interval(min(a.lo, b.lo), min(a.hi, b.hi))
    if op == "max":
        return Interval(max(a.lo, b.lo), max(a.hi, b.hi))
    if op in _CMP_OPS:
        return _cmp_value(op, a, b)
    if op == "/":
        if b.lo <= 0 <= b.hi:
            return Interval(-INF, INF)
        cands = []
        for x in (a.lo, a.hi):
            for y in (b.lo, b.hi):
                if math.isfinite(x) and math.isfinite(y):
                    cands.append(x / y)
                else:
                    return Interval(-INF, INF)
        # widen by 1 either way: the interpreter truncates int/int
        return Interval(math.floor(min(cands)) - 1,
                        math.ceil(max(cands)) + 1)
    if op == "%":
        if b.exact and b.lo != 0:
            d = b.lo
            return Interval(0.0, d - 1) if d > 0 else Interval(d + 1, 0.0)
        if b.lo > 0:
            return Interval(0.0, b.hi - 1 if math.isfinite(b.hi) else INF)
        return Interval(-INF, INF)
    if op in ("&", "|", "^"):
        if a.lo >= 0 and b.lo >= 0 and math.isfinite(a.hi) \
                and math.isfinite(b.hi):
            if op == "&":
                return Interval(0.0, min(a.hi, b.hi))
            return Interval(0.0, a.hi + b.hi)  # a|b <= a+b, a^b <= a+b
        return Interval(-INF, INF)
    if op == "<<":
        if a.lo >= 0 and 0 <= b.lo and b.hi <= 63 and math.isfinite(a.hi):
            return Interval(float(int(a.lo) << int(b.lo)),
                            float(int(a.hi) << int(b.hi)))
        return Interval(-INF, INF)
    if op == ">>":
        if a.lo >= 0 and b.lo >= 0 and math.isfinite(a.hi):
            sh_lo = min(int(b.lo), 63)
            sh_hi = min(int(b.hi), 63) if math.isfinite(b.hi) else 63
            return Interval(float(int(a.lo) >> sh_hi),
                            float(int(a.hi) >> sh_lo))
        return Interval(-INF, INF)
    return Interval(-INF, INF)


def _cmp_value(op: str, a: Interval, b: Interval) -> Interval:
    def decide(true_when: bool, false_when: bool) -> Interval:
        if true_when:
            return Interval.point(1.0)
        if false_when:
            return Interval.point(0.0)
        return Interval(0.0, 1.0)

    if op == "<":
        return decide(a.hi < b.lo, a.lo >= b.hi)
    if op == "<=":
        return decide(a.hi <= b.lo, a.lo > b.hi)
    if op == ">":
        return decide(a.lo > b.hi, a.hi <= b.lo)
    if op == ">=":
        return decide(a.lo >= b.hi, a.hi < b.lo)
    if op == "==":
        return decide(a.exact and b.exact and a.lo == b.lo,
                      a.hi < b.lo or b.hi < a.lo)
    if op == "!=":
        return decide(a.hi < b.lo or b.hi < a.lo,
                      a.exact and b.exact and a.lo == b.lo)
    return Interval(0.0, 1.0)


# ---------------------------------------------------------------------------
# static operation counts (mirrors repro.ir.interp classification)
# ---------------------------------------------------------------------------

class _Acc:
    """Interval accumulator over the interpreter's OpCounts classes.

    ``nc`` counts non-complex compute ops (the interpreter's int + float
    classes together, which the walk knows exactly); ``flt`` is the
    float sub-count (a sub-interval of ``nc``: EITHER-typed operands
    make the split uncertain).
    """

    __slots__ = ("nc", "flt", "cpx", "loads", "stores", "ovh")

    def __init__(self) -> None:
        self.nc = _ZERO
        self.flt = _ZERO
        self.cpx = _ZERO
        self.loads = _ZERO
        self.stores = _ZERO
        self.ovh = _ZERO

    def add(self, other: "_Acc") -> None:
        self.nc = self.nc + other.nc
        self.flt = self.flt + other.flt
        self.cpx = self.cpx + other.cpx
        self.loads = self.loads + other.loads
        self.stores = self.stores + other.stores
        self.ovh = self.ovh + other.ovh

    def join(self, other: "_Acc") -> "_Acc":
        out = _Acc()
        out.nc = self.nc.join(other.nc)
        out.flt = self.flt.join(other.flt)
        out.cpx = self.cpx.join(other.cpx)
        out.loads = self.loads.join(other.loads)
        out.stores = self.stores.join(other.stores)
        out.ovh = self.ovh.join(other.ovh)
        return out

    # -- derived interpreter-facing intervals --------------------------
    @property
    def mem_ops(self) -> Interval:
        return self.loads + self.stores

    @property
    def int_ops(self) -> Interval:
        return Interval(max(self.nc.lo - self.flt.hi, 0.0),
                        max(self.nc.hi - self.flt.lo, 0.0))

    @property
    def float_ops(self) -> Interval:
        return self.flt

    @property
    def total_insts(self) -> Interval:
        return (self.nc + self.cpx + self.loads + self.stores + self.ovh)


#: static type lattice over expression results.
_INT, _FLT, _ANY = "i", "f", "e"


@dataclass
class SiteRec:
    """One textual load/store site with its execution-count interval."""

    obj: str
    index: Expr
    count: Interval
    definite: bool
    env: Env
    is_store: bool


@dataclass
class KernelCallCost:
    """Static cost of one kernel invocation with bound scalars."""

    kernel: Kernel
    scalars: Dict[str, Any]
    counts: _Acc
    sites: List[SiteRec]
    #: stable innermost-loop position -> (total iterations, invocations)
    trips: Dict[int, Tuple[Interval, Interval]]


class _Walker:
    """Single symbolic pass computing count intervals and access sites.

    Mirrors the golden interpreter's accounting exactly: loop bounds are
    evaluated once per invocation (their loads count), every iteration
    charges ``loop_overhead += 2``, a `Select` evaluates its condition,
    itself (one int op) and the taken branch only, and a `When` body
    executes iff its condition is truthy.
    """

    def __init__(self, kernel: Kernel, scalars: Mapping[str, Any]) -> None:
        self.kernel = kernel
        self.scalars = dict(scalars)
        self.acc = _Acc()
        self.sites: List[SiteRec] = []
        self.trips: Dict[int, List[Interval]] = {}
        self._inner_ids = kernel.innermost_loop_ids()
        self._tmp_types: Dict[str, str] = {}

    def run(self) -> KernelCallCost:
        env: Env = {}
        for loop in self.kernel.loops:
            self._loop(loop, _ONE, True, env)
        trips = {
            pos: (pair[0], pair[1]) for pos, pair in self.trips.items()
        }
        return KernelCallCost(self.kernel, self.scalars, self.acc,
                              self.sites, trips)

    # -- statements ----------------------------------------------------
    def _stmts(self, body: Sequence[Stmt], mult: Interval, definite: bool,
               env: Env) -> None:
        for stmt in body:
            if isinstance(stmt, Loop):
                self._loop(stmt, mult, definite, env)
            elif isinstance(stmt, When):
                self._when(stmt, mult, definite, env)
            elif isinstance(stmt, Store):
                self._expr(stmt.index, mult, definite, env)
                self._expr(stmt.value, mult, definite, env)
                self.acc.stores = self.acc.stores + mult
                self.sites.append(SiteRec(stmt.obj, stmt.index, mult,
                                          definite, dict(env), True))
            elif isinstance(stmt, Assign):
                t = self._expr(stmt.value, mult, definite, env)
                v = value_interval(stmt.value, env, self.scalars)
                env[stmt.name] = VarDesc(v.lo, v.hi)
                self._tmp_types[stmt.name] = t
            else:  # pragma: no cover - the IR has no other statements
                raise TypeError(f"unknown statement {type(stmt).__name__}")

    def _when(self, stmt: When, mult: Interval, definite: bool,
              env: Env) -> None:
        self._expr(stmt.cond, mult, definite, env)
        cv = value_interval(stmt.cond, env, self.scalars)
        if cv.lo > 0 or cv.hi < 0:
            self._stmts(stmt.body, mult, definite, env)
            return
        if cv.lo == cv.hi == 0:
            return
        # the body may or may not run: walk it on copies and join any
        # temp (re)definitions back so later reads see both outcomes
        body_env = dict(env)
        saved_types = dict(self._tmp_types)
        self._stmts(stmt.body, mult.times(Interval(0.0, 1.0)), False,
                    body_env)
        for name, desc in body_env.items():
            prior = env.get(name)
            if prior is desc:
                continue
            if prior is None:
                env[name] = VarDesc(-INF, INF)
            else:
                env[name] = VarDesc(min(prior.lo, desc.lo),
                                    max(prior.hi, desc.hi))
        for name, t in self._tmp_types.items():
            if saved_types.get(name) not in (t,):
                self._tmp_types[name] = _ANY
        for name in saved_types:
            self._tmp_types.setdefault(name, saved_types[name])

    def _loop(self, loop: Loop, mult: Interval, definite: bool,
              env: Env) -> None:
        # bound expressions are evaluated once per invocation
        self._expr(loop.lower, mult, definite, env)
        self._expr(loop.upper, mult, definite, env)
        lv = value_interval(loop.lower, env, self.scalars)
        uv = value_interval(loop.upper, env, self.scalars)
        step = loop.step
        if step > 0:
            t_lo = max(0.0, _ceil_div(uv.lo - lv.hi, step))
            t_hi = max(0.0, _ceil_div(uv.hi - lv.lo, step))
            v_lo, v_hi = lv.lo, uv.hi - 1
        else:
            t_lo = max(0.0, _ceil_div(lv.lo - uv.hi, -step))
            t_hi = max(0.0, _ceil_div(lv.hi - uv.lo, -step))
            v_lo, v_hi = uv.lo + 1, lv.hi
        if not math.isfinite(t_hi):
            t_hi = INF
        trip = Interval(t_lo if math.isfinite(t_lo) else 0.0, t_hi)
        total = mult.times(trip)

        pos = self._inner_ids.get(id(loop))
        if pos is not None:
            pair = self.trips.setdefault(pos, [_ZERO, _ZERO])
            pair[0] = pair[0] + total
            pair[1] = pair[1] + mult

        self.acc.ovh = self.acc.ovh + total.scale(2)
        if total.hi == 0:
            return
        grid_exact = lv.exact and uv.exact
        body_env = dict(env)
        body_env[loop.var] = VarDesc(
            v_lo, v_hi, n_values=trip, step_mag=abs(step),
            grid_exact=grid_exact,
        )
        saved_types = dict(self._tmp_types)
        self._stmts(loop.body, total, definite and trip.exact, body_env)
        self._tmp_types = saved_types

    # -- expressions ---------------------------------------------------
    def _expr(self, expr: Expr, mult: Interval, definite: bool,
              env: Env) -> str:
        if isinstance(expr, Const):
            return _FLT if isinstance(expr.value, float) else _INT
        if isinstance(expr, LoopVar):
            return _INT
        if isinstance(expr, Scalar):
            value = self.scalars.get(expr.name)
            if value is None:
                return _ANY
            return _FLT if isinstance(value, float) else _INT
        if isinstance(expr, Temp):
            return self._tmp_types.get(expr.name, _ANY)
        if isinstance(expr, Load):
            self._expr(expr.index, mult, definite, env)
            self.acc.loads = self.acc.loads + mult
            self.sites.append(SiteRec(expr.obj, expr.index, mult, definite,
                                      dict(env), False))
            obj = self.kernel.objects.get(expr.obj)
            if obj is None:
                return _ANY
            return _FLT if obj.dtype.is_float else _INT
        if isinstance(expr, UnaryOp):
            t = self._expr(expr.operand, mult, definite, env)
            return self._count_op(expr.op, (t,), mult)
        if isinstance(expr, BinOp):
            tl = self._expr(expr.lhs, mult, definite, env)
            tr = self._expr(expr.rhs, mult, definite, env)
            return self._count_op(expr.op, (tl, tr), mult)
        if isinstance(expr, Select):
            self._expr(expr.cond, mult, definite, env)
            self.acc.nc = self.acc.nc + mult  # the select itself, int
            cv = value_interval(expr.cond, env, self.scalars)
            if cv.lo > 0 or cv.hi < 0:
                return self._expr(expr.if_true, mult, definite, env)
            if cv.lo == cv.hi == 0:
                return self._expr(expr.if_false, mult, definite, env)
            t_true, acc_true = self._branch(expr.if_true, mult, env)
            t_false, acc_false = self._branch(expr.if_false, mult, env)
            self.acc.add(acc_true.join(acc_false))
            return t_true if t_true == t_false else _ANY
        raise TypeError(f"unknown expression {type(expr).__name__}")

    def _branch(self, expr: Expr, mult: Interval,
                env: Env) -> Tuple[str, _Acc]:
        """Walk one `Select` arm into a private accumulator.

        The arm may or may not execute: its site counts are widened to
        ``[0, hi]`` and marked indefinite before they reach the global
        site list.
        """
        saved = self.acc
        self.acc = _Acc()
        first_site = len(self.sites)
        t = self._expr(expr, mult, False, env)
        for i in range(first_site, len(self.sites)):
            site = self.sites[i]
            site.count = Interval(0.0, site.count.hi)
            site.definite = False
        sub = self.acc
        sub.nc = Interval(0.0, sub.nc.hi)
        sub.flt = Interval(0.0, sub.flt.hi)
        sub.cpx = Interval(0.0, sub.cpx.hi)
        sub.loads = Interval(0.0, sub.loads.hi)
        sub.stores = Interval(0.0, sub.stores.hi)
        self.acc = saved
        return t, sub

    def _count_op(self, op: str, operand_types: Tuple[str, ...],
                  mult: Interval) -> str:
        if op in COMPLEX_OPS:
            self.acc.cpx = self.acc.cpx + mult
        else:
            self.acc.nc = self.acc.nc + mult
            if _FLT in operand_types:
                self.acc.flt = self.acc.flt + mult
            elif _ANY in operand_types:
                self.acc.flt = self.acc.flt + Interval(0.0, mult.hi)
        return _result_type(op, operand_types)


def _result_type(op: str, operand_types: Tuple[str, ...]) -> str:
    if op in _CMP_OPS or op in ("&", "|", "^", "<<", ">>", "not", "floor"):
        return _INT
    if op in ("sqrt", "exp", "log", "rsqrt"):
        return _FLT
    if op in ("/", "%"):
        # int/int stays int (truncating); a float operand makes it float
        if all(t == _INT for t in operand_types):
            return _INT
        if _FLT in operand_types:
            return _FLT
        return _ANY
    # + - * min max abs unary-minus: join of the operand types
    if all(t == _INT for t in operand_types):
        return _INT
    if _FLT in operand_types and _ANY not in operand_types:
        return _FLT
    return _ANY


def analyze_kernel_call(kernel: Kernel,
                        scalars: Mapping[str, Any]) -> KernelCallCost:
    """Static counts/sites/trip intervals for one kernel invocation."""
    return _Walker(kernel, scalars).run()


# ---------------------------------------------------------------------------
# distinct-line (compulsory miss) lower bound
# ---------------------------------------------------------------------------

def _subst_scalars(expr: Expr, scalars: Mapping[str, Any]) -> Expr:
    """Rewrite integer `Scalar` refs to `Const` so affine_form applies."""
    if isinstance(expr, Scalar):
        value = scalars.get(expr.name)
        if isinstance(value, int) and not isinstance(value, bool):
            return Const(value)
        return expr
    if isinstance(expr, BinOp):
        return BinOp(expr.op, _subst_scalars(expr.lhs, scalars),
                     _subst_scalars(expr.rhs, scalars))
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, _subst_scalars(expr.operand, scalars))
    if isinstance(expr, Select):
        return Select(_subst_scalars(expr.cond, scalars),
                      _subst_scalars(expr.if_true, scalars),
                      _subst_scalars(expr.if_false, scalars))
    if isinstance(expr, Load):
        return Load(expr.obj, _subst_scalars(expr.index, scalars))
    return expr


def _site_distinct_lines(site: SiteRec, elem_bytes: int,
                         scalars: Mapping[str, Any]) -> int:
    """Lower bound on distinct cache lines one site must touch.

    Requires the site to execute over its full iteration grid (exact,
    definite count): then for any affine index the values taken while
    one induction variable sweeps (others held fixed) form an arithmetic
    progression of ``n`` elements with byte gap ``g``, touching at least
    ``(n-1)*g // LINE + 1`` distinct lines.
    """
    if not (site.definite and site.count.exact and site.count.lo >= 1):
        return 0
    form = affine_form(_subst_scalars(site.index, scalars))
    if form is None:
        return 0
    _const, coeffs = form
    best = 1  # the site executes at least once: one line minimum
    for var, coeff in coeffs.items():
        if coeff == 0:
            continue
        desc = site.env.get(var)
        if desc is None or not desc.grid_exact or desc.step_mag == 0:
            continue
        if not desc.n_values.exact or desc.n_values.lo < 1:
            continue
        n = int(desc.n_values.lo)
        gap = abs(coeff) * desc.step_mag * elem_bytes
        if gap >= CACHE_LINE_BYTES:
            # consecutive points land in different lines: exactly n
            # distinct lines (the span formula would count skipped lines)
            lines = n
        else:
            # no line is skipped, so the points cover every line in the
            # span: at least span // line_bytes + 1 distinct lines
            lines = (n - 1) * gap // CACHE_LINE_BYTES + 1
        best = max(best, lines)
    return best


def distinct_line_bound(calls: Sequence[KernelCallCost]) -> int:
    """Compulsory-miss lower bound: distinct lines the run must touch.

    Caches persist across calls, so per object the bound is the *max*
    over calls/sites (revisits may hit); objects live in disjoint slabs,
    so the run total is the sum over objects.
    """
    per_object: Dict[str, int] = {}
    for call in calls:
        for site in call.sites:
            obj = call.kernel.objects.get(site.obj)
            if obj is None:
                continue
            lines = _site_distinct_lines(site, obj.dtype.size_bytes,
                                         call.scalars)
            if lines:
                cap = -(-obj.size_bytes // CACHE_LINE_BYTES)
                per_object[site.obj] = max(per_object.get(site.obj, 0),
                                           min(lines, cap))
    return sum(per_object.values())


# ---------------------------------------------------------------------------
# workload-level drivers
# ---------------------------------------------------------------------------

@dataclass
class CostReport:
    """Per-config metric intervals for one workload at one machine."""

    workload: str
    ncalls: int
    footprint_bytes: int
    #: config name -> metric name -> interval
    metrics: Dict[str, Dict[str, Interval]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def interval(self, config: str, metric: str) -> Interval:
        return self.metrics[config][metric]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "ncalls": self.ncalls,
            "footprint_bytes": self.footprint_bytes,
            "metrics": {
                config: {m: list(iv.as_pair()) for m, iv in per.items()}
                for config, per in self.metrics.items()
            },
            "notes": list(self.notes),
        }


class CostModel:
    """Derives metric intervals for one dataset's calls and a machine.

    ``trace`` is the dataset's functional pass
    (:func:`repro.sim.system.functional_pass`): data-dependent schedules
    (e.g. BFS frontiers) advance on array state, so the calls are the
    ones the simulator replays, and each kernel's compile comes from the
    simulator's own memo on the trace.
    """

    def __init__(self, trace: WorkloadTrace,
                 machine: MachineParams) -> None:
        self.trace = trace
        self.machine = machine
        self.host_insts_per_call = trace.info.host_insts_per_call
        self.serial_fraction = trace.info.serial_fraction
        self.calls = [analyze_kernel_call(rec.kernel, rec.scalars)
                      for rec in trace.calls]
        self.objects: Dict[str, MemObject] = {}
        for rec in trace.calls:
            self.objects.update(rec.kernel.objects)
        self.distinct_lines = distinct_line_bound(self.calls)

    # -- shared --------------------------------------------------------
    @property
    def footprint_bytes(self) -> int:
        return sum(obj.size_bytes for obj in self.objects.values())

    def predict(self, config: str) -> Dict[str, Interval]:
        from ..sim.system import config_spec

        spec = config_spec(config)
        machine = spec.machine(self.machine)
        if spec.mode is None:
            return self._predict_ooo(machine)
        return self._predict_accel(spec, machine)

    # -- host baseline -------------------------------------------------
    def _predict_ooo(self, machine: MachineParams) -> Dict[str, Interval]:
        from ..events import cycles_to_ps

        core = machine.core
        mlp = min(core.mem_level_parallelism, machine.l1.mshrs)
        overlap = self.serial_fraction + (1.0 - self.serial_fraction) / mlp
        hipc = self.host_insts_per_call

        insts = _ZERO
        mem = _ZERO
        time_lo = 0.0
        time_hi = 0.0
        acc_total = _Acc()
        for call in self.calls:
            counts = call.counts
            acc_total.add(counts)
            call_insts = counts.total_insts + Interval.point(hipc)
            insts = insts + call_insts
            n = counts.mem_ops
            mem = mem + n
            c = call_insts.scale(1.0 / core.issue_width)
            port = _imax(counts.loads.scale(0.5), counts.stores)
            stall_hi = _mul0(n.hi, (LATM_OOO_ACCESS - machine.l1
                                    .latency_cycles)) * overlap
            cyc_lo = max(c.lo, port.lo)
            cyc_hi = c.hi + stall_hi + port.hi
            time_lo += cycles_to_ps(cyc_lo, core.freq_ghz)
            time_hi += (cycles_to_ps(cyc_hi, core.freq_ghz)
                        if math.isfinite(cyc_hi) else INF)

        d_lines = float(self.distinct_lines)
        out: Dict[str, Interval] = {
            "insts": insts,
            "mem_ops": mem,
            "l1": mem,
            "l2": Interval(d_lines, _mul0(mem.hi, L2_HI_PER_ACCESS)),
            "l3": Interval(d_lines, _mul0(mem.hi, L3_HI_PER_ACCESS)),
            "dram": Interval(d_lines, _mul0(mem.hi, DRAM_HI_PER_ACCESS)),
            "prefetches": Interval(0.0,
                                   _mul0(mem.hi, PREFETCH_HI_PER_ACCESS)),
            "acp": _ZERO,
            "accel_iterations": _ZERO,
            "movement_bytes": Interval(
                3 * CACHE_LINE_BYTES * d_lines,
                _mul0(mem.hi, MOVE_HI_PER_HOST_ACCESS)),
            "time_ps": Interval(time_lo, time_hi).widen(
                rel=1e-9, abs_=SLACK_PS_PER_CALL * len(self.calls)),
        }
        out["energy_pj"] = self._ooo_energy(machine, acc_total, insts,
                                            out, d_lines)
        return out

    def _ooo_energy(self, machine: MachineParams, acc: _Acc,
                    insts: Interval, out: Dict[str, Interval],
                    d_lines: float) -> Interval:
        t = machine.energy
        core_lo = (t.ooo_inst_overhead * insts.lo
                   + t.reg_access * 2.0 * insts.lo
                   + t.int_op * (acc.int_ops.lo + acc.ovh.lo)
                   + t.float_op * acc.float_ops.lo
                   + t.complex_op * acc.cpx.lo)
        core_hi = (_mul0(insts.hi, t.ooo_inst_overhead + 2.0 * t.reg_access)
                   + _mul0(acc.int_ops.hi + acc.ovh.hi, t.int_op)
                   + _mul0(acc.float_ops.hi, t.float_op)
                   + _mul0(acc.cpx.hi, t.complex_op))
        mem_lo = (t.l1_access * acc.mem_ops.lo
                  + (t.l2_access + t.l3_access + t.dram_line_access)
                  * d_lines)
        mem_hi = (_mul0(acc.mem_ops.hi, t.l1_access)
                  + _mul0(out["l2"].hi, t.l2_access)
                  + _mul0(out["l3"].hi, t.l3_access)
                  + _mul0(out["dram"].hi, t.dram_line_access)
                  + _mul0(out["movement_bytes"].hi,
                          2.0 * t.noc_byte_hop))
        return Interval(core_lo + mem_lo, core_hi + mem_hi).widen(
            rel=1e-9, abs_=1.0)

    # -- accelerator configs -------------------------------------------
    def _predict_accel(self, spec: Any,
                       machine: MachineParams) -> Dict[str, Interval]:
        from ..accel.base import PartitionProfile
        from ..accel.inorder import InOrderBackend
        from ..events import cycles_to_ps
        from ..interface.config import AccessKind
        from ..sim.system import compiled_kernel

        if spec.backend == "io":
            backend = InOrderBackend(machine.inorder)
        else:
            from ..accel.cgra.backend import CgraBackend
            backend = CgraBackend(machine.cgra)
        hipc = self.host_insts_per_call
        host_freq = machine.core.freq_ghz
        mem_freq = 2.0  # engine MEM_FREQ_GHZ

        insts = _ZERO
        mem = _ZERO
        accel_iters = _ZERO
        time_lo = 0.0
        time_hi = 0.0
        lines_tot = _ZERO       # stream lines fetched/drained
        elems_tot = _ZERO       # indirect/random element accesses
        fsm_elems = _ZERO       # per-access FSM element steps
        chan_iters = _ZERO      # per-channel operand sends
        intra_ops = _ZERO       # buffer reads+writes across partitions
        per_iter_pj_lo = 0.0
        per_iter_pj_hi = 0.0
        resid = _ZERO
        configured: set = set()
        config_calls_n = 0
        setup_pj = 0.0
        relaunches = _ZERO

        for rec, call in zip(self.trace.calls, self.calls):
            counts = call.counts
            mem = mem + counts.mem_ops
            compiled = compiled_kernel(self.trace, rec, spec.mode,
                                       spec.no_stream_spec)
            # loops by structural position, as the simulator finds them
            loop_ids = compiled.kernel.innermost_loop_ids()
            total = counts.total_insts
            offloaded = _ZERO
            call_time_hi = 0.0
            for off in compiled.offloads:
                pos = loop_ids.get(id(off.loop))
                if pos is None or pos not in call.trips:
                    continue
                trips, invocations = call.trips[pos]
                per_iter = max(off.dfg.num_insts() + 2, 1)
                offloaded = offloaded + trips.scale(per_iter)
                accel_iters = accel_iters + trips
                profiles = [PartitionProfile.from_config(p)
                            for p in off.config.partitions]
                timings = [backend.timing(p) for p in profiles]
                # lower bound: a partition cannot beat its initiation
                # interval; offloads execute sequentially per call.
                if trips.lo > 0 and timings:
                    time_lo += max(t.ii_ps for t in timings) * trips.lo
                # energy: the per-iteration backend charge is exact
                for profile in profiles:
                    pj = _iteration_pj(backend, profile, machine.energy)
                    per_iter_pj_lo += pj * trips.lo
                    per_iter_pj_hi += _mul0(trips.hi, pj)
                    intra_ops = intra_ops + trips.scale(
                        profile.buffer_reads + profile.buffer_writes)
                th = trips.hi
                nchunks = (min(th, 129.0) if math.isfinite(th) else 129.0)
                n_channels = sum(len(p.produces) for p in
                                 off.config.partitions)
                chan_iters = chan_iters + trips.scale(max(n_channels, 0))
                off_lines = _ZERO
                off_elems = _ZERO
                for part in off.config.partitions:
                    for acc in part.accesses:
                        if acc.kind in (AccessKind.STREAM_READ,
                                        AccessKind.STREAM_WRITE):
                            stride = abs(acc.stride_elems) * acc.elem_bytes
                            if stride == 0 and not acc.is_write:
                                acc_lines = Interval(0.0, 1.0)
                            else:
                                span_hi = _mul0(th, stride)
                                acc_lines = Interval(
                                    0.0,
                                    span_hi / CACHE_LINE_BYTES + nchunks + 1
                                    if math.isfinite(span_hi) else INF)
                            off_lines = off_lines + acc_lines
                            fsm_elems = fsm_elems + Interval(0.0, th)
                        elif acc.kind in (AccessKind.INDIRECT,
                                          AccessKind.RANDOM):
                            off_elems = off_elems + Interval(0.0, th)
                            fsm_elems = fsm_elems + Interval(0.0, th)
                lines_tot = lines_tot + off_lines
                elems_tot = elems_tot + off_elems
                # makespan <= sum of every process's delays
                if math.isfinite(th) and th > 0:
                    fill_cyc = (off_lines.hi * (LATM_LINE / 4.0 + 1.0)
                                + off_elems.hi * LATM_ELEM)
                    call_time_hi += cycles_to_ps(fill_cyc, mem_freq)
                    call_time_hi += sum(t.ii_ps for t in timings) * th
                    # channels: a pipelined buffer only delays once (the
                    # c == 0 operand fill in _partition_proc); a channel
                    # inside a fused dependence cycle pays the operand
                    # NoC round trip every iteration
                    noc = machine.noc
                    diam_cyc = (
                        (noc.mesh_rows - 1 + noc.mesh_cols - 1)
                        * noc.hop_latency_cycles
                    )
                    fused_ids = _fused_channel_ids(off.config)
                    for ch in off.config.channels:
                        flits = -(-ch.payload_bytes // noc.flit_bytes)
                        if ch.channel_id in fused_ids:
                            call_time_hi += th * cycles_to_ps(
                                diam_cyc + max(flits - 1, 0), mem_freq)
                        # one-time pipeline fill: head hops plus the
                        # serialized flits of the first chunk's payload
                        call_time_hi += CHAN_FILL_PS + cycles_to_ps(
                            th * ch.payload_bytes
                            / (TARGET_CHUNKS_BOUND * noc.flit_bytes)
                            + diam_cyc + 1, mem_freq)
                    call_time_hi += 2 * nchunks * len(timings) + nchunks
                elif th > 0:
                    call_time_hi = INF
                # one-time configure per offload object
                cfg_key = (id(compiled), id(off))
                if th > 0 and cfg_key not in configured:
                    configured.add(cfg_key)
                    config_calls_n += len(off.config.config_calls())
                    setup = max((backend.setup_cycles(p)
                                 for p in off.config.partitions), default=0)
                    call_time_hi += CONFIGURE_PS + cycles_to_ps(
                        setup, backend.freq_ghz)
                    setup_pj += _setup_pj(backend, off.config.partitions,
                                          machine.energy)
                # per-invocation relaunch sync (host HOST_SYNC_CYCLES)
                if (invocations.hi > 1 and not spec.localized_control
                        and off.bounds_data_dependent):
                    extra = (invocations - _ONE).clamp_nonneg()
                    relaunches = relaunches + extra
                    call_time_hi += (_mul0(extra.hi, RELAUNCH_PS)
                                     if math.isfinite(extra.hi) else INF)
                    if trips.lo > 0 and extra.lo > 0:
                        time_lo += extra.lo * RELAUNCH_PS

            call_insts = Interval(
                max(total.lo, offloaded.lo) + hipc,
                max(total.hi, offloaded.hi) + hipc)
            insts = insts + call_insts
            call_resid = Interval(
                max(total.lo - offloaded.hi, 0.0) + hipc,
                max(total.hi - offloaded.lo, 0.0) + hipc)
            resid = resid + call_resid
            time_lo += cycles_to_ps(
                call_resid.lo / machine.core.issue_width, host_freq)
            if math.isfinite(time_hi):
                if math.isfinite(call_time_hi) \
                        and math.isfinite(call_resid.hi):
                    time_hi += call_time_hi + cycles_to_ps(
                        call_resid.hi / machine.core.issue_width, host_freq)
                else:
                    time_hi = INF

        t = machine.energy
        lines_elems_hi = (lines_tot.hi + elems_tot.hi
                          if math.isfinite(lines_tot.hi)
                          and math.isfinite(elems_tot.hi) else INF)
        l3_hi = _mul0(lines_elems_hi, 3.0) + 16.0
        dram_hi = _mul0(lines_elems_hi, 2.0) + 16.0
        acp_hi = _mul0(lines_elems_hi, 2.0) + 16.0
        movement_hi = (_mul0(lines_tot.hi, MOVE_HI_PER_LINE)
                       + _mul0(elems_tot.hi, MOVE_HI_PER_ELEM)
                       + _mul0(chan_iters.hi, 128.0)
                       + 2048.0 * max(len(configured), 1)
                       + 4096.0)
        out: Dict[str, Interval] = {
            "insts": insts,
            "mem_ops": mem,
            "accel_iterations": accel_iters,
            "l1": _ZERO,
            "l2": (Interval(0.0, _mul0(lines_elems_hi, 2.0) + 16.0)
                   if spec.private_cache else _ZERO),
            "prefetches": _ZERO,
            "l3": Interval(0.0, l3_hi),
            "dram": Interval(0.0, dram_hi),
            "acp": Interval(0.0, acp_hi),
            "movement_bytes": Interval(0.0, movement_hi),
            "time_ps": Interval(time_lo, time_hi).widen(
                rel=1e-9,
                abs_=SLACK_PS_PER_CALL * max(len(self.calls), 1)),
        }
        energy_lo = (per_iter_pj_lo
                     + t.ooo_inst_overhead * resid.lo)
        event_sites = (lines_elems_hi + elems_tot.hi + fsm_elems.hi
                       + intra_ops.hi + chan_iters.hi
                       if math.isfinite(lines_elems_hi)
                       and math.isfinite(fsm_elems.hi)
                       and math.isfinite(intra_ops.hi) else INF)
        energy_hi = (per_iter_pj_hi
                     + _mul0(resid.hi, t.ooo_inst_overhead)
                     + setup_pj
                     + _mul0(event_sites, 16.0)
                     + _mul0(out["l3"].hi, t.l3_access)
                     + _mul0(out["dram"].hi, t.dram_line_access)
                     + _mul0(out["acp"].hi, 4.0)
                     + _mul0(out["l2"].hi, t.private_cache_access)
                     + _mul0(movement_hi, 2.0 * t.noc_byte_hop)
                     + _mul0(relaunches.hi, 2.0 * t.mmio_access)
                     + config_calls_n * (t.mmio_access
                                         + t.sched_table_access) * 64.0
                     + ENERGY_MARGIN_PJ_PER_CALL * max(len(self.calls), 1))
        out["energy_pj"] = Interval(energy_lo, energy_hi).widen(
            rel=1e-9, abs_=1.0)
        return out


def _iteration_pj(backend: Any, profile: Any,
                  table: EnergyTable) -> float:
    from ..energy import EnergyLedger

    ledger = EnergyLedger(table)
    backend.charge_iteration(profile, ledger, 1.0)
    return ledger.total_pj()


def _setup_pj(backend: Any, partitions: Sequence[Any],
              table: EnergyTable) -> float:
    from ..energy import EnergyLedger

    ledger = EnergyLedger(table)
    charge = getattr(backend, "charge_setup", None)
    if charge is not None:
        for part in partitions:
            charge(part, ledger)
    return ledger.total_pj()


def _fused_channel_ids(config: Any) -> Set[int]:
    """Channel ids the time bound charges as a per-iteration dependence
    cycle (the operand round trip is paid every iteration): those inside
    one of :meth:`~repro.interface.config.OffloadConfig.channel_components`
    of two or more partitions, which the runtime engine fuses, and a
    partition's channel to itself. Every other channel is a pipelined
    buffer whose only timing cost is a one-time fill delay.
    """
    comp: Dict[int, List[int]] = {}
    for group in config.channel_components():
        for part in group:
            comp[part] = group
    fused: Set[int] = set()
    for ch in config.channels:
        group = comp[ch.producer_partition]
        if ch.consumer_partition in group and (
                len(group) > 1
                or ch.producer_partition == ch.consumer_partition):
            fused.add(ch.channel_id)
    return fused


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def cost_model_for_instance(instance: Any,
                            machine: MachineParams) -> CostModel:
    """Build a :class:`CostModel` from a fresh workload instance."""
    from ..sim.system import functional_pass

    return CostModel(functional_pass(lambda: instance), machine)


def workload_cost_report(instance: Any, machine: MachineParams,
                         configs: Optional[Sequence[str]] = None,
                         name: Optional[str] = None) -> CostReport:
    """Cost intervals for one workload instance across ``configs``
    (default: the six validated paper configurations)."""
    if configs is None:
        configs = VALIDATED_CONFIGS
    model = cost_model_for_instance(instance, machine)
    report = CostReport(
        workload=name or getattr(instance, "name", "workload"),
        ncalls=len(model.calls),
        footprint_bytes=model.footprint_bytes,
    )
    for config in configs:
        report.metrics[config] = model.predict(config)
    if model.distinct_lines:
        report.notes.append(
            f"compulsory-miss bound: {model.distinct_lines} distinct lines")
    return report


def measured_metrics(run: Any) -> Dict[str, float]:
    """Project a :class:`RunResult` onto the AN-C metric keys."""
    stats = run.cache_stats
    return {
        "time_ps": float(run.time_ps),
        "energy_pj": float(run.energy.total_pj()),
        "insts": float(run.insts),
        "mem_ops": float(run.mem_ops),
        "movement_bytes": float(run.movement_bytes),
        "l1": float(stats.l1),
        "l2": float(stats.l2),
        "l3": float(stats.l3),
        "dram": float(stats.dram),
        "prefetches": float(stats.prefetches),
        "acp": float(stats.acp),
        "accel_iterations": float(run.accel_iterations),
    }


@dataclass(frozen=True)
class BoundViolation:
    """One measured metric escaping its static interval."""

    config: str
    metric: str
    measured: float
    lo: float
    hi: float

    def format(self) -> str:
        return (f"{self.config}.{self.metric}: measured {self.measured!r} "
                f"outside static interval [{self.lo!r}, {self.hi!r}]")


def check_bounds(predicted: Mapping[str, Interval],
                 run: Any, config: str) -> List[BoundViolation]:
    """Soundness check: every measured metric inside its interval."""
    measured = measured_metrics(run)
    out: List[BoundViolation] = []
    for metric in METRICS:
        interval = predicted.get(metric)
        if interval is None:
            continue
        value = measured[metric]
        if not interval.contains(value):
            out.append(BoundViolation(config, metric, value,
                                      interval.lo, interval.hi))
    return out
