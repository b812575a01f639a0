"""Thread safety of per-nest compilation.

The sweep service runs dataset groups on several consumer threads of one
process, so two threads can compile nests at the same time. Compilation
must keep all of its tables on the compiler instance: a shared table
raises ``KeyError`` mid-compile or generates colliding per-object
counters, which the compile cache then serves for the rest of the
process.
"""

import sys
import threading
import time

import numpy as np

from repro.ir import FLOAT64, INT64, Kernel, Loop, LoopVar, MemObject
from repro.ir.expr import Load
from repro.ir.nestjit import _NestCompiler, _stmt_exprs, _walk_stmts

THREADS = 4  # more than the two cores of a small CI host
ROUNDS = 25
BUDGET_S = 20.0


def _cases():
    """Fallback-shaped nests over different object sets, so each
    compile allocates its own per-object counter slots."""
    n = 16
    i, j = LoopVar("i"), LoopVar("j")
    cases = []
    for names in ("ABCS", "XYZT", "PQRU", "DEFGH"):
        objs = {c: MemObject(c, n * n, FLOAT64) for c in names}
        objs["K"] = MemObject("K", n, INT64)
        *ins, acc = names
        value = objs[acc][objs["K"][i]]
        for c in ins:
            value = value + objs[c][i * n + j] * objs[c][j]
        body = [Loop("i", 0, n, [Loop("j", 0, n, [
            objs[acc].store(objs["K"][i], value),
        ])])]
        kernel = Kernel(f"red_{names}", objs, body, outputs=[acc])
        arrays = {c: np.zeros(o.num_elements, o.dtype.numpy_dtype)
                  for c, o in objs.items()}
        cases.append((kernel, arrays))
    return cases


def _source(kernel, arrays):
    loaded = {e.obj for s in _walk_stmts(kernel.loops)
              for e in _stmt_exprs(s) if isinstance(e, Load)}
    return _NestCompiler(kernel, 0, True, arrays, {}, loaded).compile()[0]


def test_concurrent_compiles_generate_the_serial_source():
    cases = _cases()
    serial = [_source(k, a) for k, a in cases]
    failures = []
    deadline = time.monotonic() + BUDGET_S

    def worker(offset):
        for _ in range(ROUNDS):
            if time.monotonic() > deadline:
                return
            for c in range(len(cases)):
                c = (c + offset) % len(cases)
                try:
                    if _source(*cases[c]) != serial[c]:
                        failures.append(f"case {c}: source differs")
                except Exception as exc:  # reported by the assert below
                    failures.append(f"case {c}: {exc!r}")

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,), daemon=True)
                   for t in range(THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=BUDGET_S + 30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not failures, failures[:5]

