#!/usr/bin/env python3
"""Where an in-place fold or recurrence should leave the vector path.

Two sweeps, each timing one nest per point (trace recorded) once forced
onto the vectorized path and once forced onto the compiled fallback,
and printing both and their ratio. Each rule of the vectorized
interpreter sits where its ratio crosses 1.

- Folds: ``X[d[i]] = X[d[i]] + A[i]`` (float32 accumulator, shuffled
  indices) per (iterations, width) point. ``width`` is the number of
  elements the fold updates, so the fold takes ``iterations / width``
  steps. Rule: ``repro.ir.vecinterp._FOLD_WIDTH``.
- Wavefronts: ``A[i, j] = A[i, j - 1] * 0.5 + B[i, j]`` (float64) per
  (wavefronts, rows per wavefront) point. The recurrence runs along
  ``j``, so the schedule ``t = j`` has one wavefront per column and one
  row per ``i`` in each. Rule: ``repro.ir.vecinterp._WAVE_WIDTH``.

Run::

    PYTHONPATH=src python benchmarks/perf/bench_fold.py [--repeat 5]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.ir import FLOAT32, FLOAT64, INT32, Kernel, Loop, LoopVar, \
    MemObject
from repro.ir import vecinterp
from repro.ir.vecinterp import VecInterpreter

ITERATIONS = (256, 2048, 16384)
WIDTHS = (1, 2, 3, 4, 8, 32, 128)
WAVEFRONTS = (32, 128)
ROWS = (2, 4, 8, 12, 16, 24, 32, 64, 128)


def fold_nest(n: int, width: int) -> Kernel:
    i = LoopVar("i")
    d = MemObject("d", n, INT32)
    a = MemObject("a", n, FLOAT32)
    x = MemObject("x", width, FLOAT32)
    return Kernel("fold", {"d": d, "a": a, "x": x},
                  [Loop("i", 0, n, [x.store(d[i], x[d[i]] + a[i])])],
                  outputs=["x"])


def recurrence_nest(rows: int, waves: int) -> Kernel:
    i, j = LoopVar("i"), LoopVar("j")
    a = MemObject("a", (rows, waves + 1), FLOAT64)
    b = MemObject("b", (rows, waves + 1), FLOAT64)
    return Kernel("wave", {"a": a, "b": b}, [Loop("i", 0, rows, [
        Loop("j", 1, waves + 1, [
            a.store((i, j), a[i, j - 1] * 0.5 + b[i, j]),
        ]),
    ])], outputs=["a"])


def best_time(kernel: Kernel, arrays, rule: str, value: int, repeat: int
              ) -> float:
    """Fastest of ``repeat`` runs with ``vecinterp.<rule>`` set to
    ``value``."""
    saved = getattr(vecinterp, rule)
    setattr(vecinterp, rule, value)
    try:
        best = float("inf")
        for _ in range(repeat):
            arrs = {k: v.copy() for k, v in arrays.items()}
            interp = VecInterpreter(record_trace=True)
            start = time.perf_counter()
            interp.run(kernel, arrs)
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        setattr(vecinterp, rule, saved)


def sweep(title: str, head: str, points, rule: str, repeat: int) -> None:
    """Time each ``(label, kernel, arrays, iterations)`` point on both
    paths: ``rule`` at 0 forces the vector path, above the iteration
    count the fallback."""
    print(f"{title}\n{head} {'vector_us':>10} {'fallback_us':>12} "
          f"{'fallback/vector':>16}")
    for label, kernel, arrays, n in points:
        vec = best_time(kernel, arrays, rule, 0, repeat)
        jit = best_time(kernel, arrays, rule, n + 1, repeat)
        print(f"{label} {vec * 1e6:>10.0f} {jit * 1e6:>12.0f} "
              f"{jit / vec:>16.2f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()
    rng = np.random.default_rng(0)

    def folds():
        for n in ITERATIONS:
            for width in WIDTHS:
                d = rng.permutation(np.arange(n) % width).astype(np.int32)
                arrays = {"d": d, "a": rng.random(n).astype(np.float32),
                          "x": np.zeros(width, dtype=np.float32)}
                steps = -(-n // width)
                yield (f"{n:>6} {width:>6} {steps:>6}", fold_nest(n, width),
                       arrays, n)

    def recurrences():
        for waves in WAVEFRONTS:
            for rows in ROWS:
                size = rows * (waves + 1)
                arrays = {"a": rng.random(size), "b": rng.random(size)}
                yield (f"{waves:>6} {rows:>10}",
                       recurrence_nest(rows, waves), arrays, size)

    sweep("In-place folds", f"{'iters':>6} {'width':>6} {'steps':>6}",
          folds(), "_FOLD_WIDTH", args.repeat)
    print()
    sweep("In-place recurrences", f"{'waves':>6} {'rows/wave':>10}",
          recurrences(), "_WAVE_WIDTH", args.repeat)


if __name__ == "__main__":
    main()
