#!/usr/bin/env python3
"""Where an in-place fold should leave the vector path.

Times one nest ``X[d[i]] = X[d[i]] + A[i]`` (float32 accumulator,
shuffled indices, trace recorded) per (iterations, width) point, once
forced onto the vectorized fold and once forced onto the compiled
fallback, and prints both and their ratio. ``width`` is the number of
elements the fold updates, so the fold takes ``iterations / width``
steps. The vectorized interpreter's fold-width rule
(``repro.ir.vecinterp._FOLD_WIDTH``) sits where the ratio crosses 1::

    PYTHONPATH=src python benchmarks/perf/bench_fold.py [--repeat 5]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.ir import FLOAT32, INT32, Kernel, Loop, LoopVar, MemObject
from repro.ir import vecinterp
from repro.ir.vecinterp import VecInterpreter

ITERATIONS = (256, 2048, 16384)
WIDTHS = (1, 2, 3, 4, 8, 32, 128)


def fold_nest(n: int, width: int) -> Kernel:
    i = LoopVar("i")
    d = MemObject("d", n, INT32)
    a = MemObject("a", n, FLOAT32)
    x = MemObject("x", width, FLOAT32)
    return Kernel("fold", {"d": d, "a": a, "x": x},
                  [Loop("i", 0, n, [x.store(d[i], x[d[i]] + a[i])])],
                  outputs=["x"])


def best_time(kernel: Kernel, arrays, fold_width: int, repeat: int
              ) -> float:
    """Fastest of ``repeat`` runs with the rule set to ``fold_width``."""
    saved = vecinterp._FOLD_WIDTH
    vecinterp._FOLD_WIDTH = fold_width
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
        vecinterp._FOLD_WIDTH = saved


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()
    rng = np.random.default_rng(0)
    print(f"{'iters':>6} {'width':>6} {'steps':>6} {'vector_us':>10} "
          f"{'fallback_us':>12} {'fallback/vector':>16}")
    for n in ITERATIONS:
        for width in WIDTHS:
            d = rng.permutation(np.arange(n) % width).astype(np.int32)
            arrays = {"d": d, "a": rng.random(n).astype(np.float32),
                      "x": np.zeros(width, dtype=np.float32)}
            kernel = fold_nest(n, width)
            vec = best_time(kernel, arrays, 0, args.repeat)
            jit = best_time(kernel, arrays, n + 1, args.repeat)
            steps = -(-n // width)
            print(f"{n:>6} {width:>6} {steps:>6} {vec * 1e6:>10.0f} "
                  f"{jit * 1e6:>12.0f} {jit / vec:>16.2f}")


if __name__ == "__main__":
    main()
