"""Needleman-Wunsch (Rodinia): sequence-alignment dynamic programming.

The anti-diagonal dependence (each cell needs its west, north and
north-west neighbors) gives the innermost row loop a loop-carried chain —
the pipelinable-but-not-parallelizable case, and the subject of the
Dist-DA-BN/BNS user-annotation case study (Fig. 12a).
"""

from __future__ import annotations

from typing import Dict, Iterator

import numpy as np

from ..ir import INT32, Kernel, Loop, LoopVar, MemObject
from .base import (
    KernelCall,
    Workload,
    WorkloadInstance,
    register,
    scale_dims,
)

I, J = LoopVar("i"), LoopVar("j")

PENALTY = 10


def build_kernel(n: int) -> Kernel:
    """Fill the (n+1)x(n+1) score matrix M against similarity matrix S."""
    m_dim = n + 1
    M = MemObject("M", (m_dim, m_dim), INT32)
    S = MemObject("S", (n, n), INT32)
    diag = M[I - 1, J - 1] + S[I - 1, J - 1]
    up = M[I - 1, J] - PENALTY
    left = M[I, J - 1] - PENALTY
    nest = Loop("i", 1, m_dim, [
        Loop("j", 1, m_dim, [
            M.store((I, J), diag.max(up).max(left)),
        ]),
    ])
    return Kernel("nw", {"M": M, "S": S}, [nest], outputs=["M"])


def reference_nw(m: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Fill ``m`` by anti-diagonals ``i + j``: a cell's west, north and
    north-west neighbours lie on the two diagonals before it."""
    n = s.shape[0]
    for d in range(2, 2 * n + 1):
        i = np.arange(max(1, d - n), min(n, d - 1) + 1)
        j = d - i
        m[i, j] = np.maximum(
            np.maximum(m[i - 1, j - 1] + s[i - 1, j - 1],
                       m[i - 1, j] - PENALTY),
            m[i, j - 1] - PENALTY,
        )
    return m


class Nw(Workload):
    name = "nw"
    short = "nw"

    def build(self, scale: str = "small", n: int = None) -> WorkloadInstance:
        n = n or scale_dims(scale, tiny=8, small=128, large=256)
        m_dim = n + 1
        rng = np.random.default_rng(19)
        s = rng.integers(-4, 5, n * n).astype(np.int32)
        m0 = np.zeros((m_dim, m_dim), dtype=np.int32)
        m0[0, :] = -PENALTY * np.arange(m_dim)
        m0[:, 0] = -PENALTY * np.arange(m_dim)
        kernel = build_kernel(n)
        arrays = {"M": m0.ravel().copy(), "S": s}

        def schedule(instance: WorkloadInstance) -> Iterator[KernelCall]:
            yield KernelCall(kernel)

        def reference(inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
            m = inputs["M"].reshape(m_dim, m_dim).astype(np.int64)
            s2 = inputs["S"].reshape(n, n)
            return {"M": reference_nw(m, s2).ravel()}

        return WorkloadInstance(
            name=self.name, short=self.short,
            objects=dict(kernel.objects), arrays=arrays,
            outputs=["M"],
            schedule=schedule, reference=reference,
            host_insts_per_call=60, host_accesses_per_call=6,
        )


register(Nw())
