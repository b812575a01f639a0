"""ADI (PolyBench): alternating-direction implicit 2-D solver.

Per timestep: a column sweep and a row sweep, each a forward recurrence
(Thomas-algorithm style) followed by a backward substitution. Column
sweeps traverse the grid with stride-N accesses, and the division-heavy
recurrences make ADI one of the complex-arithmetic workloads that favor
faster-clocked accelerators (§VI-C "Clocking").
"""

from __future__ import annotations

from typing import Dict, Iterator

import numpy as np

from ..ir import FLOAT32, Kernel, Loop, LoopVar, MemObject
from .base import (
    KernelCall,
    Workload,
    WorkloadInstance,
    register,
    scale_dims,
)

I, J = LoopVar("i"), LoopVar("j")

A_C, B_C, C_C = 0.25, 1.5, 0.25  # tridiagonal coefficients (diag dominant)


def build_kernel(n: int) -> Kernel:
    """One ADI timestep: column sweep then row sweep over u via v."""
    u = MemObject("u", (n, n), FLOAT32)
    v = MemObject("v", (n, n), FLOAT32)
    p = MemObject("p", (n, n), FLOAT32)
    q = MemObject("q", (n, n), FLOAT32)

    # column sweep: recurrence along j for each column i of u (read
    # column-major), results into v
    fwd_col = Loop("i", 1, n - 1, [
        Loop("j", 1, n - 1, [
            p.store((I, J), -C_C / (A_C * p[I, J - 1] + B_C)),
            q.store((I, J), (u[J, I] - A_C * q[I, J - 1])
                    / (A_C * p[I, J - 1] + B_C)),
        ]),
    ])
    i2, j2 = LoopVar("i2"), LoopVar("j2")
    back_col = Loop("i2", 1, n - 1, [
        Loop("j2", n - 2, 0, [
            v.store((j2, i2), p[i2, j2] * v[j2 + 1, i2] + q[i2, j2]),
        ], step=-1),
    ])
    # row sweep: recurrence along j for each row i of v, results into u
    i3, j3 = LoopVar("i3"), LoopVar("j3")
    fwd_row = Loop("i3", 1, n - 1, [
        Loop("j3", 1, n - 1, [
            p.store((i3, j3), -C_C / (A_C * p[i3, j3 - 1] + B_C)),
            q.store((i3, j3), (v[i3, j3] - A_C * q[i3, j3 - 1])
                    / (A_C * p[i3, j3 - 1] + B_C)),
        ]),
    ])
    i4, j4 = LoopVar("i4"), LoopVar("j4")
    back_row = Loop("i4", 1, n - 1, [
        Loop("j4", n - 2, 0, [
            u.store((i4, j4), p[i4, j4] * u[i4, j4 + 1] + q[i4, j4]),
        ], step=-1),
    ])
    return Kernel(
        "adi", {"u": u, "v": v, "p": p, "q": q},
        [fwd_col, back_col, fwd_row, back_row],
        outputs=["u", "v"],
    )


def reference_step(u, v, p, q, n):
    """One timestep; each sweep runs along j for all of its independent
    rows (or columns) at once, with the loop's float64 operations."""
    inner = slice(1, n - 1)
    for j in range(1, n - 1):
        denom = A_C * p[inner, j - 1] + B_C
        p[inner, j] = -C_C / denom
        q[inner, j] = (u[j, inner] - A_C * q[inner, j - 1]) / denom
    for j in range(n - 2, 0, -1):
        v[j, inner] = p[inner, j] * v[j + 1, inner] + q[inner, j]
    for j in range(1, n - 1):
        denom = A_C * p[inner, j - 1] + B_C
        p[inner, j] = -C_C / denom
        q[inner, j] = (v[inner, j] - A_C * q[inner, j - 1]) / denom
    for j in range(n - 2, 0, -1):
        u[inner, j] = p[inner, j] * u[inner, j + 1] + q[inner, j]


class Adi(Workload):
    name = "adi"
    short = "adi"

    def build(self, scale: str = "small",
              n: int = None, timesteps: int = None) -> WorkloadInstance:
        n = n or scale_dims(scale, tiny=8, small=80, large=160)
        timesteps = timesteps or scale_dims(scale, tiny=1, small=2, large=2)
        kernel = build_kernel(n)
        rng = np.random.default_rng(13)
        arrays = {
            "u": rng.random(n * n).astype(np.float32),
            "v": rng.random(n * n).astype(np.float32),
            "p": np.zeros(n * n, dtype=np.float32),
            "q": np.zeros(n * n, dtype=np.float32),
        }

        def schedule(instance: WorkloadInstance) -> Iterator[KernelCall]:
            for _ in range(timesteps):
                yield KernelCall(kernel)

        def reference(inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
            u = inputs["u"].reshape(n, n).astype(np.float64)
            v = inputs["v"].reshape(n, n).astype(np.float64)
            p = inputs["p"].reshape(n, n).astype(np.float64)
            q = inputs["q"].reshape(n, n).astype(np.float64)
            for _ in range(timesteps):
                reference_step(u, v, p, q, n)
            return {"u": u.ravel(), "v": v.ravel()}

        return WorkloadInstance(
            name=self.name, short=self.short,
            objects=dict(kernel.objects), arrays=arrays,
            outputs=["u", "v"],
            schedule=schedule, reference=reference,
            host_insts_per_call=40, host_accesses_per_call=4,
            atol=1e-2,
        )


register(Adi())
