"""Seidel-2D (PolyBench): in-place 9-point Gauss-Seidel sweeps.

Loop-carried dependences through the in-place array make this the
paper's canonical *pipelinable* (non-parallelizable but partitionable)
workload, and its high arithmetic-op count per access drives the §VI-E
clocking-sensitivity observation.
"""

from __future__ import annotations

from typing import Dict, Iterator

import numpy as np

from ..ir import FLOAT64, Kernel, Loop, LoopVar, MemObject
from .base import (
    KernelCall,
    Workload,
    WorkloadInstance,
    register,
    scale_dims,
)

I, J = LoopVar("i"), LoopVar("j")


def build_kernel(n: int) -> Kernel:
    A = MemObject("A", (n, n), FLOAT64)
    total = (
        A[I - 1, J - 1] + A[I - 1, J] + A[I - 1, J + 1]
        + A[I, J - 1] + A[I, J] + A[I, J + 1]
        + A[I + 1, J - 1] + A[I + 1, J] + A[I + 1, J + 1]
    )
    nest = Loop("i", 1, n - 1, [
        Loop("j", 1, n - 1, [
            A.store((I, J), total / 9.0),
        ]),
    ])
    return Kernel("seidel2d", {"A": A}, [nest], outputs=["A"])


def reference_sweep(a: np.ndarray) -> None:
    """One in-place sweep of a C-contiguous square ``a``, by wavefronts
    ``2i + j``: a cell's neighbours fall in the three wavefronts before
    it (swept) and after it (not yet swept), so every cell reads the
    values the row-major loop reads, and sums them in the same order."""
    n = a.shape[0]
    m = n - 2
    flat = a.reshape(-1)  # a view of a C-contiguous array
    # the 3x3 neighbourhood in the loop's summation order
    offsets = np.array([-n - 1, -n, -n + 1, -1, 0, 1, n - 1, n, n + 1])
    offsets = offsets[:, None]
    for t in range(3 * (m - 1) + 1):
        ci = np.arange(max(0, t - m + 2) // 2, min(m - 1, t // 2) + 1)
        cell = (ci + 1) * n + (t - 2 * ci + 1)
        g = flat[offsets + cell]
        flat[cell] = (g[0] + g[1] + g[2] + g[3] + g[4] + g[5] + g[6]
                      + g[7] + g[8]) / 9.0


class Seidel(Workload):
    name = "seidel-2d"
    short = "sei"

    def build(self, scale: str = "small",
              n: int = None, timesteps: int = None) -> WorkloadInstance:
        n = n or scale_dims(scale, tiny=10, small=128, large=224)
        timesteps = timesteps or scale_dims(scale, tiny=2, small=2, large=2)
        kernel = build_kernel(n)
        rng = np.random.default_rng(3)
        arrays = {"A": rng.random(n * n).astype(np.float64)}

        def schedule(instance: WorkloadInstance) -> Iterator[KernelCall]:
            for _ in range(timesteps):
                yield KernelCall(kernel)

        def reference(inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
            a = inputs["A"].reshape(n, n).copy()
            for _ in range(timesteps):
                reference_sweep(a)
            return {"A": a.ravel()}

        return WorkloadInstance(
            name=self.name, short=self.short,
            objects=dict(kernel.objects), arrays=arrays,
            outputs=["A"],
            schedule=schedule, reference=reference,
            host_insts_per_call=30, host_accesses_per_call=2,
            atol=1e-6,
        )


register(Seidel())
