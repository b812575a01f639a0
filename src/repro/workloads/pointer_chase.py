"""Pointer chase: serial dependent loads over a uniform random permutation.

The paper's stress test for irregular access locality: the OoO core and
Mono-CA wait for every load to climb the cache hierarchy, whereas DA
configurations chase pointers at the LLC (§VI-C: "all the workloads with
irregular memory accesses (bfs, pointer chase) show better performance in
DA configurations").
"""

from __future__ import annotations

from typing import Dict, Iterator

import numpy as np

from ..ir import INT64, Kernel, Loop, LoopVar, MemObject
from .base import (
    KernelCall,
    Workload,
    WorkloadInstance,
    register,
    scale_dims,
)

I = LoopVar("i")


def build_kernel(n: int, steps: int) -> Kernel:
    """cur[0] = next[cur[0]], repeated ``steps`` times."""
    nxt = MemObject("next", n, INT64)
    cur = MemObject("cur", 1, INT64)
    loop = Loop("i", 0, steps, [
        cur.store(0, nxt[cur[0]]),
    ])
    return Kernel("pchase", {"next": nxt, "cur": cur}, [loop],
                  outputs=["cur"])


def make_cycle(n: int, rng: np.random.Generator) -> np.ndarray:
    """A single-cycle permutation (Sattolo), uniform random traversal.

    Sattolo's shuffle swaps each ``i`` from ``n - 1`` down to 1 with a
    ``j`` drawn from ``[0, i)``. One array draw takes every ``j`` in that
    order, the same values and generator state as one scalar draw per
    ``i``; the swaps then run over a list."""
    draws = rng.integers(0, np.arange(n - 1, 0, -1)).tolist()
    perm = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), draws):
        perm[i], perm[j] = perm[j], perm[i]
    perm = np.array(perm, dtype=np.int64)
    # perm is a random permutation; build successor mapping along a cycle
    order = np.empty(n, dtype=np.int64)
    order[perm[:-1]] = perm[1:]
    order[perm[-1]] = perm[0]
    return order


class PointerChase(Workload):
    name = "pointer-chase"
    short = "pch"

    def build(self, scale: str = "small",
              n: int = None, steps: int = None) -> WorkloadInstance:
        n = n or scale_dims(scale, tiny=64, small=16384, large=131072)
        steps = steps or scale_dims(scale, tiny=64, small=4000, large=20000)
        rng = np.random.default_rng(11)
        nxt = make_cycle(n, rng)
        kernel = build_kernel(n, steps)
        arrays = {
            "next": nxt,
            "cur": np.zeros(1, dtype=np.int64),
        }

        def schedule(instance: WorkloadInstance) -> Iterator[KernelCall]:
            yield KernelCall(kernel)

        def reference(inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
            cur = int(inputs["cur"][0])
            chain = inputs["next"]
            for _ in range(steps):
                cur = int(chain[cur])
            return {"cur": np.array([cur], dtype=np.int64)}

        return WorkloadInstance(
            name=self.name, short=self.short,
            objects=dict(kernel.objects), arrays=arrays,
            outputs=["cur"],
            schedule=schedule, reference=reference,
            host_insts_per_call=20, host_accesses_per_call=2,
            serial_fraction=1.0,
        )


register(PointerChase())
