"""Tracking (SD-VBS): Harris-style corner response for feature tracking.

Three stages per frame: central-difference gradients, per-pixel tensor
products, and a 3x3-windowed corner response. The response DFG is the
largest in the suite (Table VI: tra has the maximum static instruction
count); more of its CGRA partitions are bound by the fabric's ALU
counts than any other workload's.
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


def build_grad_kernel(n: int) -> Kernel:
    img = MemObject("img", (n, n), FLOAT32)
    ix = MemObject("ix", (n, n), FLOAT32)
    iy = MemObject("iy", (n, n), FLOAT32)
    nest = Loop("i", 1, n - 1, [
        Loop("j", 1, n - 1, [
            ix.store((I, J), (img[I, J + 1] - img[I, J - 1]) * 0.5),
            iy.store((I, J), (img[I + 1, J] - img[I - 1, J]) * 0.5),
        ]),
    ])
    return Kernel("trk_grad", {"img": img, "ix": ix, "iy": iy}, [nest],
                  outputs=["ix", "iy"])


def build_tensor_kernel(n: int) -> Kernel:
    ix = MemObject("ix", (n, n), FLOAT32)
    iy = MemObject("iy", (n, n), FLOAT32)
    ixx = MemObject("ixx", (n, n), FLOAT32)
    iyy = MemObject("iyy", (n, n), FLOAT32)
    ixy = MemObject("ixy", (n, n), FLOAT32)
    nest = Loop("i", 0, n, [
        Loop("j", 0, n, [
            ixx.store((I, J), ix[I, J] * ix[I, J]),
            iyy.store((I, J), iy[I, J] * iy[I, J]),
            ixy.store((I, J), ix[I, J] * iy[I, J]),
        ]),
    ])
    return Kernel(
        "trk_tensor",
        {"ix": ix, "iy": iy, "ixx": ixx, "iyy": iyy, "ixy": ixy},
        [nest], outputs=["ixx", "iyy", "ixy"],
    )


def _box(obj: MemObject):
    return (
        obj[I - 1, J - 1] + obj[I - 1, J] + obj[I - 1, J + 1]
        + obj[I, J - 1] + obj[I, J] + obj[I, J + 1]
        + obj[I + 1, J - 1] + obj[I + 1, J] + obj[I + 1, J + 1]
    )


def build_response_kernel(n: int) -> Kernel:
    """Harris response: det(T) - k*trace(T)^2 over 3x3 sums."""
    ixx = MemObject("ixx", (n, n), FLOAT32)
    iyy = MemObject("iyy", (n, n), FLOAT32)
    ixy = MemObject("ixy", (n, n), FLOAT32)
    resp = MemObject("resp", (n, n), FLOAT32)
    sxx, syy, sxy = _box(ixx), _box(iyy), _box(ixy)
    trace = sxx + syy
    det = sxx * syy - sxy * sxy
    nest = Loop("i", 1, n - 1, [
        Loop("j", 1, n - 1, [
            resp.store((I, J), det - 0.04 * trace * trace),
        ]),
    ])
    return Kernel(
        "trk_response",
        {"ixx": ixx, "iyy": iyy, "ixy": ixy, "resp": resp},
        [nest], outputs=["resp"],
    )


def reference_tracking(img: np.ndarray, n: int) -> np.ndarray:
    ix = np.zeros_like(img)
    iy = np.zeros_like(img)
    ix[1:-1, 1:-1] = (img[1:-1, 2:] - img[1:-1, :-2]) * 0.5
    iy[1:-1, 1:-1] = (img[2:, 1:-1] - img[:-2, 1:-1]) * 0.5
    ixx, iyy, ixy = ix * ix, iy * iy, ix * iy
    resp = np.zeros_like(img)

    def box(a):
        return sum(
            a[1 + di:n - 1 + di, 1 + dj:n - 1 + dj]
            for di in (-1, 0, 1) for dj in (-1, 0, 1)
        )

    sxx, syy, sxy = box(ixx), box(iyy), box(ixy)
    trace = sxx + syy
    resp[1:-1, 1:-1] = sxx * syy - sxy * sxy - 0.04 * trace * trace
    return resp


class Tracking(Workload):
    name = "tracking"
    short = "tra"

    def build(self, scale: str = "small", n: int = None,
              frames: int = None) -> WorkloadInstance:
        n = n or scale_dims(scale, tiny=8, small=64, large=128)
        frames = frames or scale_dims(scale, tiny=1, small=2, large=2)
        rng = np.random.default_rng(41)
        img = rng.random(n * n).astype(np.float32)
        grad_k = build_grad_kernel(n)
        tensor_k = build_tensor_kernel(n)
        resp_k = build_response_kernel(n)
        def zeros() -> np.ndarray:
            return np.zeros(n * n, dtype=np.float32)

        arrays = {
            "img": img.copy(), "ix": zeros(), "iy": zeros(),
            "ixx": zeros(), "iyy": zeros(), "ixy": zeros(),
            "resp": zeros(),
        }

        def schedule(instance: WorkloadInstance) -> Iterator[KernelCall]:
            for _ in range(frames):
                yield KernelCall(grad_k)
                yield KernelCall(tensor_k)
                yield KernelCall(resp_k)

        def reference(inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
            resp = reference_tracking(
                inputs["img"].reshape(n, n).astype(np.float64), n
            )
            return {"resp": resp.ravel()}

        objects = dict(grad_k.objects)
        objects.update(tensor_k.objects)
        objects.update(resp_k.objects)
        return WorkloadInstance(
            name=self.name, short=self.short,
            objects=objects, arrays=arrays,
            outputs=["resp"],
            schedule=schedule, reference=reference,
            host_insts_per_call=50, host_accesses_per_call=4,
            atol=1e-2,
        )


register(Tracking())
