"""The vectorized references of the loop-carried workloads equal their
row-major loops bit for bit.

Seidel-2D, ADI and Needleman-Wunsch validate against numpy references
that run by wavefronts, by rows, and by anti-diagonals. The loops below
are the original per-element references, kept as the oracle: the same
float64 or integer operations on every element in the same order.
"""

import numpy as np
import pytest

from repro.workloads.adi import A_C, B_C, C_C, reference_step
from repro.workloads.nw import PENALTY, reference_nw
from repro.workloads.seidel import reference_sweep

#: tiny, small, and two odd sizes per workload
SEIDEL_SIZES = (10, 128, 7, 33)
ADI_SIZES = (8, 80, 5, 27)
NW_SIZES = (8, 128, 3, 19)


def loop_seidel_sweep(a):
    n = a.shape[0]
    for i in range(1, n - 1):
        for j in range(1, n - 1):
            a[i, j] = (
                a[i - 1, j - 1] + a[i - 1, j] + a[i - 1, j + 1]
                + a[i, j - 1] + a[i, j] + a[i, j + 1]
                + a[i + 1, j - 1] + a[i + 1, j] + a[i + 1, j + 1]
            ) / 9.0


def loop_adi_step(u, v, p, q, n):
    for i in range(1, n - 1):
        for j in range(1, n - 1):
            denom = A_C * p[i, j - 1] + B_C
            p[i, j] = -C_C / denom
            q[i, j] = (u[j, i] - A_C * q[i, j - 1]) / denom
    for i in range(1, n - 1):
        for j in range(n - 2, 0, -1):
            v[j, i] = p[i, j] * v[j + 1, i] + q[i, j]
    for i in range(1, n - 1):
        for j in range(1, n - 1):
            denom = A_C * p[i, j - 1] + B_C
            p[i, j] = -C_C / denom
            q[i, j] = (v[i, j] - A_C * q[i, j - 1]) / denom
    for i in range(1, n - 1):
        for j in range(n - 2, 0, -1):
            u[i, j] = p[i, j] * u[i, j + 1] + q[i, j]


def loop_nw(m, s):
    n = s.shape[0]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            m[i, j] = max(
                m[i - 1, j - 1] + s[i - 1, j - 1],
                m[i - 1, j] - PENALTY,
                m[i, j - 1] - PENALTY,
            )
    return m


@pytest.mark.parametrize("n", SEIDEL_SIZES)
def test_seidel_wavefront_sweeps_equal_the_loop(n):
    a = np.random.default_rng(n).random((n, n))
    want = a.copy()
    for _ in range(2):
        reference_sweep(a)
        loop_seidel_sweep(want)
    assert np.array_equal(a, want)


@pytest.mark.parametrize("n", ADI_SIZES)
def test_adi_row_sweeps_equal_the_loop(n):
    rng = np.random.default_rng(n)
    got = [rng.random((n, n)), rng.random((n, n)),
           np.zeros((n, n)), np.zeros((n, n))]
    want = [x.copy() for x in got]
    for _ in range(2):
        reference_step(*got, n)
        loop_adi_step(*want, n)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("n", NW_SIZES)
def test_nw_antidiagonals_equal_the_loop(n):
    s = np.random.default_rng(n).integers(-4, 5, (n, n)).astype(np.int32)
    m0 = np.zeros((n + 1, n + 1), dtype=np.int64)
    m0[0, :] = -PENALTY * np.arange(n + 1)
    m0[:, 0] = -PENALTY * np.arange(n + 1)
    assert np.array_equal(reference_nw(m0.copy(), s), loop_nw(m0.copy(), s))
