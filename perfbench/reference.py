"""Fixed reference kernels that put measured times on a steady scale.

On a shared machine the CPU speed a process gets drifts by tens of percent
over minutes, so raw wall times of identical runs disagree far more than a
regression bound allows. Each workload has a reference kernel that does the
same kind of work as the workload but never calls ringhub. It is timed
right before and right after every pass, and after every set-up. The
benchmark reports time * nominal / kernel time: the time the work would
take at the speed at which the kernel takes its nominal time. The drift cancels;
a change to ringhub does not, because the kernels do not depend on it.

Never edit a kernel or its nominal time: results before and after such an
edit are not comparable.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np


def numpy_kernel() -> None:
    """A minority-game-like step loop on small arrays: R=16, N=100, S=8, M=2."""
    g = np.random.default_rng(12345)
    r, n, s, p = 16, 100, 8, 4
    signed = (2 * g.integers(0, 2, size=(p, r, n, s)) - 1).astype(np.int8)
    scores = np.zeros((r, n, s))
    mu = np.zeros(r, dtype=np.int64)
    ridx = np.arange(r)
    out = g.integers(1, 50, size=(r, n))
    inside = out - g.integers(-10, 10, size=(r, n))
    sign = np.sign(out - inside)[:, :, None]
    for _ in range(200):
        keys = g.random((r, n, s))
        suggest = signed[mu, ridx]
        pick = np.argmax(scores + keys, axis=2)
        acts = np.take_along_axis(suggest, pick[:, :, None], axis=2)[:, :, 0] > 0
        congested = acts.sum(axis=1) > 80
        np.where(acts, inside, out).sum(axis=1)
        scores += sign * suggest
        mu = ((mu << 1) | congested) & (p - 1)


def fraction_kernel() -> None:
    """Exact rational sums and comparisons, as in the Fraction equilibrium."""
    alpha = Fraction(1, 2)
    total = Fraction(0)
    best = None
    for i in range(3000):
        cost = (i % 97) + alpha * (i % 13)
        total += cost - Fraction(i % 7)
        if best is None or cost < best:
            best = cost


def memory_kernel() -> None:
    """A broadcast sum into a fresh 160 MB int64 array, then an argmin
    over its middle axis: the allocation and memory traffic of route_table
    on a large ring."""
    n, lam = 1000, 100
    idx = np.arange(n, dtype=np.int64)
    entry = (idx[:200, None] * 7 + idx[None, :lam]) % n  # (200, lam)
    exit_cost = (idx[:lam, None] * 3 + idx[None, :]) % n  # (lam, N)
    total = entry[:, :, None] + exit_cost[None, :, :]  # (200, lam, N)
    np.argmin(total, axis=1)


# kernel name -> (kernel, its nominal time in seconds)
KERNELS = {
    "numpy": (numpy_kernel, 0.05),
    "fraction": (fraction_kernel, 0.02),
    "memory": (memory_kernel, 0.15),
}


def time_kernel(name: str) -> float:
    """Seconds one call of the named kernel takes now."""
    kernel, _ = KERNELS[name]
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
