"""Fixed reference kernels: they time the machine, not the package.

The host this benchmark runs on slows all code by up to 1.7x for seconds at
a time when other tenants load it. A reference kernel runs once per round,
next to the timed runs, and each run's time per step is divided by the
kernel's time in the same round. Both slow down together, so the ratio
moves with the package's own cost and much less with the machine's load.

Each kernel imitates the work of the workloads it serves, using plain numpy
and no came_opt code, so a change to the package cannot change the kernel:
`small` is dispatch-bound (many numpy calls on arrays of at most 512x32),
`large` streams over 262144-element arrays.
"""

from __future__ import annotations

import math
import time
from typing import Callable

import numpy as np


def _small() -> Callable[[], None]:
    rng = np.random.Generator(np.random.PCG64(0))
    x = rng.standard_normal((512, 16))
    w1 = rng.standard_normal((16, 32)) / 4.0
    w2 = rng.standard_normal((32, 1)) / 4.0
    acc = [np.abs(rng.standard_normal(shape)) for shape in ((16, 32), (32, 1))]

    def kernel() -> None:
        for _ in range(10):
            h = np.tanh(x @ w1)
            d = (h @ w2 - 1.0) / 512.0
            grads = ((x.T @ (d @ w2.T * (1.0 - np.square(h)))), h.T @ d)
            for a, g in zip(acc, grads):
                b = 0.9 * a + 0.1 * (np.square(g) + 1e-30)
                v = b.sum(axis=1, keepdims=True) @ b.sum(axis=0, keepdims=True) / float(b.sum())
                u = g / np.sqrt(v)
                u = u / max(1.0, math.sqrt(float(np.mean(np.square(u)))))

    return kernel


def _large() -> Callable[[], None]:
    rng = np.random.Generator(np.random.PCG64(0))
    g = rng.standard_normal((512, 512))
    m = rng.standard_normal((512, 512))
    acc = np.abs(rng.standard_normal((512, 512)))

    def kernel() -> None:
        for _ in range(2):
            b = 0.9 * acc + 0.1 * (np.square(g) + 1e-30)
            v = (b.sum(axis=1, keepdims=True) @ b.sum(axis=0, keepdims=True)) / float(b.sum())
            u = g / np.sqrt(v)
            u = u / max(1.0, math.sqrt(float(np.mean(np.square(u)))))
            n = 0.9 * m + 0.1 * u
            float(np.sum(np.square(n - m)))

    return kernel


_FACTORIES = {"small": _small, "large": _large}


class Reference:
    """One reference kernel, built once; `time_us` runs it and returns its wall time."""

    def __init__(self, name: str):
        self._kernel = _FACTORIES[name]()
        self._kernel()  # first call pays for page faults and caches

    def time_us(self) -> float:
        start = time.perf_counter()
        self._kernel()
        return (time.perf_counter() - start) * 1e6
