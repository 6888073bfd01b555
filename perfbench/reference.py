"""A fixed reference computation that measures how fast the host runs right now.

The benchmark machine is a few vCPUs of a shared host, and its speed drifts by
tens of percent over minutes as the host's load changes. The workload
processes time this computation between operations, spread over the whole
run, and report operation time in units of its median (see ``NOTES.md``).

It uses nothing from the package under test, so no change to the program
can move it. Its mix follows the program's hot paths: Python-level float
arithmetic and calls, as in the ``family`` kernels, and small NumPy
solves and products, as in scipy's Radau and DOP853 steps.
"""

from __future__ import annotations

import math

import numpy as np

_A = np.array([[4.0, 1.0, 0.5, 0.2], [1.0, 3.0, 0.3, 0.1], [0.5, 0.3, 2.0, 0.4], [0.2, 0.1, 0.4, 5.0]])


def _field(x: float, y: float, mu: float) -> tuple[float, float]:
    return y, mu * (1.0 - x * x) * y - x + 0.1 * math.tanh(x)


def work() -> float:
    """One fixed unit of work, about 4 ms on a 2-vCPU Xeon; returns a checksum."""
    x, y, h, mu = 2.0, 0.0, 1e-3, 1.5
    for _ in range(1000):  # RK4, scalar Python floats
        k1 = _field(x, y, mu)
        k2 = _field(x + 0.5 * h * k1[0], y + 0.5 * h * k1[1], mu)
        k3 = _field(x + 0.5 * h * k2[0], y + 0.5 * h * k2[1], mu)
        k4 = _field(x + h * k3[0], y + h * k3[1], mu)
        x += h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        y += h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    v = np.array([x, y, 1.0, -1.0])
    for _ in range(250):  # small dense solves and products
        v = np.linalg.solve(_A, v) + 0.01 * (_A @ v)
        v /= np.linalg.norm(v)
    return x + y + float(v.sum())
