"""Finite-difference oracles used by tests and probes. Never in hot paths."""

from __future__ import annotations

import numpy as np


def grad_central(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar f at flat point x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e.flat[i] = h
        g.flat[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def derivative_one_sided(f, t0: float, h: float, side: int = +1) -> float:
    """Three-point one-sided derivative of f at t0 from the given side."""
    s = float(side)
    return s * (-3.0 * f(t0) + 4.0 * f(t0 + s * h) - f(t0 + 2.0 * s * h)) / (2.0 * h)
