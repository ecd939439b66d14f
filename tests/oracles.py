"""Test-only oracles: slow, simple references the tests check the package
against. Nothing in src/ or perfbench/ calls them."""

from __future__ import annotations

import time

import numpy as np

from sortlet_vmc.ansatz import sortlet_logs, vandermonde_logs


def hessian_diag_central(f, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central-difference diagonal second derivatives of scalar f at x."""
    x = np.asarray(x, dtype=np.float64)
    f0 = f(x)
    d = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e.flat[i] = h
        d.flat[i] = (f(x + e) - 2.0 * f0 + f(x - e)) / (h * h)
    return d


def _time_call(fn, min_seconds: float = 0.02) -> float:
    """Best-of-3 per-call time, with enough repeats to beat timer noise."""
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        dt = time.perf_counter() - t0
        if dt >= min_seconds:
            break
        reps *= 2
    best = dt / reps
    for _ in range(2):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, (time.perf_counter() - t0) / reps)
    return best


def _loglog_slope(ns, ts) -> float:
    return float(np.polyfit(np.log(np.asarray(ns, dtype=np.float64)),
                            np.log(np.asarray(ts, dtype=np.float64)), 1)[0])


def complexity_benchmark(seed: int = 0, sortlet_ns=None, vandermonde_ns=None) -> dict:
    """Scaling of the antisymmetrizers alone, on raw score vectors.

    The sortlet is sort-dominated; the pairwise-difference comparator is
    quadratic, so it only gets timed over a range it can finish.
    """
    rng = np.random.default_rng(seed)
    if sortlet_ns is None:
        sortlet_ns = [2 ** k for k in range(8, 17)]
    if vandermonde_ns is None:
        vandermonde_ns = [2 ** k for k in range(8, 14)]

    sortlet_times = []
    for n in sortlet_ns:
        s = rng.standard_normal((1, n))
        sortlet_times.append(_time_call(lambda s=s: sortlet_logs(s)))
    vdm_times = []
    for n in vandermonde_ns:
        s = rng.standard_normal((1, n))
        vdm_times.append(_time_call(lambda s=s: vandermonde_logs(s)))

    return {"probe": "complexity",
            "sortlet_ns": list(sortlet_ns), "sortlet_seconds": sortlet_times,
            "sortlet_slope": _loglog_slope(sortlet_ns, sortlet_times),
            "vandermonde_ns": list(vandermonde_ns), "vandermonde_seconds": vdm_times,
            "vandermonde_slope": _loglog_slope(vandermonde_ns, vdm_times)}
