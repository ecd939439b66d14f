"""Test-only oracles: slow, simple references the tests check the package
against. Nothing in src/ or perfbench/ calls them."""

from __future__ import annotations

import time

import numpy as np

from sortlet_vmc import ad
from sortlet_vmc.ansatz import sortlet_logs, vandermonde_logs
from sortlet_vmc.backbone import FEATURE_EPS


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


def composed_norm(x, eps=0.0):
    """ad.norm written as the elementwise ops it fuses."""
    return ad.sqrt(ad.sum(ad.square(x), axis=-1) + eps ** 2)


def composed_softmax(x):
    """ad.softmax written as shift, exp, sum and a Dual/Var quotient."""
    shifted = x - ad.amax(x, axis=-1, keepdims=True)
    weights = ad.exp(shifted)
    denom = ad.reshape(ad.sum(weights, axis=-1), ad.detach(weights).shape[:-1] + (1,))
    return weights / denom


def composed_featurize(system, positions):
    """backbone.featurize with composed norms and the pair block pooled by
    where and sum over (B, N, N, 3)."""
    n = system.n_electrons
    spins = system.spins.astype(np.float64)
    parts = []
    for i in range(system.n_nuclei):
        delta = positions - system.nuclei_positions[i]
        parts.append(delta)
        parts.append(ad.reshape(composed_norm(delta, FEATURE_EPS),
                                ad.detach(delta).shape[:-1] + (1,)))
    b = ad.detach(positions).shape[0]
    parts.append(np.broadcast_to(spins[None, :, None], (b, n, 1)))
    delta = ad.reshape(positions, (b, n, 1, 3)) - ad.reshape(positions, (b, 1, n, 3))
    dist = composed_norm(delta, FEATURE_EPS)  # (B, N, N)
    same = (spins[:, None] == spins[None, :]) & ~np.eye(n, dtype=bool)
    opp = spins[:, None] != spins[None, :]
    for mask in (same, opp):
        count = np.maximum(mask.sum(axis=1), 1).astype(np.float64)  # (N,)
        m3 = np.broadcast_to(mask[None, :, :, None], (b, n, n, 1))
        parts.append(ad.sum(ad.where(m3, delta, 0.0), axis=2) / count[None, :, None])
        pooled_dist = ad.sum(ad.where(mask[None], dist, 0.0), axis=2) / count[None, :]
        parts.append(ad.reshape(pooled_dist, (b, n, 1)))
    return ad.concat(parts, axis=-1)


def unfolded_scores(system, params: dict, positions, hidden: int, layers: int):
    """backbone.scores with separate q, k, v and o projections, the logits
    scaled on the walker side and the composed softmax."""
    h = ad.tanh(ad.einsum("bnf,fh->bnh", composed_featurize(system, positions),
                          params["feat.w"]) + params["feat.b"])
    for layer in range(layers):
        q = ad.einsum("bnh,hg->bng", h, params[f"att{layer}.wq"])
        k = ad.einsum("bnh,hg->bng", h, params[f"att{layer}.wk"])
        v = ad.einsum("bnh,hg->bng", h, params[f"att{layer}.wv"])
        attn = composed_softmax(ad.einsum("bng,bmg->bnm", q, k) * (1.0 / np.sqrt(hidden)))
        mixed = ad.einsum("bnm,bmg->bng", attn, v)
        update = ad.einsum("bnh,hg->bng", mixed, params[f"att{layer}.wo"]) + params[f"att{layer}.bo"]
        h = ad.tanh(h + update)
    raw = ad.einsum("bnf,fh->bnh", h, params["out.w"]) + params["out.b"]
    return ad.moveaxis(raw, -1, -2)
