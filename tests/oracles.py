"""Test-only oracles: slow, simple references the tests check the package
against. Nothing in src/ or perfbench/ calls them."""

from __future__ import annotations

import math
import time

import numpy as np

from sortlet_vmc import ad
from sortlet_vmc.ad import forward, reverse
from sortlet_vmc.ad.contract import contract, plan
from sortlet_vmc.ad.fd import grad_central
from sortlet_vmc.ansatz import (BIG_NEG, SignedLog, _bare_score_logs, sortlet_logs,
                               vandermonde_logs)
from sortlet_vmc.backbone import FEATURE_EPS
from sortlet_vmc.geometry import BOHR_PER_ANGSTROM, SystemSpec, transpose_electrons
from sortlet_vmc.hamiltonian import local_energy
from sortlet_vmc.optimizer import energy_gradient


def operands(x_sub: str, y_sub: str, out: str, x: np.ndarray, y: np.ndarray):
    """The matrices (L, R) that `contract` hands to np.matmul, caught by a
    spy in its place for one call."""
    seen, matmul = [], np.matmul

    def spy(left, right):
        seen.append((left, right))
        return matmul(left, right)

    np.matmul = spy
    try:
        contract(x_sub, y_sub, out, x, y)
    finally:
        np.matmul = matmul
    (pair,) = seen
    return pair


def contract_uncached(x_sub: str, y_sub: str, out: str, x: np.ndarray, y: np.ndarray):
    """contract resolved from the spec's plan at every call, as one generic
    arrangement per operand: the reference for its cached shaped kernels."""
    swap, (stack, m, _, n), lplan, rplan, perm = plan(x_sub, y_sub, out)
    size = dict(zip(x_sub, x.shape))
    size.update(zip(y_sub, y.shape))

    def arrange(z, arrangement):
        p, dims, transposed = arrangement
        z = np.ascontiguousarray(z if p is None else np.transpose(z, p))
        z = z.reshape(tuple(math.prod(size[i] for i in d) for d in dims))
        return np.swapaxes(z, -1, -2) if transposed else z

    left, right = arrange(y if swap else x, lplan), arrange(x if swap else y, rplan)
    if (lplan[2] or rplan[2]) and np.may_share_memory(left, right):
        right = right.copy(order="K")
    if math.prod(size[i] for i in m) == 1 and math.prod(size[i] for i in n) == 1:
        res = ad.reduce_exact(np.add, left * np.swapaxes(right, -1, -2), axis=-1)
    else:
        res = np.matmul(left, right)
    res = res.reshape(tuple(size[i] for i in stack + m + n))
    return res if perm is None else res.transpose(perm)


def _composed_sort_parity(x):
    """The sort ad.gap_logs fuses, in every engine, by numpy's sorts alone:
    np.sort's values, rank axis first, and score_parity's sign; a Dual or
    Var gathers each entry once by the stable argsort."""
    if isinstance(x, np.ndarray):
        return np.ascontiguousarray(np.moveaxis(np.sort(x, axis=-1), -1, 0)), ad.score_parity(x)
    flat = ad._ranked_index(ad._argsort(x.val))
    take = forward.take if isinstance(x, ad.Dual) else reverse.take
    return take(x, flat), ad.score_parity(x.val)


def composed_sortlet_logs(scores) -> SignedLog:
    """ansatz.sortlet_logs written as the ops ad.gap_logs fuses: the sort,
    the adjacent gaps, where, log, sum, the wrap gap and the final where."""
    n = ad.detach(scores).shape[-1]
    ranked, parity = _composed_sort_parity(scores)  # (N, ...), (...)
    if n == 1:
        return _bare_score_logs(ranked[0])
    gaps = ranked[1:] - ranked[:-1]
    zero = ad.detach(gaps) == 0.0
    tied = ad.reduce_exact(np.logical_or, zero, axis=0)
    logmag = ad.sum(ad.log(ad.where(zero, 1.0, gaps)), axis=0)
    # the wrap gap is zero only where every adjacent gap is
    logmag += ad.log(ad.where(tied, 1.0, ranked[n - 1] - ranked[0]))
    logmag = ad.where(tied, BIG_NEG, logmag)
    return SignedLog(np.where(tied, 0, parity), logmag)


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


def all_nuclei_envelope(system, positions):
    """ansatz.envelope_distance_sum before the shared geometry: the exact
    norm of the whole (B, N, I, 3) displacement block, plain or Dual, then
    each electron's length at its argmin (the earlier nucleus of a tie)."""
    b, n = ad.detach(positions).shape[:2]
    delta = ad.reshape(positions, (b, n, 1, 3)) - system.nuclei_positions[None, None]
    dist = ad.norm(delta)  # (B, N, I)
    nearest = ad.take_along(dist, np.argmin(ad.detach(dist), axis=-1)[..., None], axis=-1)
    return ad.sum(ad.reshape(nearest, (b, n)), axis=-1)


def take_along_vjp_add_at(shape, idx, axis, g) -> np.ndarray:
    """The reverse of take_along_axis(x, idx, axis) for x of `shape` as an
    np.add.at scatter of g, which has the gathered shape."""
    z = np.zeros(shape)
    ix = list(np.indices(g.shape, sparse=True))
    ix[axis % len(shape)] = idx
    np.add.at(z, tuple(ix), g)
    return z


def exchange_path(system: SystemSpec, positions: np.ndarray, i: int, j: int,
                  t: float) -> np.ndarray:
    """Linear path from positions, (N, 3), at t=0 to the (i j)-transposed
    configuration at t=1.

    Only defined for same-spin pairs of the system; at t=0.5 the two
    electrons coincide.
    """
    if system.spins[i] != system.spins[j]:
        raise ValueError(f"electrons {i} and {j} have different spins")
    return (1.0 - t) * positions + t * transpose_electrons(positions, i, j)


def h4_rectangle(theta_deg: float, radius: float = 1.738 * BOHR_PER_ANGSTROM) -> SystemSpec:
    """Four hydrogens on a circle of the given radius (Bohr), parameterized
    by the apex angle theta; theta=90 gives the square."""
    t = math.radians(theta_deg) / 2.0
    x = radius * math.cos(t)
    y = radius * math.sin(t)
    nuclei = [(x, y, 0.0), (x, -y, 0.0), (-x, y, 0.0), (-x, -y, 0.0)]
    return SystemSpec(nuclei_positions=np.array(nuclei), charges=np.array([1, 1, 1, 1]),
                      n_up=2, n_down=2)


class HydrogenGroundState:
    """Exact 1s state around one proton: log|Psi| = -|r - c|.

    Its local energy is -1/2 Hartree identically, which makes it the
    sharpest end-to-end check of the dual-based kinetic evaluation.
    """

    def __init__(self, center=(0.0, 0.0, 0.0)):
        self.center = np.asarray(center, dtype=np.float64)

    def signed_log(self, positions):
        shape = ad.detach(positions).shape
        if shape[1:] != (1, 3):
            raise ValueError(f"one electron expected, got {shape}")
        delta = positions - self.center
        dist = ad.reshape(ad.norm(delta), shape[:1])
        return SignedLog(np.ones(shape[0], dtype=np.int64), -dist)


class HarmonicGroundState:
    """Exact isotropic-well ground state: log|Psi| = -(1/2) sum_i |r_i|^2.

    With the harmonic potential hook its local energy is 1.5 per electron.
    """

    def signed_log(self, positions):
        shape = ad.detach(positions).shape
        logmag = -0.5 * ad.sum(ad.square(positions), axis=(1, 2))
        return SignedLog(np.ones(shape[0], dtype=np.int64), logmag)


def variational_floor_check(dim: int = 50, trials: int = 10_000, seed: int = 0) -> dict:
    """Rayleigh quotients of a random symmetric matrix never undercut its
    smallest eigenvalue; the eigenvector attains it. The discrete analog of
    the bound the whole energy minimization leans on.
    """
    if dim > 200:
        raise ValueError("dim capped at 200")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    h = 0.5 * (a + a.T)
    w, v = np.linalg.eigh(h)
    lam = float(w[0])

    draws = rng.standard_normal((trials, dim))
    num = np.einsum("td,de,te->t", draws, h, draws)
    den = np.einsum("td,td->t", draws, draws)
    quotients = num / den
    floor_gap = float(np.min(quotients) - lam)

    vmin = v[:, 0]
    attained = float(vmin @ h @ vmin / (vmin @ vmin))
    residual = abs(attained - lam)
    return {"seed": seed, "dim": dim, "trials": trials,
            "lambda_min": lam, "min_quotient_gap": floor_gap,
            "eigvec_residual": residual,
            "passed": floor_gap >= -1e-10 and residual < 1e-10}


class ToyChain1D:
    """One particle on a line in a harmonic well, three parameters.

    log amplitude: -softplus(a) x^2 / 2 + b tanh(x) + c tanh(x/2). The
    Gaussian core keeps quadrature on [-8, 8] effectively exact; the
    bounded bumps make the distribution lopsided enough that a wrong
    baseline term in the gradient cannot hide.
    """

    n_params = 3

    def __init__(self):
        self.theta0 = np.array([np.log(np.expm1(1.0)), 0.3, -0.2])
        self.system = SystemSpec(np.zeros((1, 3)), np.array([1]), n_up=1, n_down=0)

    def log_amplitude(self, theta, x):
        a = ad.softplus(theta[0])
        return (x * x) * a * (-0.5) + theta[1] * ad.tanh(x) + theta[2] * ad.tanh(0.5 * x)

    def signed_log(self, theta, positions) -> SignedLog:
        x = positions[:, 0, 0]
        logmag = self.log_amplitude(theta, x)
        return SignedLog(np.ones(positions.shape[0]), logmag)

    def local_energies(self, theta: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """hamiltonian.local_energy, harmonic, of the particle at (x, 0, 0)."""
        positions = np.pad(xs.reshape(-1, 1, 1), ((0, 0), (0, 0), (0, 2)))
        return local_energy(lambda p: self.signed_log(theta, p), self.system, positions,
                            potential="harmonic").total

    @staticmethod
    def grid(n: int = 4001):
        xs = np.linspace(-8.0, 8.0, n)
        w = np.full(n, xs[1] - xs[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        return xs, w

    def density_weights(self, theta: np.ndarray, xs: np.ndarray, w: np.ndarray):
        l = self.log_amplitude(theta, xs)
        rho = w * np.exp(2.0 * (l - np.max(l)))
        return rho / ad.sum(rho, axis=0)

    def quadrature_energy(self, theta: np.ndarray, xs: np.ndarray, w: np.ndarray) -> float:
        p = self.density_weights(theta, xs, w)
        return float(ad.sum(p * self.local_energies(theta, xs), axis=0))


def toy_local_energies(toy, theta, xs: np.ndarray) -> np.ndarray:
    """ToyChain1D's local energy written out for its one coordinate:
    -(1/2)(L'' + L'^2) + x^2/2 from a one-lane dual pass."""
    d = ad.seed_positions(xs.reshape(-1, 1, 1))
    l = toy.log_amplitude(theta, d[:, 0, 0])
    grad = l.tan[:, 0]
    return -0.5 * (l.curv + grad * grad) + 0.5 * xs * xs


def toy_gradient_check(theta: np.ndarray | None = None) -> dict:
    """optimizer.energy_gradient on ToyChain1D against finite differences of
    its deterministic quadrature energy.

    Also evaluates the variant with a doubled baseline term, which must
    disagree: the two candidate formulas differ by 2 Ebar E[grad logpsi],
    nonzero away from stationarity.
    """
    toy = ToyChain1D()
    theta = toy.theta0 if theta is None else np.asarray(theta, dtype=np.float64)
    xs, w = toy.grid()
    eloc = toy.local_energies(theta, xs)
    p = toy.density_weights(theta, xs, w)
    positions = xs.reshape(-1, 1, 1)

    g_est, ebar = energy_gradient(toy, theta, positions, eloc, weights=p, clip=None)
    g_fd = grad_central(lambda th: toy.quadrature_energy(th, xs, w), theta, 1e-4)
    scale = float(np.linalg.norm(g_fd))
    rel = float(np.linalg.norm(g_est - g_fd)) / scale

    tape = ad.GradientTape()
    th = tape.leaf(theta)
    mean_score = tape.gradient(toy.signed_log(th, positions).logmag, th, seed=p)
    g_doubled = g_est - 2.0 * ebar * mean_score
    rel_doubled = float(np.linalg.norm(g_doubled - g_fd)) / scale

    return {"rel_err": rel, "rel_err_doubled_baseline": rel_doubled,
            "energy": ebar, "gradient": g_est.tolist(),
            "passed": rel < 1e-3 and rel_doubled > 1e-2}
