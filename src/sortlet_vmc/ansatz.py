"""Antisymmetric wavefunction built from sorted score gaps.

Each of the K heads turns its electron scores s into a signed product

    psi_k = sgn(sort permutation) * prod(adjacent ascending gaps) * wrap gap

with N factors for N electrons: the N-1 gaps between consecutive sorted
scores and the gap between the largest and smallest (a single electron
contributes its bare score). Swapping two electrons permutes the scores,
which leaves every gap untouched and flips the sort parity, so psi_k is
antisymmetric by construction; it vanishes exactly when two scores tie.
Sorting is the only N-coupled step, so one head costs O(N log N) against
the O(N^3) of a determinant. Each head is sorted once (ad.sort_parity)
and its gaps are differences of neighbouring ranks. Up to
ad.NETWORK_MAX = 16 electrons the sort and its parity come from one
comparator network of O(N log^2 N) passes; longer rows keep np.sort and
score_parity, whose cycle path is O(N) per row, so the sortlet's cost
still grows like a sort.

The full state multiplies in a symmetric pair factor (electron-electron
cusps), per-head nucleus envelopes (decay and nuclear cusps), and mixes the
heads with learnable weights:

    Psi = exp(J) * sum_k w_k * psi_k * exp(-rate_k * sum_j min_I |r_j - R_I|)

Everything is evaluated in signed log form. Vanishing factors are masked
out before any log so derivative lanes stay finite; a masked head simply
contributes zero to the mixture.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ad, backbone
from .ad import score_parity
from .geometry import SystemSpec

# stand-in log-magnitude for an exact zero: finite (so no inf-inf traps),
# but exp() underflows to 0 and any realistic logmag dwarfs it
BIG_NEG = -1e300


@dataclass
class SignedLog:
    """A value v stored as (sign(v), log|v|); sign 0 encodes v == 0.

    sign is always a plain array; logmag keeps whatever engine produced it.
    """

    sign: np.ndarray
    logmag: object

    def value(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return self.sign * np.exp(ad.detach(self.logmag))


def canonical_order(spins: np.ndarray, positions) -> tuple[np.ndarray, np.ndarray]:
    """Per-walker canonical electron order and its parity.

    order (B, N) sorts each spin sector's electrons by (x, y, z) and keeps
    them in that sector's slots, so gathering a batch into it gives the same
    bits for every same-spin relabelling of the walker. parity (B,) is the
    sign that permutation gives an antisymmetric function.
    """
    pos = ad.detach(positions)
    sector = np.broadcast_to(spins, pos.shape[:2])
    ranked = np.lexsort((pos[..., 2], pos[..., 1], pos[..., 0], sector), axis=-1)
    # ranked lists the sectors in ascending spin; put each back in its slots
    order = np.empty_like(ranked)
    order[:, np.argsort(spins, kind="stable")] = ranked
    return order, score_parity(order)


def sortlet_logs(scores) -> SignedLog:
    """Signed log of the sorted-gap product, batched over leading axes.

    scores: (..., N) in any engine. Heads whose scores tie anywhere come
    back with sign 0 and their derivative lanes severed.
    """
    n = ad.detach(scores).shape[-1]
    ranked, parity = ad.sort_parity(scores)  # (N, ...), (...)
    if n == 1:
        return _bare_score_logs(ranked[0])
    gaps = ranked[1:] - ranked[:-1]
    zero = ad.detach(gaps) == 0.0
    tied = np.logical_or.reduce(zero, axis=0)
    logs = ad.log(ad.where(zero, 1.0, gaps))
    logmag = logs[0]
    for j in range(1, n - 1):  # a left fold in gap order, whatever the layout or batch
        logmag = logmag + logs[j]
    # the wrap gap is zero only where every adjacent gap is
    logmag = logmag + ad.log(ad.where(tied, 1.0, ranked[n - 1] - ranked[0]))
    logmag = ad.where(tied, BIG_NEG, logmag)
    sign = np.where(tied, 0, parity)
    return SignedLog(sign, logmag)


def _bare_score_logs(s) -> SignedLog:
    sv = ad.detach(s)
    zero = sv == 0.0
    safe = ad.where(zero, 1.0, ad.absolute(s))
    logmag = ad.where(zero, BIG_NEG, ad.log(safe))
    return SignedLog(np.where(zero, 0, np.sign(sv)).astype(np.int64), logmag)


def vandermonde_logs(scores: np.ndarray, block: int = 1024) -> SignedLog:
    """Signed log of prod_{i<j}(s_j - s_i), the determinant baseline.

    Plain ndarrays only; pair work is O(N^2), blocked to bound memory.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[-1]
    sign = score_parity(scores).astype(np.float64)
    logmag = np.zeros(scores.shape[:-1])
    tied = np.zeros(scores.shape[:-1], dtype=bool)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        diff = scores[..., None, lo:hi] - scores[..., :, None]  # (..., N, hi-lo)
        i_idx = np.arange(n)[:, None]
        j_idx = np.arange(lo, hi)[None, :]
        upper = i_idx < j_idx
        mag = np.where(upper, np.abs(diff), 1.0)
        tied |= np.any(upper & (diff == 0.0), axis=(-2, -1))
        with np.errstate(divide="ignore"):
            logmag += np.sum(np.where(upper, np.log(mag), 0.0), axis=(-2, -1))
    return SignedLog(np.where(tied, 0, sign.astype(np.int64)),
                     np.where(tied, BIG_NEG, logmag))


def pair_log_factor(positions, spins: np.ndarray, beta_raw):
    """Symmetric log pair factor J(r).

    J = sum_{i<j par} -(1/4) b1/(b1^2 + r_ij) + sum_{i<j anti} -(1/2) b2/(b2^2 + r_ij)
    with b = softplus(raw) so the strengths stay positive unconstrained.
    """
    n = len(spins)
    if n < 2:
        # no pairs: J is identically zero, with zero parameter gradient
        return np.zeros(ad.detach(positions).shape[0])
    beta = ad.softplus(beta_raw)
    iu, ju = np.triu_indices(n, 1)
    delta = positions[(slice(None), iu)] - positions[(slice(None), ju)]  # (B, P, 3)
    dist = ad.norm(delta)  # (B, P) exact: carries the cusp
    same = (spins[iu] == spins[ju]).astype(np.float64)  # (P,)
    b1, b2 = beta[0], beta[1]
    par = b1 / (ad.square(b1) + dist)
    anti = b2 / (ad.square(b2) + dist)
    terms = par * (-0.25 * same) + anti * (-0.5 * (1.0 - same))
    return ad.sum(terms, axis=-1)


def envelope_distance_sum(system: SystemSpec, positions):
    """sum_j min_I |r_j - R_I|, shape (B,); exact distances for the cusp."""
    b, n = ad.detach(positions).shape[:2]
    pos = ad.reshape(positions, (b, n, 1, 3))
    delta = pos - system.nuclei_positions[None, None]  # (B, N, I, 3)
    dist = ad.norm(delta)  # (B, N, I)
    # argmin keeps the earlier nucleus of a tie
    nearest = ad.take_along(dist, np.argmin(ad.detach(dist), axis=-1)[..., None], axis=-1)
    return ad.sum(ad.reshape(nearest, (b, n)), axis=-1)


def mix_signed_logs(signs: np.ndarray, logmags, weights) -> SignedLog:
    """Signed log of sum_k w_k * sign_k * exp(logmag_k) over the last axis.

    The shift m is detached, which is exact (the result is m-independent).
    The heads are summed in a fixed order and round-to-nearest is symmetric,
    so negating every head (a global sign flip) negates the total
    bit-for-bit.
    """
    m = ad.amax(logmags, axis=-1, keepdims=True)
    mantissa = ad.exp(logmags - m) * signs.astype(np.float64) * weights
    total = ad.sum(mantissa, axis=-1)
    tv = ad.detach(total)
    dead = tv == 0.0
    safe = ad.where(dead, 1.0, ad.absolute(total))
    logmag = ad.where(dead, BIG_NEG, ad.log(safe) + m[..., 0])
    return SignedLog(np.sign(tv).astype(np.int64), logmag)


class SortletWavefunction:
    """System-bound ansatz: scores -> sorted-gap heads -> mixed signed log.

    Parameters travel as one flat vector; pass a plain ndarray (sampling),
    a reverse-mode Var of it (parameter gradients), or keep the vector
    plain and wrap positions with ad.seed_positions (local energy).
    """

    def __init__(self, system: SystemSpec, n_sortlets: int = backbone.DEFAULT_SORTLETS,
                 hidden: int = backbone.DEFAULT_HIDDEN, layers: int = backbone.DEFAULT_LAYERS,
                 seed: int = 0):
        self.system = system
        self.n_sortlets = n_sortlets
        self.hidden = hidden
        self.layers = layers
        self.store = backbone.build_param_store(system, n_sortlets, hidden, layers)
        self.theta0 = backbone.init_params(self.store, seed=seed)

    def signed_log(self, theta, positions) -> SignedLog:
        """Signed log of Psi for a batch: positions (B, N, 3) -> (B,).

        Walkers are evaluated in canonical electron order, gathered into a
        C-contiguous copy, so the bits do not depend on a same-spin
        relabelling or on memory layout; the order's parity restores the
        sign of the caller's labelling. Dual positions already in that order
        (local_energy seeds them so) skip the gather of their 3N lanes;
        seed_positions makes them C-contiguous.
        """
        shape = ad.detach(positions).shape
        if len(shape) != 3 or shape[1:] != (self.system.n_electrons, 3):
            raise ValueError(f"positions must be (B, {self.system.n_electrons}, 3), got {shape}")
        order, parity = canonical_order(self.system.spins, positions)
        if not (isinstance(positions, ad.Dual) and np.all(order == np.arange(shape[1]))):
            positions = ad.take_along(positions, order[..., None], axis=1)
        params = self.store.unpack(theta)
        s = backbone.scores(self.system, params, positions)
        core = sortlet_logs(s)
        rate = ad.softplus(params["env.rate"])  # (K,)
        reach = envelope_distance_sum(self.system, positions)  # (B,)
        env = ad.einsum("b,k->bk", -reach, rate)
        mixed = mix_signed_logs(core.sign, core.logmag + env, params["mix.w"])
        j = pair_log_factor(positions, self.system.spins, params["pair.beta"])
        return SignedLog(mixed.sign * parity, mixed.logmag + j)
