"""Antisymmetric wavefunction built from sorted score gaps.

Each of the K heads turns its electron scores s into a signed product

    psi_k = sgn(sort permutation) * prod(adjacent ascending gaps) * wrap gap

with N factors for N electrons: the N-1 gaps between consecutive sorted
scores and the gap between the largest and smallest (a single electron
contributes its bare score). Swapping two electrons permutes the scores,
which leaves every gap untouched and flips the sort parity, so psi_k is
antisymmetric by construction; it vanishes exactly when two scores tie.
Sorting is the only N-coupled step, so one head costs O(N log N) against
the O(N^3) of a determinant. The head is one op in every engine,
ad.gap_logs: it sorts each head once and folds the logs of its N gaps,
differences of neighbouring ranks and the wrap gap; sortlet_logs adds
the sign rule, BIG_NEG for a tied head and the bare score of N = 1. Up
to ad.NETWORK_MAX = 16 electrons the sort, its parity and (for the
derivative engines) each entry's position come from one comparator
network of O(N log^2 N) passes; longer rows take one stable argsort, and
its parity from ad.permutation_parity in O(N log N) per row, so the
sortlet's cost still grows like a sort.

The full state multiplies in a symmetric pair factor (electron-electron
cusps), per-head nucleus envelopes (decay and nuclear cusps), and mixes the
heads with learnable weights:

    Psi = exp(J) * sum_k w_k * psi_k * exp(-rate_k * sum_j min_I |r_j - R_I|)

Everything is evaluated in signed log form. Vanishing factors are masked
out before any log so derivative lanes stay finite; a masked head simply
contributes zero to the mixture. The envelope and the pair factor read
the exact lengths of the pass's one geometry (backbone.electron_geometry).

Each walker is evaluated in canonical electron order (canonical_order):
each spin sector of two or more electrons is sorted by the same
comparator network on the electrons' x (ad.network_sort), all walkers at
once; only rows with an x tie or a NaN take np.lexsort, and a batch
already in order is not sorted.
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


def canonical_order(sectors, positions) -> tuple[np.ndarray | None, np.ndarray]:
    """Per-walker canonical electron order and its parity.

    order (B, N) sorts the electrons of each sector (SystemSpec.sectors)
    by (x, y, z) into that sector's slots, so gathering a batch into it
    gives the same bits for every same-spin relabelling of the walker.
    parity (B,) is the sign that permutation gives an antisymmetric function.

    A batch whose x rises strictly in every sector is already in that order:
    after that one comparison order is None (the identity) and every parity
    +1. Otherwise ad.network_sort sorts the x of each sector of two or
    more electrons, all walkers at once, carrying the electron index and
    the parity of its swaps; a sector of 0 or 1 electrons keeps its slots.
    A row whose sorted x is not strictly rising, an exact tie (zeros of
    both signs among them) or a NaN, which fails every comparison, is
    ordered by np.lexsort per sector instead, its parity
    permutation_parity's. The order and parity are the lexsort's on every
    row.
    """
    pos = ad.detach(positions)
    b, n = pos.shape[:2]
    x = [pos[:, slots, 0] for slots in sectors]
    if all(np.all(s[:, 1:] > s[:, :-1]) for s in x):
        return None, np.ones(b, dtype=np.int64)
    order = np.empty((b, n), dtype=np.int64)
    odd, tied = np.zeros(b, dtype=bool), np.zeros(b, dtype=bool)
    for slots, sub in zip(sectors, x):
        if len(slots) < 2:  # nothing to sort, and network_sort needs a key
            order[:, slots] = slots
            continue
        keys, index = list(np.array(sub.T, order="C")), list(slots)
        odd ^= ad.network_sort(keys, index)
        for lo, hi in zip(keys[:-1], keys[1:]):
            tied |= ~(hi > lo)
        for slot, column in zip(slots, index):
            order[:, slot] = column
    parity = np.where(odd, -1, 1)
    if tied.any():
        order[tied], parity[tied] = _lexsort_order(sectors, pos[tied])
    return order, parity


def canonical_positions(sectors, positions) -> tuple[object, np.ndarray]:
    """(positions gathered into canonical_order, its parity), in any engine;
    a batch already in that order comes back as it is, not gathered."""
    order, parity = canonical_order(sectors, positions)
    if order is not None:
        positions = ad.take_along(positions, order[..., None], axis=1)
    return positions, parity


def _lexsort_order(sectors, pos) -> tuple[np.ndarray, np.ndarray]:
    """canonical_order by one np.lexsort per sector and permutation_parity."""
    order = np.empty(pos.shape[:2], dtype=np.int64)
    for slots in sectors:
        sub = pos[:, slots]
        order[:, slots] = slots[np.lexsort((sub[..., 2], sub[..., 1], sub[..., 0]), axis=-1)]
    return order, ad.permutation_parity(order)


def sortlet_logs(scores) -> SignedLog:
    """Signed log of the sorted-gap product, batched over leading axes.

    scores: (..., N) in any engine. Heads whose scores tie anywhere come
    back with sign 0 and their derivative lanes severed.
    """
    shape = ad.detach(scores).shape
    if shape[-1] == 1:  # a basic index: its VJP adds g into zeros, as the gather's did
        return _bare_score_logs(scores[(slice(None),) * (len(shape) - 1) + (0,)])
    logmag, parity, tied = ad.gap_logs(scores)
    return SignedLog(np.where(tied, 0, parity), ad.where(tied, BIG_NEG, logmag))


def _bare_score_logs(s) -> SignedLog:
    sv = ad.detach(s)
    zero = sv == 0.0
    safe = ad.where(zero, 1.0, ad.absolute(s))
    logmag = ad.where(zero, BIG_NEG, ad.log(safe))
    return SignedLog(_sign(sv), logmag)


def _sign(v: np.ndarray) -> np.ndarray:
    # np.sign as int64; a NaN gets 0, where a cast of np.sign's NaN would warn
    return (v > 0).astype(np.int64) - (v < 0)


def vandermonde_logs(scores: np.ndarray) -> SignedLog:
    """Signed log of prod_{i<j}(s_j - s_i), the determinant baseline.

    Plain ndarrays only; the N(N-1)/2 pair differences in np.triu_indices order.
    """
    scores = np.asarray(scores, dtype=np.float64)
    i, j = np.triu_indices(scores.shape[-1], 1)
    diff = scores[..., j] - scores[..., i]
    tied = np.any(diff == 0.0, axis=-1)
    with np.errstate(divide="ignore"):
        logmag = ad.sum(np.log(np.abs(diff)), axis=-1)
    return SignedLog(np.where(tied, 0, score_parity(scores).astype(np.int64)),
                     np.where(tied, BIG_NEG, logmag))


def pair_log_factor(system: SystemSpec, dist, b):
    """Symmetric log pair factor J(r) of the exact pair lengths dist (B, P)
    over system.pairs (backbone.electron_geometry).

    J = sum_{i<j par} -(1/4) b1/(b1^2 + r_ij) + sum_{i<j anti} -(1/2) b2/(b2^2 + r_ij)
    with b = softplus(pair.beta) (SortletWavefunction.bind) so the
    strengths stay positive unconstrained.
    """
    if system.n_electrons < 2:
        # no pairs: J is identically zero, with zero parameter gradient
        return np.zeros(ad.detach(dist).shape[0])
    same = system.pairs[2]
    b1, b2 = b[0], b[1]
    par = b1 / (ad.square(b1) + dist)
    anti = b2 / (ad.square(b2) + dist)
    terms = par * (-0.25 * same) + anti * (-0.5 * (1.0 - same))
    return ad.sum(terms, axis=-1)


def envelope_distance_sum(dist):
    """sum_j min_I |r_j - R_I|, shape (B,), of the exact electron-nucleus
    lengths dist (B, N, I) (backbone.electron_geometry), for the cusp."""
    b, n = ad.detach(dist).shape[:2]
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
    mantissa = ad.exp(logmags - m, overwrite=True)
    mantissa *= signs.astype(np.float64)
    total = ad.sum(mantissa * weights, axis=-1)  # weights may be a Var beside plain logmags
    tv = ad.detach(total)
    dead = tv == 0.0
    shifted = ad.log(ad.where(dead, 1.0, ad.absolute(total)), overwrite=True)
    shifted += m[..., 0]
    logmag = ad.where(dead, BIG_NEG, shifted)
    return SignedLog(_sign(tv), logmag)


class SortletWavefunction:
    """System-bound ansatz: scores -> sorted-gap heads -> mixed signed log.

    Parameters travel as one flat vector θ: a plain ndarray (sampling), a
    Var of it (parameter gradients), or bind(θ) to derive what depends on θ
    alone once for many calls; ad.seed_positions gives the local energy.
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

    def bind(self, theta) -> dict:
        """θ's tensors (ParamStore.unpack), each layer's folded (QK, VO, bo)
        in "attention" (see backbone), "pair.b" and "env.k", the softplus
        of pair.beta and env.rate; every entry keeps θ's engine."""
        params = self.store.unpack(theta)
        scale = 1.0 / np.sqrt(self.hidden)
        params["attention"] = tuple(
            (ad.einsum("hg,kg->hk", params[f"att{i}.wq"], params[f"att{i}.wk"]) * scale,
             ad.einsum("hg,gk->hk", params[f"att{i}.wv"], params[f"att{i}.wo"]),
             params[f"att{i}.bo"]) for i in range(self.layers))
        params["pair.b"] = ad.softplus(params["pair.beta"])
        params["env.k"] = ad.softplus(params["env.rate"])
        return params

    def signed_log(self, theta, positions) -> SignedLog:
        """Signed log of Psi for a batch: positions (B, N, 3) -> (B,).

        theta is a flat vector, bound on entry, or bind's dict. Walkers are
        evaluated in canonical electron order, so the bits do not depend on a
        same-spin relabelling or on memory layout; the order's parity restores
        the sign of the caller's labelling. A batch already in that order
        (local_energy seeds its dual lanes so) is not gathered, in any engine.
        """
        shape = ad.detach(positions).shape
        if len(shape) != 3 or shape[1:] != (self.system.n_electrons, 3):
            raise ValueError(f"positions must be (B, {self.system.n_electrons}, 3), got {shape}")
        positions, parity = canonical_positions(self.system.sectors, positions)
        params = theta if isinstance(theta, dict) else self.bind(theta)
        geom, en_exact, ee_exact = backbone.electron_geometry(self.system, positions)
        reach = envelope_distance_sum(en_exact)  # (B,)
        j = pair_log_factor(self.system, ee_exact, params["pair.b"])
        del en_exact, ee_exact  # their tangents would stay live through the attention layers
        core = sortlet_logs(backbone.scores(self.system, params, geom))
        env = ad.einsum("b,k->bk", -reach, params["env.k"])
        mixed = mix_signed_logs(core.sign, core.logmag + env, params["mix.w"])
        return SignedLog(mixed.sign * parity, mixed.logmag + j)
