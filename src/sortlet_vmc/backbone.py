"""Permutation-equivariant score network.

Maps electron positions (B, N, 3) to per-sortlet scores (B, K, N). Every
stage treats electrons symmetrically: per-electron features, then attention
layers whose only cross-electron mixing goes through sums over electrons.
Relabeling the same-spin electrons of the input relabels the output scores
up to rounding, since those sums run in the input's electron order. Exact
invariance comes from the caller: `SortletWavefunction.signed_log` puts
every walker's electrons in one canonical order before calling in.

The network reads `electron_geometry`, which builds a pass's displacements
and lengths once for the features, envelope, pair factor and potentials.

Each attention layer folds its four projections in pairs on the
parameter side, once per bind (SortletWavefunction.bind) and with no
walker axis:

    logits = (h Wq)(h Wk)^T / sqrt(H) = (h QK) h^T,   QK = Wq Wk^T / sqrt(H)
    update = attn (h Wv) Wo + bo      = attn (h VO) + bo,  VO = Wv Wo

so the walkers see two projections per layer instead of four and no
1/sqrt(H) pass over the logits; the softmax is one fused op. Both folds
are exact algebra, so the stored parameters (Wq, Wk, Wv, Wo) and their
layout are those of the unfolded network, whose scores agree to rounding.

Parameters live in one flat vector managed by a ParamStore, so the
optimizer and checkpoints never deal with structure.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import ad
from .geometry import SystemSpec

# smoothing floor for distances fed to the network; real cusps are carried
# by the envelope and pair factor, which use exact distances
FEATURE_EPS = 1e-6

DEFAULT_SORTLETS = 16
MAX_SORTLETS = 32
DEFAULT_HIDDEN = 32
DEFAULT_LAYERS = 2


class ParamStore:
    """Named views into one flat parameter vector.

    The layout (ordering, names, shapes) is versioned so checkpoints can
    refuse vectors written by a different arrangement.
    """

    LAYOUT_VERSION = 1

    def __init__(self, entries):
        self._names = [name for name, _ in entries]
        self._shapes = {name: tuple(shape) for name, shape in entries}
        self._offsets = {}
        off = 0
        for name, shape in entries:
            size = int(np.prod(shape, dtype=np.int64)) if shape else 1
            self._offsets[name] = (off, off + size)
            off += size
        self.size = off

    @property
    def names(self):
        return list(self._names)

    def shape(self, name):
        return self._shapes[name]

    def layout(self) -> dict:
        return {"version": self.LAYOUT_VERSION,
                "entries": [[n, list(self._shapes[n])] for n in self._names]}

    def unpack(self, theta):
        """Split a flat vector (ndarray or reverse-mode Var) into named
        tensors; slices keep their engine type."""
        out = {}
        for name in self._names:
            lo, hi = self._offsets[name]
            shape = self._shapes[name]
            piece = theta[lo:hi] if not shape else ad.reshape(theta[lo:hi], shape)
            out[name] = piece
        return out

    def pack(self, tensors: dict) -> np.ndarray:
        flat = np.zeros(self.size)
        for name in self._names:
            lo, hi = self._offsets[name]
            flat[lo:hi] = np.asarray(tensors[name], dtype=np.float64).ravel()
        return flat


def feature_width(system: SystemSpec) -> int:
    # per nucleus: displacement (3) + softened distance (1); spin tag;
    # pooled same/opposite-spin displacement+distance means (4 each)
    return 4 * system.n_nuclei + 1 + 8


def build_param_store(system: SystemSpec, n_sortlets: int = DEFAULT_SORTLETS,
                      hidden: int = DEFAULT_HIDDEN, layers: int = DEFAULT_LAYERS) -> ParamStore:
    if not (1 <= n_sortlets <= MAX_SORTLETS):
        raise ValueError(f"n_sortlets must be in [1, {MAX_SORTLETS}]")
    f = feature_width(system)
    entries = [("feat.w", (f, hidden)), ("feat.b", (hidden,))]
    for layer in range(layers):
        for part in ("wq", "wk", "wv", "wo"):
            entries.append((f"att{layer}.{part}", (hidden, hidden)))
        entries.append((f"att{layer}.bo", (hidden,)))
    entries.append(("out.w", (hidden, n_sortlets)))
    entries.append(("out.b", (n_sortlets,)))
    entries.append(("pair.beta", (2,)))
    entries.append(("env.rate", (n_sortlets,)))
    entries.append(("mix.w", (n_sortlets,)))
    return ParamStore(entries)


def _raw_for_softplus(target: float) -> float:
    # inverse of softplus, so the constrained value starts at `target`
    return float(np.log(np.expm1(target)))


def init_params(store: ParamStore, seed: int = 0) -> np.ndarray:
    """Fan-in scaled weights, a small scores head, envelope rate 2, pair
    strength 1 and mixing 1.

    The heads start distinct through out.w. The linspace(-1, 1, K) bias
    out.b shifts every score of a head by one constant, which leaves every
    gap unchanged, so for N >= 2 electrons it changes no sortlet and gets
    no gradient; only single-electron systems (a bare score) depend on it."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for name in store.names:
        shape = store.shape(name)
        if name == "out.w":
            tensors[name] = rng.normal(size=shape) * (0.1 / np.sqrt(shape[0]))
        elif name == "out.b":
            k = shape[0]
            tensors[name] = np.linspace(-1.0, 1.0, k) if k > 1 else np.zeros(1)
        elif name == "pair.beta":
            tensors[name] = np.full(shape, _raw_for_softplus(1.0))
        elif name == "env.rate":
            tensors[name] = np.full(shape, _raw_for_softplus(2.0))
        elif name == "mix.w":
            tensors[name] = np.ones(shape)
        elif name.endswith(".b") or name.endswith(".bo"):
            tensors[name] = np.zeros(shape)
        else:
            tensors[name] = rng.normal(size=shape) / np.sqrt(shape[0])
    return store.pack(tensors)


class Geometry(NamedTuple):
    """What featurize reads of a pass's electron geometry, in the engine of
    its positions; lengths softened by FEATURE_EPS."""

    positions: object  # (B, N, 3)
    en: object  # (B, N, I, 3): r_n - R_i
    en_soft: object  # (B, N, I)
    ee_soft: object  # (B, P): over the pairs i < j of system.pairs


def electron_geometry(system: SystemSpec, positions) -> tuple:
    """(Geometry, en_exact (B, N, I), ee_exact (B, P)): every electron-nucleus
    and electron-pair displacement of a batch with a softened length for
    featurize and an exact one for the envelope, the pair factor and
    hamiltonian.electron_potentials, both from one sum of squares per block.
    Each pair is held once: r_m - r_n is exactly -(r_n - r_m)."""
    iu, ju, _ = system.pairs
    en = ad.displacements(positions, system.nuclei_positions)
    en_soft, en_exact = ad.norm(en, (FEATURE_EPS, 0.0))
    ee = ad.take(positions, iu, 1) - ad.take(positions, ju, 1)
    ee_soft, ee_exact = ad.norm(ee, (FEATURE_EPS, 0.0))
    return Geometry(positions, en, en_soft, ee_soft), en_exact, ee_exact


def featurize(system: SystemSpec, geom: Geometry):
    """Electron features (B, N, F); equivariant row-for-row under relabeling.

    Per nucleus, the displacement and its softened length; the spin tag;
    then the mean displacement and softened distance to the same-spin and
    to the opposite-spin partners. By linearity sum_m mask_nm (r_n - r_m) =
    cnt_n r_n - (mask r)_n, one (N x N) matrix per walker; the distances
    mirror the pair lengths, with the softening floor on the diagonal."""
    b, n, i = ad.detach(geom.en).shape[:3]
    # a group: each nucleus's displacement and length side by side
    parts = [[geom.en, ad.reshape(geom.en_soft, (b, n, i, 1))],
             np.broadcast_to(system.spins.astype(np.float64)[None, :, None], (b, n, 1))]
    floor = np.full((b, 1), np.sqrt(FEATURE_EPS * FEATURE_EPS))
    dist = ad.take(ad.concat([geom.ee_soft, floor], axis=-1), system.pair_slots, 1)  # (B, N, N)
    for pool, weights in system.partner_means:
        parts.append(ad.einsum("nm,bmc->bnc", pool, geom.positions))
        parts.append(ad.reshape(ad.einsum("bnm,nm->bn", dist, weights), (b, n, 1)))
    return ad.concat(parts, axis=-1)


def _affine(x, w, b):
    y = ad.einsum("bnf,fh->bnh", x, w)
    y += b  # in place into the product a plain einsum made; a new value in Dual and Var
    return y


def scores(system: SystemSpec, params: dict, geom: Geometry):
    """Per-sortlet electron scores (B, K, N) of a pass's geometry. params is
    SortletWavefunction.bind's dict; its "attention" entry gives the
    attention layers, each folded as (QK, VO, bo)."""
    h = ad.tanh(_affine(featurize(system, geom), params["feat.w"], params["feat.b"]),
                overwrite=True)
    for qk, vo, bo in params["attention"]:
        logits = ad.einsum("bnk,bmk->bnm", ad.einsum("bnh,hk->bnk", h, qk), h)
        attn = ad.softmax(logits)  # (B, N, M)
        update = ad.einsum("bnm,bmk->bnk", attn, ad.einsum("bnh,hk->bnk", h, vo))
        update += bo
        update += h  # the bits of h + (update + bo): IEEE addition commutes
        h = ad.tanh(update, overwrite=True)
    raw = _affine(h, params["out.w"], params["out.b"])  # (B, N, K)
    return ad.moveaxis(raw, -1, -2)
