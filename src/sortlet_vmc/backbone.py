"""Permutation-equivariant score network.

Maps electron positions (B, N, 3) to per-sortlet scores (B, K, N). Every
stage treats electrons symmetrically: per-electron features, then attention
layers whose only cross-electron mixing goes through sums over electrons.
Relabeling the same-spin electrons of the input relabels the output scores
up to rounding, since those sums run in the input's electron order. Exact
invariance comes from the caller: `SortletWavefunction.signed_log` puts
every walker's electrons in one canonical order before calling in.

Each attention layer folds its four projections in pairs on the
parameter side, once per call and with no walker axis:

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

    def matches(self, layout: dict) -> bool:
        return layout == self.layout()

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
    """Fan-in scaled weights; scores head small and biased apart so the
    sortlets start distinct; envelope rate 2, pair strength 1, mixing 1."""
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


def featurize(system: SystemSpec, positions):
    """Electron features (B, N, F); equivariant row-for-row under relabeling."""
    n = system.n_electrons
    spins = system.spins.astype(np.float64)
    nuc = system.nuclei_positions  # (I, 3)
    parts = []
    for i in range(system.n_nuclei):
        delta = positions - nuc[i]
        parts.append(delta)
        parts.append(ad.reshape(ad.norm(delta, FEATURE_EPS), ad.detach(delta).shape[:-1] + (1,)))
    b = ad.detach(positions).shape[0]
    spin_col = np.broadcast_to(spins[None, :, None], (b, n, 1))
    parts.append(spin_col)

    # pooled pair features: mean displacement and mean softened distance to
    # the same-spin and opposite-spin partners of each electron. By
    # linearity sum_m mask_nm (r_n - r_m) = cnt_n r_n - (mask r)_n, so the
    # displacement is one (N x N) matrix applied to each walker's positions.
    pos_i = ad.reshape(positions, (b, n, 1, 3))
    pos_j = ad.reshape(positions, (b, 1, n, 3))
    dist = ad.norm(pos_i - pos_j, FEATURE_EPS)  # (B, N, N)
    same = (spins[:, None] == spins[None, :]) & ~np.eye(n, dtype=bool)
    opp = spins[:, None] != spins[None, :]
    for mask in (same, opp):
        cnt = mask.sum(axis=1)
        count = np.maximum(cnt, 1).astype(np.float64)[:, None]  # (N, 1)
        pool = (np.diag(cnt) - mask) / count
        parts.append(ad.einsum("nm,bmc->bnc", pool, positions))
        parts.append(ad.reshape(ad.einsum("bnm,nm->bn", dist, mask / count), (b, n, 1)))
    return ad.concat(parts, axis=-1)


def _affine(x, w, b):
    return ad.einsum("bnf,fh->bnh", x, w) + b


def scores(system: SystemSpec, params: dict, positions, hidden: int = DEFAULT_HIDDEN,
           layers: int = DEFAULT_LAYERS):
    """Per-sortlet electron scores (B, K, N)."""
    h = ad.tanh(_affine(featurize(system, positions), params["feat.w"], params["feat.b"]))
    scale = 1.0 / np.sqrt(hidden)
    for layer in range(layers):
        att = f"att{layer}."
        # folded on the parameter side, see the module docstring
        qk = ad.einsum("hg,kg->hk", params[att + "wq"], params[att + "wk"]) * scale
        vo = ad.einsum("hg,gk->hk", params[att + "wv"], params[att + "wo"])
        logits = ad.einsum("bnk,bmk->bnm", ad.einsum("bnh,hk->bnk", h, qk), h)
        attn = ad.softmax(logits)  # (B, N, M)
        update = ad.einsum("bnm,bmk->bnk", attn, ad.einsum("bnh,hk->bnk", h, vo))
        h = ad.tanh(h + (update + params[att + "bo"]))
    raw = _affine(h, params["out.w"], params["out.b"])  # (B, N, K)
    return ad.moveaxis(raw, -1, -2)
