"""Reverse-mode autodiff over a recorded tape.

A GradientTape owns the graph; leaves are created with tape.leaf(value) and
every op on a Var appends one node. tape.gradient(out, leaf, seed) replays
the recorded nodes in fixed reverse order with plain-ndarray accumulation,
so repeated calls on the same tape are bit-for-bit identical. Passing a seed
vector computes the derivative of sum(seed * out) in a single sweep, which
is how a weighted batch of per-walker log-magnitudes turns into one pass.
"""

from __future__ import annotations

import numpy as np

from .contract import contract, parse_spec


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


class GradientTape:
    def __init__(self):
        self._nodes = []  # (out_id, [(parent_id, parent_shape, vjp)]) in creation order
        self._next_id = 0

    def _new_id(self) -> int:
        nid = self._next_id
        self._next_id += 1
        return nid

    def leaf(self, val) -> "Var":
        return Var(np.asarray(val, dtype=np.float64), self, self._new_id())

    def _record(self, val: np.ndarray, parents) -> "Var":
        out = Var(val, self, self._new_id())
        self._nodes.append((out.nid, [(p.nid, p.val.shape, vjp) for p, vjp in parents]))
        return out

    def gradient(self, out: "Var", leaf: "Var", seed=None) -> np.ndarray:
        """d sum(seed * out) / d leaf. The tape stays intact, so calling this
        again (any out/leaf/seed) replays deterministically."""
        if out.tape is not self or leaf.tape is not self:
            raise ValueError("out and leaf must belong to this tape")
        if seed is None:
            seed = np.ones_like(out.val)
        adj = {out.nid: np.broadcast_to(np.asarray(seed, dtype=np.float64),
                                        out.val.shape).astype(np.float64)}
        for oid, parents in reversed(self._nodes):
            g = adj.pop(oid, None)
            if g is None:
                continue
            for pid, pshape, vjp in parents:
                c = _unbroadcast(vjp(g), pshape)
                adj[pid] = adj[pid] + c if pid in adj else c
        got = adj.get(leaf.nid)
        return np.zeros_like(leaf.val) if got is None else got


class Var:
    __slots__ = ("val", "tape", "nid")
    __array_ufunc__ = None  # make ndarray <op> Var defer to our reflected ops

    def __init__(self, val: np.ndarray, tape: GradientTape, nid: int):
        self.val = np.asarray(val, dtype=np.float64)
        self.tape = tape
        self.nid = nid

    @property
    def shape(self):
        return self.val.shape

    def __repr__(self):
        return f"Var(shape={self.val.shape}, id={self.nid})"

    def __array__(self, dtype=None):
        raise TypeError("Var does not convert to ndarray implicitly; use .val")

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Var):
            return self.tape._record(self.val + other.val,
                                     [(self, lambda g: g), (other, lambda g: g)])
        c = np.asarray(other, dtype=np.float64)
        return self.tape._record(self.val + c, [(self, lambda g: g)])

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Var):
            return self.tape._record(self.val - other.val,
                                     [(self, lambda g: g), (other, lambda g: -g)])
        return self + (-np.asarray(other))

    def __mul__(self, other):
        if isinstance(other, Var):
            xv, yv = self.val, other.val
            return self.tape._record(xv * yv,
                                     [(self, lambda g: g * yv), (other, lambda g: g * xv)])
        c = np.asarray(other, dtype=np.float64)
        return self.tape._record(self.val * c, [(self, lambda g: g * c)])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Var):
            xv, yv = self.val, other.val
            w = xv / yv
            return self.tape._record(w, [(self, lambda g: g / yv),
                                         (other, lambda g: -g * w / yv)])
        return self * (1.0 / np.asarray(other, dtype=np.float64))

    def __rtruediv__(self, other):
        c = np.asarray(other, dtype=np.float64)
        v = self.val
        w = c / v
        return self.tape._record(w, [(self, lambda g: -g * w / v)])

    def __getitem__(self, idx):
        """Basic indexing only: integers, slices and None."""
        if not isinstance(idx, tuple):
            idx = (idx,)
        if any(ix is Ellipsis or isinstance(ix, (list, tuple, np.ndarray)) for ix in idx):
            raise IndexError("Var takes basic indices only; gather with ad.take_along")
        shape = self.val.shape

        def vjp(g):
            # a basic index reaches each entry at most once, so an in-place
            # add gives np.add.at's bits
            z = np.zeros(shape)
            z[idx] += g
            return z

        return self.tape._record(self.val[idx], [(self, vjp)])


def elementwise(f, d1):
    """The Var op of an elementwise f with f' = d1(x, y) at y = f(x)."""
    def op(x: Var) -> Var:
        y = f(x.val)
        d = d1(x.val, y)
        return x.tape._record(y, [(x, lambda g: g * d)])
    return op


def softmax(x: Var, y: np.ndarray) -> Var:
    """Softmax over the last axis given its value y: g_x = y (g - sum_k g_k y_k)."""
    return x.tape._record(y, [(x, lambda g: y * (g - np.sum(g * y, axis=-1, keepdims=True)))])


def where(mask, a, b) -> Var:
    mask = np.asarray(mask, dtype=bool)
    av = a.val if isinstance(a, Var) else np.asarray(a, dtype=np.float64)
    bv = b.val if isinstance(b, Var) else np.asarray(b, dtype=np.float64)
    val = np.where(mask, av, bv)
    parents = []
    if isinstance(a, Var):
        parents.append((a, lambda g: np.where(mask, g, 0.0)))
    if isinstance(b, Var):
        parents.append((b, lambda g: np.where(mask, 0.0, g)))
    tape = (a if isinstance(a, Var) else b).tape
    return tape._record(val, parents)


def sum(x: Var, axis, y: np.ndarray) -> Var:  # noqa: A001 - mirrors the numpy name
    """x summed over axis given its value y."""
    shape = x.val.shape
    return x.tape._record(y, [(x, lambda g: np.broadcast_to(np.expand_dims(g, axis), shape))])


def take(x: Var, flat: np.ndarray) -> Var:
    """Gather the values at C-order positions `flat`; the VJP sums g into
    them in C order of the gathered shape, one bincount."""
    shape, size = x.val.shape, x.val.size

    def vjp(g):
        return np.bincount(flat.ravel(), weights=np.ravel(g), minlength=size).reshape(shape)

    return x.tape._record(x.val.ravel()[flat], [(x, vjp)])


def gap_logs(x: Var, index: np.ndarray, gaps: np.ndarray, zero: np.ndarray,
             y: np.ndarray) -> Var:
    """ad.gap_logs given its value y, as one node (forward.gap_log_lanes
    names the arguments). The VJP gives each gap g / gap, 0 where zero.
    Each rank sums the two gap ends it is in the order the composed ops'
    tape summed them: rank 0 the wrap gap's then its own gap's, an inner
    rank r its own then gap r - 1's, rank N - 1 the wrap gap's then gap
    N - 2's. One bincount scatters the ranks back by index, adding each
    into 0.0 as the tape's scatters into zeros did."""
    shape, size = x.val.shape, x.val.size

    def vjp(g):
        h = np.where(zero, 0.0, g * (1.0 / gaps))
        first, then = -h, np.empty_like(h)
        first[0], first[-1] = -h[-1], h[-1]
        then[0], then[1:] = -h[0], h[:-1]
        first += then
        return np.bincount(index.ravel(), weights=first.ravel(), minlength=size).reshape(shape)

    return x.tape._record(y, [(x, vjp)])


def reshape(x: Var, shape) -> Var:
    shape = tuple(shape)
    old = x.val.shape
    return x.tape._record(x.val.reshape(shape), [(x, lambda g: g.reshape(old))])


def moveaxis(x: Var, src: int, dst: int) -> Var:
    src = src % x.val.ndim
    dst = dst % x.val.ndim
    return x.tape._record(np.moveaxis(x.val, src, dst),
                          [(x, lambda g: np.moveaxis(g, dst, src))])


def einsum(spec: str, a, b) -> Var:
    a_sub, b_sub, out = parse_spec(spec)
    av = a.val if isinstance(a, Var) else np.asarray(a, dtype=np.float64)
    bv = b.val if isinstance(b, Var) else np.asarray(b, dtype=np.float64)
    parents = []
    if isinstance(a, Var):
        parents.append((a, lambda g: contract(out, b_sub, a_sub, g, bv)))
    if isinstance(b, Var):
        parents.append((b, lambda g: contract(a_sub, out, b_sub, av, g)))
    tape = (a if isinstance(a, Var) else b).tape
    return tape._record(contract(a_sub, b_sub, out, av, bv), parents)
