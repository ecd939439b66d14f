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

    def __neg__(self):
        return self.tape._record(-self.val, [(self, lambda g: -g)])

    def __sub__(self, other):
        if isinstance(other, Var):
            return self.tape._record(self.val - other.val,
                                     [(self, lambda g: g), (other, lambda g: -g)])
        return self + (-np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

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

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise TypeError("only plain-number exponents are supported")
        v = self.val
        d1 = p * v ** (p - 1)
        return self.tape._record(v ** p, [(self, lambda g: g * d1)])

    def __getitem__(self, idx):
        if not isinstance(idx, tuple):
            idx = (idx,)
        if any(ix is Ellipsis for ix in idx):
            raise IndexError("Ellipsis indexing is not supported on Var")
        shape = self.val.shape

        def vjp(g):
            z = np.zeros(shape)
            np.add.at(z, idx, g)
            return z

        return self.tape._record(self.val[idx], [(self, vjp)])


def _unary(x: Var, val: np.ndarray, d1: np.ndarray) -> Var:
    return x.tape._record(val, [(x, lambda g: g * d1)])


def exp(x: Var) -> Var:
    e = np.exp(x.val)
    return _unary(x, e, e)


def log(x: Var) -> Var:
    return _unary(x, np.log(x.val), 1.0 / x.val)


def log1p(x: Var) -> Var:
    return _unary(x, np.log1p(x.val), 1.0 / (1.0 + x.val))


def sqrt(x: Var) -> Var:
    s = np.sqrt(x.val)
    return _unary(x, s, 0.5 / s)


def tanh(x: Var) -> Var:
    th = np.tanh(x.val)
    return _unary(x, th, 1.0 - th * th)


def square(x: Var) -> Var:
    return _unary(x, x.val * x.val, 2.0 * x.val)


def softplus(x: Var) -> Var:
    return _unary(x, np.logaddexp(0.0, x.val), 0.5 * (1.0 + np.tanh(0.5 * x.val)))


def absolute(x: Var) -> Var:
    s = np.sign(x.val)
    return _unary(x, np.abs(x.val), s)


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


def maximum(x, y) -> Var:
    xv = x.val if isinstance(x, Var) else np.asarray(x, dtype=np.float64)
    yv = y.val if isinstance(y, Var) else np.asarray(y, dtype=np.float64)
    return where(xv >= yv, x, y)


def minimum(x, y) -> Var:
    xv = x.val if isinstance(x, Var) else np.asarray(x, dtype=np.float64)
    yv = y.val if isinstance(y, Var) else np.asarray(y, dtype=np.float64)
    return where(xv <= yv, x, y)


def _norm_axis(axis, ndim):
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def _sum_vjp(shape, axes):
    def vjp(g):
        for a in sorted(axes):
            g = np.expand_dims(g, a)
        return np.broadcast_to(g, shape)
    return vjp


def sum(x: Var, axis) -> Var:  # noqa: A001 - mirrors the numpy name
    axes = _norm_axis(axis, x.val.ndim)
    return x.tape._record(np.sum(x.val, axis=axes), [(x, _sum_vjp(x.val.shape, axes))])


def symsum(x: Var, axis: int) -> Var:
    """Sum along axis in value-sorted order; the adjoint is the same as a
    plain sum because the total is order-independent in exact arithmetic."""
    axis = axis % x.val.ndim
    order = np.argsort(x.val, axis=axis, kind="stable")
    val = np.sum(np.take_along_axis(x.val, order, axis=axis), axis=axis)
    return x.tape._record(val, [(x, _sum_vjp(x.val.shape, (axis,)))])


def symsum_abs(x: Var, axis: int) -> Var:
    """Sum along axis in |value|-sorted order; adjoint as for a plain sum."""
    axis = axis % x.val.ndim
    order = np.argsort(np.abs(x.val), axis=axis, kind="stable")
    val = np.sum(np.take_along_axis(x.val, order, axis=axis), axis=axis)
    return x.tape._record(val, [(x, _sum_vjp(x.val.shape, (axis,)))])


def take_along(x: Var, idx: np.ndarray, axis: int) -> Var:
    axis = axis % x.val.ndim
    if idx.shape != x.val.shape and idx.shape[axis] != x.val.shape[axis]:
        pass  # gather fewer/more slices than present is fine; scatter uses idx's grid
    shape = x.val.shape

    def vjp(g):
        z = np.zeros(shape)
        ix = list(np.indices(idx.shape, sparse=True))
        ix[axis] = idx
        np.add.at(z, tuple(ix), g)
        return z

    return x.tape._record(np.take_along_axis(x.val, idx, axis=axis), [(x, vjp)])


def reshape(x: Var, shape) -> Var:
    shape = tuple(shape)
    old = x.val.shape
    return x.tape._record(x.val.reshape(shape), [(x, lambda g: g.reshape(old))])


def moveaxis(x: Var, src: int, dst: int) -> Var:
    src = src % x.val.ndim
    dst = dst % x.val.ndim
    return x.tape._record(np.moveaxis(x.val, src, dst),
                          [(x, lambda g: np.moveaxis(g, dst, src))])


def concat(xs, axis: int) -> Var:
    tape = next(x.tape for x in xs if isinstance(x, Var))
    vals = [x.val if isinstance(x, Var) else np.asarray(x, dtype=np.float64) for x in xs]
    axis = axis % vals[0].ndim
    sizes = [v.shape[axis] for v in vals]
    offsets = np.cumsum([0] + sizes)
    parents = []
    for i, x in enumerate(xs):
        if isinstance(x, Var):
            lo, hi = offsets[i], offsets[i + 1]
            sl = tuple(slice(None) for _ in range(axis)) + (slice(lo, hi),)
            parents.append((x, lambda g, sl=sl: g[sl]))
    return tape._record(np.concatenate(vals, axis=axis), parents)


def stack(xs, axis: int) -> Var:
    tape = next(x.tape for x in xs if isinstance(x, Var))
    shape = np.broadcast_shapes(*[np.shape(x.val if isinstance(x, Var) else x) for x in xs])
    vals = [np.broadcast_to(x.val if isinstance(x, Var) else np.asarray(x, dtype=np.float64), shape)
            for x in xs]
    out = np.stack(vals, axis=axis)
    axis = axis % out.ndim
    parents = []
    for i, x in enumerate(xs):
        if isinstance(x, Var):
            sl = tuple(slice(None) for _ in range(axis)) + (i,)
            parents.append((x, lambda g, sl=sl: g[sl]))
    return tape._record(out, parents)


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
