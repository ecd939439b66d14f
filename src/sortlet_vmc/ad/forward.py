"""Forward-mode duals carrying first and diagonal second derivatives.

A Dual wraps a value of shape S together with tan and curv of shape S + (T,),
one trailing lane per seed direction. curv tracks d^2/d eps_t^2 along each
seed separately (no mixed terms), which is all a Laplacian needs when the
seeds are the coordinate axes: one pass gives grad and sum-of-curv.

Constants stay plain ndarrays; binary ops lift them with zero derivatives.
"""

from __future__ import annotations

import numpy as np

from .contract import contract, parse_spec


def _bt(t: np.ndarray, shape: tuple) -> np.ndarray:
    # broadcast a derivative block to match a (possibly grown) value shape
    want = shape + t.shape[-1:]
    return t if t.shape == want else np.broadcast_to(t, want)


class Dual:
    __slots__ = ("val", "tan", "curv")
    __array_ufunc__ = None  # make ndarray <op> Dual defer to our reflected ops

    def __init__(self, val, tan, curv):
        self.val = np.asarray(val, dtype=np.float64)
        self.tan = np.asarray(tan, dtype=np.float64)
        self.curv = np.asarray(curv, dtype=np.float64)

    @property
    def shape(self):
        return self.val.shape

    @property
    def n_seeds(self) -> int:
        return self.tan.shape[-1]

    def __repr__(self):
        return f"Dual(shape={self.val.shape}, seeds={self.n_seeds})"

    def __array__(self, dtype=None):
        raise TypeError("Dual does not convert to ndarray implicitly; use .val")

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Dual):
            v = self.val + other.val
            return Dual(v, _bt(self.tan, v.shape) + _bt(other.tan, v.shape),
                        _bt(self.curv, v.shape) + _bt(other.curv, v.shape))
        v = self.val + other
        return Dual(v, _bt(self.tan, v.shape), _bt(self.curv, v.shape))

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, -self.tan, -self.curv)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Dual) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Dual):
            v = self.val * other.val
            xt = _bt(self.tan, v.shape)
            yt = _bt(other.tan, v.shape)
            tan = xt * other.val[..., None] + self.val[..., None] * yt
            curv = (_bt(self.curv, v.shape) * other.val[..., None]
                    + 2.0 * xt * yt
                    + self.val[..., None] * _bt(other.curv, v.shape))
            return Dual(v, tan, curv)
        c = np.asarray(other, dtype=np.float64)
        v = self.val * c
        return Dual(v, _bt(self.tan, v.shape) * c[..., None],
                    _bt(self.curv, v.shape) * c[..., None])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            # from u = w v: w' = (u' - w v') / v, w'' = (u'' - 2 w' v' - w v'') / v
            w = self.val / other.val
            yv = other.val[..., None]
            yt = _bt(other.tan, w.shape)
            wt = (_bt(self.tan, w.shape) - w[..., None] * yt) / yv
            wc = (_bt(self.curv, w.shape) - 2.0 * wt * yt
                  - w[..., None] * _bt(other.curv, w.shape)) / yv
            return Dual(w, wt, wc)
        return self * (1.0 / np.asarray(other, dtype=np.float64))

    def __rtruediv__(self, other):
        v = self.val
        w = np.asarray(other, dtype=np.float64) / v
        # d(c/v) = -c v'/v^2 ; d2 = c (2 v'^2 / v^3 - v''/v^2)
        tan = -w[..., None] * _bt(self.tan, w.shape) / v[..., None]
        curv = (2.0 * w[..., None] * (_bt(self.tan, w.shape) / v[..., None]) ** 2
                - w[..., None] * _bt(self.curv, w.shape) / v[..., None])
        return Dual(w, tan, curv)

    def __getitem__(self, idx):
        if not isinstance(idx, tuple):
            idx = (idx,)
        if any(ix is Ellipsis for ix in idx):
            raise IndexError("Ellipsis indexing is not supported on Dual")
        return Dual(self.val[idx], self.tan[idx], self.curv[idx])


def seed_positions(r: np.ndarray) -> Dual:
    """Wrap walker positions (..., N, 3) with one seed per coordinate.

    Returns a Dual whose 3N seed lanes are the coordinate directions, so a
    scalar function of it yields grad in .tan and per-axis curvature in .curv.
    """
    r = np.asarray(r, dtype=np.float64)
    n, d = r.shape[-2], r.shape[-1]
    t = n * d
    eye = np.eye(t).reshape(n, d, t)
    tan = np.broadcast_to(eye, r.shape + (t,)).copy()
    return Dual(r, tan, np.zeros(r.shape + (t,)))


def _unary(x: Dual, v, d1, d2) -> Dual:
    tan = d1[..., None] * x.tan
    curv = d2[..., None] * x.tan ** 2 + d1[..., None] * x.curv
    return Dual(v, tan, curv)


def exp(x: Dual) -> Dual:
    e = np.exp(x.val)
    return _unary(x, e, e, e)


def log(x: Dual) -> Dual:
    inv = 1.0 / x.val
    return _unary(x, np.log(x.val), inv, -inv * inv)


def log1p(x: Dual) -> Dual:
    inv = 1.0 / (1.0 + x.val)
    return _unary(x, np.log1p(x.val), inv, -inv * inv)


def sqrt(x: Dual) -> Dual:
    s = np.sqrt(x.val)
    d1 = 0.5 / s
    return _unary(x, s, d1, -0.25 / (s * x.val))


def tanh(x: Dual) -> Dual:
    th = np.tanh(x.val)
    sech2 = 1.0 - th * th
    return _unary(x, th, sech2, -2.0 * th * sech2)


def square(x: Dual) -> Dual:
    return _unary(x, x.val * x.val, 2.0 * x.val, np.full_like(x.val, 2.0))


def softplus(x: Dual) -> Dual:
    sig = 0.5 * (1.0 + np.tanh(0.5 * x.val))
    return _unary(x, np.logaddexp(0.0, x.val), sig, sig * (1.0 - sig))


def absolute(x: Dual) -> Dual:
    s = np.sign(x.val)
    return Dual(np.abs(x.val), s[..., None] * x.tan, s[..., None] * x.curv)


def where(mask, a, b) -> Dual:
    """Select a where mask else b; derivative lanes of the dropped branch are
    fully severed, so masked-out NaN/inf derivatives cannot leak through."""
    mask = np.asarray(mask, dtype=bool)
    av, at, ac = (a.val, a.tan, a.curv) if isinstance(a, Dual) else (np.asarray(a, dtype=np.float64), None, None)
    bv, bt, bc = (b.val, b.tan, b.curv) if isinstance(b, Dual) else (np.asarray(b, dtype=np.float64), None, None)
    v = np.where(mask, av, bv)
    t = at.shape[-1] if at is not None else bt.shape[-1]
    zero = np.zeros(v.shape + (t,))
    at = zero if at is None else _bt(at, v.shape)
    bt = zero if bt is None else _bt(bt, v.shape)
    ac = zero if ac is None else _bt(ac, v.shape)
    bc = zero if bc is None else _bt(bc, v.shape)
    m = mask[..., None] if mask.shape == v.shape else np.broadcast_to(mask, v.shape)[..., None]
    return Dual(v, np.where(m, at, bt), np.where(m, ac, bc))


def maximum(x, y) -> Dual:
    xv = x.val if isinstance(x, Dual) else np.asarray(x, dtype=np.float64)
    yv = y.val if isinstance(y, Dual) else np.asarray(y, dtype=np.float64)
    return where(xv >= yv, x, y)


def minimum(x, y) -> Dual:
    xv = x.val if isinstance(x, Dual) else np.asarray(x, dtype=np.float64)
    yv = y.val if isinstance(y, Dual) else np.asarray(y, dtype=np.float64)
    return where(xv <= yv, x, y)


def _norm_axis(axis, ndim):
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def sum(x: Dual, axis) -> Dual:  # noqa: A001 - mirrors the numpy name
    axis = _norm_axis(axis, x.val.ndim)
    return Dual(np.sum(x.val, axis=axis), np.sum(x.tan, axis=axis),
                np.sum(x.curv, axis=axis))


def symsum(x: Dual, axis: int) -> Dual:
    """Sum along axis in value-sorted order.

    Any permutation of the slices along axis feeds the accumulator the same
    sequence, so the result (value and derivatives) is bit-for-bit identical
    across permutations. Ties fall back to original order.
    """
    axis = axis % x.val.ndim
    order = np.argsort(x.val, axis=axis, kind="stable")
    return Dual(np.sum(np.take_along_axis(x.val, order, axis=axis), axis=axis),
                np.sum(np.take_along_axis(x.tan, order[..., None], axis=axis), axis=axis),
                np.sum(np.take_along_axis(x.curv, order[..., None], axis=axis), axis=axis))


def symsum_abs(x: Dual, axis: int) -> Dual:
    """Sum along axis in |value|-sorted order. Negating every slice negates
    the result bit-for-bit, since the accumulation order is unchanged."""
    axis = axis % x.val.ndim
    order = np.argsort(np.abs(x.val), axis=axis, kind="stable")
    return Dual(np.sum(np.take_along_axis(x.val, order, axis=axis), axis=axis),
                np.sum(np.take_along_axis(x.tan, order[..., None], axis=axis), axis=axis),
                np.sum(np.take_along_axis(x.curv, order[..., None], axis=axis), axis=axis))


def take_along(x: Dual, idx: np.ndarray, axis: int) -> Dual:
    axis = axis % x.val.ndim
    return Dual(np.take_along_axis(x.val, idx, axis=axis),
                np.take_along_axis(x.tan, idx[..., None], axis=axis),
                np.take_along_axis(x.curv, idx[..., None], axis=axis))


def reshape(x: Dual, shape) -> Dual:
    shape = tuple(shape)
    t = (x.n_seeds,)
    return Dual(x.val.reshape(shape), np.ascontiguousarray(x.tan).reshape(shape + t),
                np.ascontiguousarray(x.curv).reshape(shape + t))


def moveaxis(x: Dual, src: int, dst: int) -> Dual:
    src = src % x.val.ndim
    dst = dst % x.val.ndim
    return Dual(np.moveaxis(x.val, src, dst), np.moveaxis(x.tan, src, dst),
                np.moveaxis(x.curv, src, dst))


def _lift(x, t, shape=None) -> Dual:
    if isinstance(x, Dual):
        return x
    v = np.asarray(x, dtype=np.float64)
    if shape is not None:
        v = np.broadcast_to(v, shape)
    return Dual(v, np.zeros(v.shape + (t,)), np.zeros(v.shape + (t,)))


def _seed_count(xs):
    for x in xs:
        if isinstance(x, Dual):
            return x.n_seeds
    raise TypeError("need at least one Dual")


def concat(xs, axis: int) -> Dual:
    t = _seed_count(xs)
    xs = [_lift(x, t) for x in xs]
    axis = axis % xs[0].val.ndim
    return Dual(np.concatenate([x.val for x in xs], axis=axis),
                np.concatenate([x.tan for x in xs], axis=axis),
                np.concatenate([x.curv for x in xs], axis=axis))


def stack(xs, axis: int) -> Dual:
    t = _seed_count(xs)
    shape = np.broadcast_shapes(*[np.shape(x.val if isinstance(x, Dual) else x) for x in xs])
    xs = [_lift(x, t, shape) for x in xs]
    axis = axis % (xs[0].val.ndim + 1)
    return Dual(np.stack([x.val for x in xs], axis=axis),
                np.stack([_bt(x.tan, shape) for x in xs], axis=axis),
                np.stack([_bt(x.curv, shape) for x in xs], axis=axis))


def einsum(spec: str, a, b) -> Dual:
    """Two-operand contraction with the product rule on both sides.

    The value, the tan and curv terms of each Dual operand and the
    2 tan_a tan_b cross term are each one stacked matmul through
    `contract`, with the seed lane as the matrix column index. Its
    determinism contract makes every lane of a walker bitwise independent
    of batch size, position in the batch, memory layout and BLAS threads.
    """
    a_sub, b_sub, out = parse_spec(spec)
    av = a.val if isinstance(a, Dual) else np.asarray(a, dtype=np.float64)
    bv = b.val if isinstance(b, Dual) else np.asarray(b, dtype=np.float64)
    val = contract(a_sub, b_sub, out, av, bv)
    at, bt, ot = a_sub + "t", b_sub + "t", out + "t"
    tan = curv = None
    if isinstance(a, Dual):
        tan = contract(at, b_sub, ot, a.tan, bv)
        curv = contract(at, b_sub, ot, a.curv, bv)
    if isinstance(b, Dual):
        tan_b = contract(a_sub, bt, ot, av, b.tan)
        curv_b = contract(a_sub, bt, ot, av, b.curv)
        if tan is None:
            tan, curv = tan_b, curv_b
        else:
            tan = tan + tan_b
            curv = curv + curv_b + 2.0 * contract(at, bt, ot, a.tan, b.tan)
    return Dual(val, tan, curv)
