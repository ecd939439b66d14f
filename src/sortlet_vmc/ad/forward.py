"""Forward-mode duals carrying first derivatives and the Laplacian.

A Dual wraps a value of shape S together with tan of shape S + (T,), one
trailing lane per seed direction, and curv of shape S: the sum over the
seeds of the second derivative along each seed. Seeded with the coordinate
axes (seed_positions), one pass gives the gradient in tan and the
Laplacian in curv. This is the forward Laplacian of Li et al., "A
computational framework for neural network-based VMC with Forward
Laplacian" (arXiv:2307.08214): per-seed curvatures are only ever summed,
so each op carries their sum instead of a lane per seed. The rules are

    unary f:  curv = f' curv_x + f'' sum_t tan_x^2
    product:  curv = curv_x y + 2 sum_t tan_x tan_y + x curv_y

and quotients follow from the product rule. Every lane sum (`_lane_dot`)
reduces a C-contiguous trailing lane axis, so its order is fixed by the
lane count alone and each entry's bits do not depend on the batch size,
the entry's position in it or the caller's memory layout.

Constants stay plain ndarrays; binary ops lift them with zero derivatives.
"""

from __future__ import annotations

import numpy as np

from .contract import contract, parse_spec


def _grow(a: np.ndarray, shape: tuple) -> np.ndarray:
    # broadcast a block to a (possibly grown) target shape
    return a if a.shape == shape else np.broadcast_to(a, shape)


def _bt(t: np.ndarray, shape: tuple) -> np.ndarray:
    # broadcast a tangent block to match a (possibly grown) value shape
    return _grow(t, shape + t.shape[-1:])


def _lane_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_t x_t y_t over the trailing lane axis, in an order fixed by T."""
    return np.einsum("...t,...t->...", np.ascontiguousarray(x), np.ascontiguousarray(y))


class Dual:
    __slots__ = ("val", "tan", "curv")
    __array_ufunc__ = None  # make ndarray <op> Dual defer to our reflected ops

    def __init__(self, val, tan, curv):
        self.val = np.asarray(val, dtype=np.float64)
        self.tan = np.asarray(tan, dtype=np.float64)
        self.curv = np.asarray(curv, dtype=np.float64)
        if self.curv.shape != self.val.shape:
            raise ValueError(f"curv holds one Laplacian per value: shape {self.curv.shape} "
                             f"!= value shape {self.val.shape}")

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
            return Dual(self.val + other.val, self.tan + other.tan, self.curv + other.curv)
        v = self.val + other
        return Dual(v, _bt(self.tan, v.shape), _grow(self.curv, v.shape))

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, -self.tan, -self.curv)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Dual) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Dual):
            tan = self.tan * other.val[..., None] + self.val[..., None] * other.tan
            curv = (self.curv * other.val + 2.0 * _lane_dot(self.tan, other.tan)
                    + self.val * other.curv)
            return Dual(self.val * other.val, tan, curv)
        c = np.asarray(other, dtype=np.float64)
        return Dual(self.val * c, self.tan * c[..., None], self.curv * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            # from u = w v: w' = (u' - w v') / v, lap w = (lap u - 2 w'.v' - w lap v) / v
            w = self.val / other.val
            wt = (self.tan - w[..., None] * other.tan) / other.val[..., None]
            wc = (self.curv - 2.0 * _lane_dot(wt, other.tan) - w * other.curv) / other.val
            return Dual(w, wt, wc)
        return self * (1.0 / np.asarray(other, dtype=np.float64))

    def __rtruediv__(self, other):
        # d(c/v) = -w v'/v with w = c/v; lap(c/v) = w (2 |v'/v|^2 - lap v / v)
        v = self.val
        w = np.asarray(other, dtype=np.float64) / v
        q = self.tan / v[..., None]
        return Dual(w, -w[..., None] * q, w * (2.0 * _lane_dot(q, q) - self.curv / v))

    def __getitem__(self, idx):
        if not isinstance(idx, tuple):
            idx = (idx,)
        if any(ix is Ellipsis for ix in idx):
            raise IndexError("Ellipsis indexing is not supported on Dual")
        return Dual(self.val[idx], self.tan[idx], self.curv[idx])


def seed_positions(r: np.ndarray) -> Dual:
    """Wrap walker positions (..., N, 3) with one seed per coordinate.

    Returns a Dual whose 3N seed lanes are the coordinate directions, so a
    scalar function of it yields grad in .tan and the Laplacian in .curv.
    """
    r = np.asarray(r, dtype=np.float64)
    n, d = r.shape[-2], r.shape[-1]
    t = n * d
    eye = np.eye(t).reshape(n, d, t)
    tan = np.broadcast_to(eye, r.shape + (t,)).copy()
    return Dual(r, tan, np.zeros(r.shape))


def _unary(x: Dual, v, d1, d2) -> Dual:
    return Dual(v, d1[..., None] * x.tan, d1 * x.curv + d2 * _lane_dot(x.tan, x.tan))


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
    return Dual(np.abs(x.val), s[..., None] * x.tan, s * x.curv)


def where(mask, a, b) -> Dual:
    """Select a where mask else b; derivatives of the dropped branch are
    fully severed, so masked-out NaN/inf derivatives cannot leak through."""
    mask = np.asarray(mask, dtype=bool)
    av, at, ac = (a.val, a.tan, a.curv) if isinstance(a, Dual) else (np.asarray(a, dtype=np.float64), None, None)
    bv, bt, bc = (b.val, b.tan, b.curv) if isinstance(b, Dual) else (np.asarray(b, dtype=np.float64), None, None)
    v = np.where(mask, av, bv)
    t = at.shape[-1] if at is not None else bt.shape[-1]
    zero = np.zeros(v.shape + (t,))
    at = zero if at is None else _bt(at, v.shape)
    bt = zero if bt is None else _bt(bt, v.shape)
    m = mask[..., None] if mask.shape == v.shape else np.broadcast_to(mask, v.shape)[..., None]
    ac = np.zeros(v.shape) if ac is None else ac
    bc = np.zeros(v.shape) if bc is None else bc
    return Dual(v, np.where(m, at, bt), np.where(mask, ac, bc))


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
                np.sum(np.take_along_axis(x.curv, order, axis=axis), axis=axis))


def symsum_abs(x: Dual, axis: int) -> Dual:
    """Sum along axis in |value|-sorted order. Negating every slice negates
    the result bit-for-bit, since the accumulation order is unchanged."""
    axis = axis % x.val.ndim
    order = np.argsort(np.abs(x.val), axis=axis, kind="stable")
    return Dual(np.sum(np.take_along_axis(x.val, order, axis=axis), axis=axis),
                np.sum(np.take_along_axis(x.tan, order[..., None], axis=axis), axis=axis),
                np.sum(np.take_along_axis(x.curv, order, axis=axis), axis=axis))


def take_along(x: Dual, idx: np.ndarray, axis: int) -> Dual:
    axis = axis % x.val.ndim
    return Dual(np.take_along_axis(x.val, idx, axis=axis),
                np.take_along_axis(x.tan, idx[..., None], axis=axis),
                np.take_along_axis(x.curv, idx, axis=axis))


def reshape(x: Dual, shape) -> Dual:
    shape = tuple(shape)
    return Dual(x.val.reshape(shape), np.ascontiguousarray(x.tan).reshape(shape + (x.n_seeds,)),
                x.curv.reshape(shape))


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
    return Dual(v, np.zeros(v.shape + (t,)), np.zeros(v.shape))


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
                np.stack([x.curv for x in xs], axis=axis))


def einsum(spec: str, a, b) -> Dual:
    """Two-operand contraction with the product rule on both sides.

    The value, the tangent term of each Dual operand, its Laplacian term and
    the 2 sum_t tan_a tan_b cross term are each one stacked matmul through
    `contract`. Tangents carry the seed lane as the matrix column index; a
    Laplacian term has no lane index and contracts like the value; the cross
    term folds the lane into the inner dimension K, so its lane sum is part
    of one GEMM per walker. Its determinism contract makes every walker's
    result bitwise independent of batch size, position in the batch, memory
    layout and BLAS threads.
    """
    a_sub, b_sub, out = parse_spec(spec)
    av = a.val if isinstance(a, Dual) else np.asarray(a, dtype=np.float64)
    bv = b.val if isinstance(b, Dual) else np.asarray(b, dtype=np.float64)
    val = contract(a_sub, b_sub, out, av, bv)
    at, bt, ot = a_sub + "t", b_sub + "t", out + "t"
    tan = curv = None
    if isinstance(a, Dual):
        tan = contract(at, b_sub, ot, a.tan, bv)
        curv = contract(a_sub, b_sub, out, a.curv, bv)
    if isinstance(b, Dual):
        tan_b = contract(a_sub, bt, ot, av, b.tan)
        curv_b = contract(a_sub, b_sub, out, av, b.curv)
        if tan is None:
            tan, curv = tan_b, curv_b
        else:
            tan = tan + tan_b
            curv = curv + curv_b + 2.0 * contract(at, bt, out, a.tan, b.tan)
    return Dual(val, tan, curv)
