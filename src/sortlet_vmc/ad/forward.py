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

and quotients follow from the product rule; `elementwise` applies the
unary rule to each row of the op table in ad/__init__.py. softmax and norm
reduce over the last value axis and carry their own rules, one pass each
where the composed ops took five or more. Every lane sum (`_lane_dot`)
reduces a C-contiguous trailing lane axis, and every sum over the last
value axis of a tangent (`_axis_dot`) runs in ascending index with the
lane axis innermost, so both orders are fixed by per-walker sizes alone
and each entry's bits do not depend on the batch size, the entry's
position in it or the caller's memory layout.

Constants stay plain ndarrays; binary ops lift them with zero derivatives.
An op may accumulate in place into a temporary it made itself, in the
order the out-of-place expression would take, and never writes into an
operand.
"""

from __future__ import annotations

import numpy as np

from .contract import contract, parse_spec


def _grow(a: np.ndarray, shape: tuple) -> np.ndarray:
    # broadcast a block to a (possibly grown) target shape
    return a if a.shape == shape else np.broadcast_to(a, shape)


def _lane_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_t x_t y_t over the trailing lane axis, in an order fixed by T."""
    return np.einsum("...t,...t->...", np.ascontiguousarray(x), np.ascontiguousarray(y))


def _axis_dot(w: np.ndarray, tan: np.ndarray) -> np.ndarray:
    """sum_k w_k tan_kt over the last value axis. Each entry is a sum in
    ascending k: the lane axis stays innermost and is never folded into
    another, so the order is fixed by K and T alone."""
    return np.einsum("...k,...kt->...t", np.ascontiguousarray(w), np.ascontiguousarray(tan))


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
        return Dual(v, _grow(self.tan, v.shape + (self.n_seeds,)), _grow(self.curv, v.shape))

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, -self.tan, -self.curv)

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val - other.val, self.tan - other.tan, self.curv - other.curv)
        return self + (-np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Dual):
            tan = self.tan * other.val[..., None]
            tan += self.val[..., None] * other.tan
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
            wt = w[..., None] * other.tan
            np.subtract(self.tan, wt, out=wt)
            wt /= other.val[..., None]
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
    The value is C-contiguous whatever the layout of r.
    """
    r = np.ascontiguousarray(r, dtype=np.float64)
    n, d = r.shape[-2], r.shape[-1]
    t = n * d
    eye = np.eye(t).reshape(n, d, t)
    tan = np.broadcast_to(eye, r.shape + (t,)).copy()
    return Dual(r, tan, np.zeros(r.shape))


def elementwise(f, d1, d2):
    """The Dual op of an elementwise f with f' = d1(x, y) and f'' =
    d2(x, y, f') at y = f(x); d2 None computes no lane sum."""
    def op(x: Dual) -> Dual:
        y = f(x.val)
        d = d1(x.val, y)
        curv = d * x.curv
        if d2 is not None:
            curv = curv + d2(x.val, y, d) * _lane_dot(x.tan, x.tan)
        return Dual(y, d[..., None] * x.tan, curv)
    return op


def softmax(x: Dual, y: np.ndarray) -> Dual:
    """Softmax over the last axis given its value y. With u = tan_x -
    sum_k y_k tan_x,k and w = curv_x + sum_t u_t^2: tan = y u and
    curv = y (w - sum_k y_k w_k)."""
    u = x.tan - _axis_dot(y, x.tan)[..., None, :]
    w = x.curv + _lane_dot(u, u)
    u *= y[..., None]
    return Dual(y, u, y * (w - _lane_dot(y, w)[..., None]))


def norm(x: Dual, f: np.ndarray) -> Dual:
    """f = sqrt(sum_c x_c^2 + eps^2) over the last axis given its value f:
    tan = sum_c x_c tan_c / f and curv = (sum_c,t tan_c,t^2 + sum_c x_c curv_c
    - |tan|^2) / f."""
    tan = _axis_dot(x.val, x.tan)
    tan /= f[..., None]
    lanes = np.ascontiguousarray(x.tan).reshape(f.shape + (-1,))  # (c, t) folded
    curv = (_lane_dot(lanes, lanes) + _lane_dot(x.val, x.curv) - _lane_dot(tan, tan)) / f
    return Dual(f, tan, curv)


def where(mask, a, b) -> Dual:
    """Select a where mask else b; derivatives of the dropped branch are
    fully severed, so masked-out NaN/inf derivatives cannot leak through.
    A constant branch selects against a scalar zero."""
    mask = np.asarray(mask, dtype=bool)
    av, at, ac = (a.val, a.tan, a.curv) if isinstance(a, Dual) else (np.asarray(a, dtype=np.float64), 0.0, 0.0)
    bv, bt, bc = (b.val, b.tan, b.curv) if isinstance(b, Dual) else (np.asarray(b, dtype=np.float64), 0.0, 0.0)
    v = np.where(mask, av, bv)
    mask = np.broadcast_to(mask, v.shape)
    return Dual(v, np.where(mask[..., None], at, bt), np.where(mask, ac, bc))


def _norm_axis(axis, ndim):
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def sum(x: Dual, axis) -> Dual:  # noqa: A001 - mirrors the numpy name
    axis = _norm_axis(axis, x.val.ndim)
    return Dual(np.sum(x.val, axis=axis), np.sum(x.tan, axis=axis),
                np.sum(x.curv, axis=axis))


def take(x: Dual, flat: np.ndarray) -> Dual:
    """Gather the values at C-order positions `flat`, each with its whole
    row of T tangent lanes."""
    rows = x.tan.reshape(-1, x.n_seeds)
    return Dual(x.val.ravel()[flat], np.take(rows, flat, axis=0), x.curv.ravel()[flat])


def reshape(x: Dual, shape) -> Dual:
    shape = tuple(shape)
    return Dual(x.val.reshape(shape), np.ascontiguousarray(x.tan).reshape(shape + (x.n_seeds,)),
                x.curv.reshape(shape))


def moveaxis(x: Dual, src: int, dst: int) -> Dual:
    src = src % x.val.ndim
    dst = dst % x.val.ndim
    return Dual(np.moveaxis(x.val, src, dst), np.moveaxis(x.tan, src, dst),
                np.moveaxis(x.curv, src, dst))


def _lift(x, t) -> Dual:
    if isinstance(x, Dual):
        return x
    v = np.asarray(x, dtype=np.float64)
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


def einsum(spec: str, a, b) -> Dual:
    """Two-operand contraction with the product rule on both sides.

    The value, the tangent term of each Dual operand, its Laplacian term and
    the 2 sum_t tan_a tan_b cross term are each one stacked matmul through
    `contract`. A tangent's trailing seed lane ends the folded column run N
    (bnm,bmkt->bnkt is one GEMM per walker); a Laplacian term contracts like
    the value; the cross term folds the lane into K. The spec alone decides
    which operands reach BLAS as (transposed) views; contract.py states the
    determinism contract.
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
            tan += tan_b
            curv += curv_b
            curv += 2.0 * contract(at, bt, out, a.tan, b.tan)
    return Dual(val, tan, curv)
