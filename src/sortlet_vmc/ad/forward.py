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
unary rule to each row of the op table in ad/__init__.py. softmax, norm
and the sortlet's gap logs (gap_log_lanes) reduce over the last value
axis and carry their own rules, one pass each where the composed ops took
five or more. Every lane sum (`_lane_dot`)
reduces a C-contiguous trailing lane axis, and every sum over the last
value axis of a tangent (`_axis_dot`) runs in ascending index with the
lane axis innermost, so both orders are fixed by per-walker sizes alone
and each entry's bits do not depend on the batch size, the entry's
position in it or the caller's memory layout; a tangent broadcast over
value axes is read through its view, with the same bits as a copy.

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


def _rows(tan: np.ndarray) -> np.ndarray:
    """tan with each broadcast (stride-0) value axis but the last cut to
    length 1, C-contiguous: copied at most once, a shared tangent never."""
    cut = tuple(slice(0, 1) if s == 0 else slice(None) for s in tan.strides[:-2])
    return np.ascontiguousarray(tan[cut])


def _axis_dot(w: np.ndarray, tan: np.ndarray) -> np.ndarray:
    """sum_k w_k tan_kt over the last value axis. Each entry is a sum in
    ascending k: the lane axis stays innermost and is never folded into
    another, so the order is fixed by K and T alone."""
    return np.einsum("...k,...kt->...t", np.ascontiguousarray(w),
                     np.broadcast_to(_rows(tan), tan.shape))


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


def norm(x: Dual, f):
    """f = sqrt(sum_c x_c^2 + eps^2) over the last axis given its value f,
    or a tuple of such values with one shared set of numerators: tan =
    sum_c x_c tan_c / f, curv = (sum_c,t tan_c,t^2 + sum_c x_c curv_c -
    |tan|^2) / f. A shared tangent's lane sum runs once per distinct row."""
    rows = _rows(x.tan)
    num = _axis_dot(x.val, np.broadcast_to(rows, x.tan.shape))
    lanes = rows.reshape(rows.shape[:-2] + (rows.shape[-2] * rows.shape[-1],))  # (c, t) folded
    base = _lane_dot(lanes, lanes) + _lane_dot(x.val, x.curv)

    def one(fi):
        tan = num / fi[..., None]
        return Dual(fi, tan, (base - _lane_dot(tan, tan)) / fi)

    return tuple(map(one, f)) if isinstance(f, tuple) else one(f)


def cyclic_gaps(ranked: np.ndarray) -> np.ndarray:
    """The N gaps of rank-first rows (N, ...) into one new array: rank r + 1
    less rank r for r < N - 1, then the wrap gap, rank N - 1 less rank 0."""
    gaps = np.empty_like(ranked)
    np.subtract(ranked[1:], ranked[:-1], out=gaps[:-1])
    np.subtract(ranked[-1], ranked[0], out=gaps[-1])
    return gaps


def gap_log_lanes(x: Dual, index: np.ndarray, gaps: np.ndarray, zero: np.ndarray):
    """(tan, curv) of the log of each of ad.gap_logs' N gaps, (N, ..., T)
    and (N, ...), for the fold over N: each sorted entry's lanes and
    Laplacian gathered once by index, its flat C-order position in x, the
    gap lanes as cyclic_gaps, severed where zero (a gap read as the constant
    1), then the log row's rule at the gaps as read."""
    tan = cyclic_gaps(np.take(x.tan.reshape(-1, x.n_seeds), index, axis=0))
    curv = cyclic_gaps(x.curv.ravel()[index])
    if zero.any():  # ties are rare, and this masked copy took 22-27 us of a dual chunk
        np.copyto(tan, 0.0, where=zero[..., None])
        np.copyto(curv, 0.0, where=zero)
    d = 1.0 / gaps
    curv = d * curv + (-d * d) * _lane_dot(tan, tan)
    tan *= d[..., None]
    return tan, curv


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


def sum(x: Dual, axis, total) -> Dual:  # noqa: A001 - mirrors the numpy name
    """x summed over value axes by total(array, axes) on val, tan and curv alike."""
    axis = tuple(a % x.val.ndim for a in (axis if isinstance(axis, tuple) else (axis,)))
    return Dual(total(x.val, axis), total(x.tan, axis), total(x.curv, axis))


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


def take_axis(x: Dual, idx: np.ndarray, axis: int) -> Dual:
    """np.take(x, idx, axis): the value, each tangent lane and the Laplacian
    gathered along one value axis into new C-ordered arrays."""
    axis = axis % x.val.ndim
    return Dual(np.take(x.val, idx, axis), np.take(x.tan, idx, axis), np.take(x.curv, idx, axis))


def concat_layout(xs, axis: int) -> tuple:
    """(shape, axis): the value shape of ad.concat(xs, axis) and its axis,
    made non-negative. A list operand is a group of blocks shaped (..., G,
    w_k); they are joined along their last axis and that axis is flattened
    with the G axis at `axis`, so the group fills G * sum_k w_k entries."""
    grouped = isinstance(xs[0], list)
    head = (xs[0][0] if grouped else xs[0]).shape
    axis = axis % (len(head) - grouped)
    width = 0
    for x in xs:
        if isinstance(x, list):
            for m in x:
                width += m.shape[axis] * m.shape[axis + 1]
        else:
            width += x.shape[axis]
    return head[:axis] + (width,) + head[axis + 1 + grouped:], axis


def concat_into(out: np.ndarray, xs, axis: int, part) -> np.ndarray:
    """Write part(x) of each operand of ad.concat(xs, axis) into its entries
    of out along the non-negative value axis `axis`, in order; axes after
    the value axes (a tangent's lanes) are carried through. part gives an
    operand's value, tangent or Laplacian."""
    if list not in map(type, xs):
        return np.concatenate([part(x) for x in xs], axis, out=out)
    at = (slice(None),) * axis
    lo = 0
    for x in xs:
        if not isinstance(x, list):
            hi = lo + x.shape[axis]
            out[at + (slice(lo, hi),)] = part(x)
            lo = hi
            continue
        g, span = x[0].shape[axis], 0
        for m in x:
            span += m.shape[axis + 1]
        block = out[at + (slice(lo, lo + g * span),)]
        # splitting one axis of a strided view is always a view: the writes land in out
        block = block.reshape(block.shape[:axis] + (g, span) + block.shape[axis + 1:])
        np.concatenate([part(m) for m in x], axis + 1, out=block)
        lo += g * span
    return out


def _seed_count(xs):
    for x in xs:
        if isinstance(x, list):
            x = next((m for m in x if isinstance(m, Dual)), None)
        if isinstance(x, Dual):
            return x.n_seeds
    raise TypeError("need at least one Dual")


def concat(xs, axis: int) -> Dual:
    """ad.concat into one new C-ordered value, tangent and Laplacian; a
    constant operand gets zero lanes."""
    shape, axis = concat_layout(xs, axis)
    t = _seed_count(xs)

    def zero(x, lanes=()):
        return np.broadcast_to(0.0, x.shape + lanes)

    return Dual(
        concat_into(np.empty(shape), xs, axis, lambda x: x.val if isinstance(x, Dual) else x),
        concat_into(np.empty(shape + (t,)), xs, axis,
                    lambda x: x.tan if isinstance(x, Dual) else zero(x, (t,))),
        concat_into(np.empty(shape), xs, axis,
                    lambda x: x.curv if isinstance(x, Dual) else zero(x)))


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
