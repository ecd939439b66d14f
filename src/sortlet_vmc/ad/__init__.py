"""Numpy-flavoured ops written once for three engines.

Model code is written once against this namespace and runs in three
engines: plain ndarrays (Metropolis sampling), forward-mode Dual
(derivatives w.r.t. electron positions: the gradient per seed lane and the
Laplacian per value, see forward.py; the local energy) and reverse-mode Var
on a GradientTape (derivatives w.r.t. parameters; the energy gradient).
Every op picks its engine with one check over the operands it is handed
(`_dispatch`); mixing Dual and Var in one call is an error.

Elementwise ops are the rows of one table, ELEMENTWISE, each
`name: (f, f'(x, y), f''(x, y, f') or None)` at y = f(x). The plain engine
calls f; Var records g f'; Dual applies tan = f' tan_x and
lap = f' lap_x + f'' sum_t tan_x^2. f'' is None where it vanishes wherever
f' exists (absolute), and then no lane sum is computed. Only ops whose
arithmetic differs per engine live in forward.py and reverse.py: where,
sum, the gathers behind take_along and take_ranked, reshape, moveaxis,
concat, einsum, softmax, norm and the operators.

softmax and norm reduce over the last axis and are single fused ops, not
compositions of the elementwise rows: one plain function computes the
value for all three engines (so plain, Dual.val and Var.val agree bit for
bit), and the Dual and Var ops add only their derivative rules. The Dual
rules are written out in forward.py; each of their sums over the reduced
axis or over the seed lanes runs in an order fixed by per-walker sizes.

einsum takes two operands and, in every engine, runs as one stacked BLAS
matmul planned once per spec and operand shapes; contract.py states the
determinism contract it keeps. take_along is one flat gather in every
engine: a Dual takes whole rows of T lanes, and the Var VJP scatters with
one bincount. take_ranked returns chosen ranks of a sort along the last
axis with the rank axis first; the plain engine only sorts values, and a
Dual or Var gathers by the stable argsort as take_along does.

Reductions run in the order of their input. Only exact reductions (max,
any, parity) run lane-leading (max through reduce_exact); sums keep
their input order. The sortlet's sum over gaps runs rank-leading as a
left fold in gap order, written out in ansatz.sortlet_logs, so neither
layout nor batch shape can pick its order. Invariance under electron
relabeling is not an op's job: the model evaluates every walker with its
electrons in one canonical order (`ansatz.canonical_order`), so each sum
over electrons, pairs or seed lanes sees the same sequence for every
relabeling.

No model code calls symsum, symsum_abs, log1p, sqrt, stack, maximum or
minimum. They stay, each an engine-generic composite or table row, only
because perfbench's tracer (perfbench/spans.py) patches them by name;
deleting them waits for a change that refreshes the benchmark's list of
names. The tracer does not patch softmax, norm or take_ranked, so their
time counts in the calling span's self time (take_ranked's in
ansatz.sortlet_logs).
"""

from __future__ import annotations

from functools import lru_cache
from math import prod

import numpy as np

from . import forward, reverse
from .contract import contract, parse_spec
from .forward import Dual, seed_positions
from .reverse import GradientTape, Var

__all__ = [
    "Dual", "GradientTape", "Var", "seed_positions",
    "exp", "log", "log1p", "sqrt", "tanh", "square", "absolute", "softplus",
    "where", "maximum", "minimum", "sum", "symsum", "symsum_abs", "take_along",
    "take_ranked", "reshape", "moveaxis", "concat", "stack", "einsum", "softmax",
    "norm", "detach", "amax", "reduce_exact",
]

# name: (f, f'(x, y), f''(x, y, f') or None) with y = f(x)
ELEMENTWISE = {
    "exp": (np.exp, lambda x, y: y, lambda x, y, d: y),
    "log": (np.log, lambda x, y: 1.0 / x, lambda x, y, d: -d * d),
    "log1p": (np.log1p, lambda x, y: 1.0 / (1.0 + x), lambda x, y, d: -d * d),
    "sqrt": (np.sqrt, lambda x, y: 0.5 / y, lambda x, y, d: -0.25 / (y * x)),
    "tanh": (np.tanh, lambda x, y: 1.0 - y * y, lambda x, y, d: -2.0 * y * d),
    "square": (np.square, lambda x, y: 2.0 * x, lambda x, y, d: 2.0),
    "softplus": (lambda x: np.logaddexp(0.0, x), lambda x, y: 0.5 * (1.0 + np.tanh(0.5 * x)),
                 lambda x, y, d: d * (1.0 - d)),
    "absolute": (np.abs, lambda x, y: np.sign(x), None),
}


def _dispatch(name, plain, dual, var, operands=slice(0, 1)):
    """op(*args) runs plain, dual or var by the engine of args[operands]: a
    slice of the positional arguments, or the index of one that holds a
    list of operands."""
    impls = (plain, dual, var)

    def op(*args, **kwargs):
        engine = 0
        for x in args[operands]:
            if isinstance(x, Dual):
                engine |= 1
            elif isinstance(x, Var):
                engine |= 2
        if engine == 3:
            raise TypeError("cannot mix forward-mode Dual and reverse-mode Var")
        return impls[engine](*args, **kwargs)

    op.__name__ = op.__qualname__ = name
    return op


def _elementwise(name):
    f, d1, d2 = ELEMENTWISE[name]
    return _dispatch(name, f, forward.elementwise(f, d1, d2), reverse.elementwise(f, d1))


exp = _elementwise("exp")
log = _elementwise("log")
log1p = _elementwise("log1p")
sqrt = _elementwise("sqrt")
tanh = _elementwise("tanh")
square = _elementwise("square")
softplus = _elementwise("softplus")
absolute = _elementwise("absolute")

where = _dispatch("where", np.where, forward.where, reverse.where, slice(1, 3))
sum = _dispatch("sum", lambda x, axis: np.sum(x, axis=axis),  # noqa: A001
                forward.sum, reverse.sum)


@lru_cache(maxsize=8)
def _take_offsets(shape: tuple, axis: int):
    """(first, stride): the flat position of every gathered entry whose
    index along `axis` is 0, shaped for broadcasting against idx, and the
    stride of `axis`. Read-only and cached per (shape, axis); the cache is
    small because a grid holds one index per gathered row (64 KB for 512
    walkers of 16 heads) and init_ensemble's redraws gather at arbitrary
    batch sizes."""
    lead, stride = prod(shape[:axis]), prod(shape[axis + 1:])
    first = np.arange(lead)[:, None] * (shape[axis] * stride) + np.arange(stride)
    first = first.reshape(shape[:axis] + (1,) + shape[axis + 1:])
    first.flags.writeable = False
    return first, stride


def _take_index(shape, idx, axis) -> np.ndarray:
    """The flat C-order positions in an array of `shape` that
    take_along_axis(x, idx, axis) reads, in the gathered shape. idx holds
    indices in [0, shape[axis]) and may broadcast against x as in numpy."""
    first, stride = _take_offsets(tuple(shape), axis % len(shape))
    return first + (idx if stride == 1 else idx * stride)


take_along = _dispatch(
    "take_along", lambda x, idx, axis: np.ravel(x)[_take_index(np.shape(x), idx, axis)],
    lambda x, idx, axis: forward.take(x, _take_index(x.shape, idx, axis)),
    lambda x, idx, axis: reverse.take(x, _take_index(x.shape, idx, axis)))
take_along.__doc__ = "np.take_along_axis in every engine, as one flat gather."


def _ranked_index(vals: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """The flat C-order positions in vals of the entries at `ranks` of each
    row's stable ascending sort along the last axis, rank axis first."""
    order = np.argsort(vals, axis=-1, kind="stable")
    return np.moveaxis(_take_index(vals.shape, order[..., ranks], -1), -1, 0)


take_ranked = _dispatch(
    "take_ranked", lambda x, ranks: np.moveaxis(np.sort(x, axis=-1), -1, 0)[ranks],
    lambda x, ranks: forward.take(x, _ranked_index(x.val, ranks)),
    lambda x, ranks: reverse.take(x, _ranked_index(x.val, ranks)))
take_ranked.__doc__ = """The entries at `ranks` of an ascending sort along the last axis, rank
axis first: shape (len(ranks),) + x.shape[:-1]. Plain arrays are sorted
(values only); a Dual or Var gathers whole entries by the stable argsort.
The values are the same floats in every engine; zeros of both signs may
come out in either order."""
reshape = _dispatch("reshape", lambda x, shape: np.reshape(x, shape),
                    forward.reshape, reverse.reshape)
moveaxis = _dispatch("moveaxis", np.moveaxis, forward.moveaxis, reverse.moveaxis)
concat = _dispatch("concat", lambda xs, axis: np.concatenate(xs, axis=axis),
                   forward.concat, reverse.concat, 0)
einsum = _dispatch(
    "einsum", lambda spec, a, b: contract(*parse_spec(spec), np.asarray(a), np.asarray(b)),
    forward.einsum, reverse.einsum, slice(1, 3))


def reduce_exact(ufunc, x, axis=-1, keepdims=False) -> np.ndarray:
    """ufunc.reduce(x, axis) with that short axis moved first: one
    C-contiguous transposed copy, then one reduce across all other entries
    at once instead of numpy's loop over short rows. Only for order-free
    reductions (maximum, logical_or, logical_xor), so the values are the
    reduce's own, NaN included. Of zeros of both signs a maximum may keep
    either, as numpy's reduce does by layout; no caller's shift can see it.
    Sums never run here: they keep their input order."""
    out = ufunc.reduce(np.ascontiguousarray(np.moveaxis(np.asarray(x), axis, 0)), axis=0)
    return np.expand_dims(out, axis) if keepdims else out


def _softmax(x) -> np.ndarray:
    """exp(x - max) / sum over the last axis, C-contiguous whatever x's layout."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    e = np.exp(x - reduce_exact(np.maximum, x, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def _norm(x, eps=0.0) -> np.ndarray:
    """sqrt(sum_c x_c^2 + eps^2) over the last axis, summed in an order fixed by its length."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    return np.sqrt(np.einsum("...c,...c->...", x, x) + eps * eps)


softmax = _dispatch("softmax", _softmax, lambda x: forward.softmax(x, _softmax(x.val)),
                    lambda x: reverse.softmax(x, _softmax(x.val)))
softmax.__doc__ = "Softmax over the last axis, one op in every engine."
norm = _dispatch("norm", _norm, lambda x, eps=0.0: forward.norm(x, _norm(x.val, eps)),
                 lambda x, eps=0.0: reverse.norm(x, _norm(x.val, eps)))
norm.__doc__ = "sqrt(sum_c x_c^2 + eps^2) over the last axis, one op in every engine."


def detach(x) -> np.ndarray:
    """Plain value with the derivative trail severed."""
    if isinstance(x, (Dual, Var)):
        return x.val
    return np.asarray(x)


def amax(x, axis, keepdims=False) -> np.ndarray:
    """Detached max along an axis (e.g. the shift inside log-sum-exp)."""
    return reduce_exact(np.maximum, detach(x), axis, keepdims)


def _select(name, plain, keep_a):
    # where(keep_a(a, b), a, b) on detached values in the AD engines
    def pick(a, b):
        return where(keep_a(detach(a), detach(b)), a, b)
    return _dispatch(name, plain, pick, pick, slice(0, 2))


maximum = _select("maximum", np.maximum, np.greater_equal)
minimum = _select("minimum", np.minimum, np.less_equal)


def symsum(x, axis):
    """Sum along axis in value-sorted order, so permuting the slices along
    axis leaves every bit of the result unchanged. Ties keep their order."""
    return sum(take_along(x, np.argsort(detach(x), axis=axis, kind="stable"), axis), axis)


def symsum_abs(x, axis):
    """Sum along axis in |value|-sorted order, so negating every slice
    negates the result bit for bit."""
    order = np.argsort(np.abs(detach(x)), axis=axis, kind="stable")
    return sum(take_along(x, order, axis), axis)


def stack(xs, axis):
    """np.stack in every engine: each operand gets a unit axis at `axis`,
    then all are concatenated along it."""
    axis = axis % (len(np.shape(xs[0])) + 1)
    return concat([reshape(x, np.shape(x)[:axis] + (1,) + np.shape(x)[axis:]) for x in xs], axis)
