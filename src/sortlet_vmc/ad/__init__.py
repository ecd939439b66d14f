"""Numpy-flavoured ops that dispatch on argument type.

Model code is written once against this namespace and runs in three modes:
plain ndarrays, forward-mode Dual (derivatives w.r.t. electron positions,
including the diagonal curvature a Laplacian needs), and reverse-mode Var
on a GradientTape (derivatives w.r.t. parameters). Mixing Dual and Var in
one call is an error; the two passes are always run separately.

einsum takes two operands and, in every engine, runs as one stacked BLAS
matmul (see contract.py). The walker axis is always a matmul stack axis
and operands are made C-contiguous, so each walker's value, tangents and
curvatures are bitwise independent of the batch or chunk size, of the
walker's position in the batch, of the input's memory layout and of the
BLAS thread count.

Reductions run in the order of their input. Invariance under electron
relabeling is not an op's job: the model evaluates every walker with its
electrons in one canonical order (`ansatz.canonical_order`), so each sum
over electrons, pairs or seed lanes sees the same sequence for every
relabeling. symsum and symsum_abs (sums in value- and |value|-sorted
order) are no longer called by the model; perfbench's tracer still
patches them by name.
"""

from __future__ import annotations

import numpy as np

from . import forward, reverse
from .contract import contract, parse_spec
from .forward import Dual, seed_positions
from .reverse import GradientTape, Var

__all__ = [
    "Dual", "GradientTape", "Var", "seed_positions",
    "exp", "log", "log1p", "sqrt", "tanh", "square", "absolute",
    "where", "maximum", "minimum", "sum", "symsum", "symsum_abs", "take_along",
    "reshape", "moveaxis", "concat", "stack", "einsum",
    "detach", "amax", "softplus", "gradient", "laplacian",
]


def _np_symsum(x: np.ndarray, axis: int) -> np.ndarray:
    return np.sum(np.sort(x, axis=axis), axis=axis)


def _mode(*xs) -> str:
    has_dual = any(isinstance(x, Dual) for x in xs)
    has_var = any(isinstance(x, Var) for x in xs)
    if has_dual and has_var:
        raise TypeError("cannot mix forward-mode Dual and reverse-mode Var")
    return "dual" if has_dual else "var" if has_var else "np"


def _dispatch(name, np_impl):
    fwd = getattr(forward, name)
    rev = getattr(reverse, name)

    def op(x, *args, **kwargs):
        mode = _mode(x)
        if mode == "dual":
            return fwd(x, *args, **kwargs)
        if mode == "var":
            return rev(x, *args, **kwargs)
        return np_impl(x, *args, **kwargs)

    op.__name__ = name
    return op


exp = _dispatch("exp", np.exp)
log = _dispatch("log", np.log)
log1p = _dispatch("log1p", np.log1p)
sqrt = _dispatch("sqrt", np.sqrt)
tanh = _dispatch("tanh", np.tanh)
square = _dispatch("square", np.square)
absolute = _dispatch("absolute", np.abs)
sum = _dispatch("sum", lambda x, axis: np.sum(x, axis=axis))  # noqa: A001
symsum = _dispatch("symsum", _np_symsum)
symsum_abs = _dispatch(
    "symsum_abs",
    lambda x, axis: np.sum(np.take_along_axis(x, np.argsort(np.abs(x), axis=axis, kind="stable"),
                                              axis=axis), axis=axis))
take_along = _dispatch("take_along", lambda x, idx, axis: np.take_along_axis(x, idx, axis=axis))
reshape = _dispatch("reshape", lambda x, shape: np.reshape(x, shape))
moveaxis = _dispatch("moveaxis", np.moveaxis)


def where(mask, a, b):
    mode = _mode(a, b)
    if mode == "dual":
        return forward.where(mask, a, b)
    if mode == "var":
        return reverse.where(mask, a, b)
    return np.where(mask, a, b)


def maximum(a, b):
    mode = _mode(a, b)
    if mode == "dual":
        return forward.maximum(a, b)
    if mode == "var":
        return reverse.maximum(a, b)
    return np.maximum(a, b)


def minimum(a, b):
    mode = _mode(a, b)
    if mode == "dual":
        return forward.minimum(a, b)
    if mode == "var":
        return reverse.minimum(a, b)
    return np.minimum(a, b)


def concat(xs, axis):
    mode = _mode(*xs)
    if mode == "dual":
        return forward.concat(xs, axis)
    if mode == "var":
        return reverse.concat(xs, axis)
    return np.concatenate(xs, axis=axis)


def stack(xs, axis):
    mode = _mode(*xs)
    if mode == "dual":
        return forward.stack(xs, axis)
    if mode == "var":
        return reverse.stack(xs, axis)
    return np.stack(xs, axis=axis)


def einsum(spec, a, b):
    mode = _mode(a, b)
    if mode == "dual":
        return forward.einsum(spec, a, b)
    if mode == "var":
        return reverse.einsum(spec, a, b)
    return contract(*parse_spec(spec), np.asarray(a), np.asarray(b))


def detach(x) -> np.ndarray:
    """Plain value with the derivative trail severed."""
    if isinstance(x, (Dual, Var)):
        return x.val
    return np.asarray(x)


def amax(x, axis, keepdims=False) -> np.ndarray:
    """Detached max along an axis (e.g. the shift inside log-sum-exp)."""
    return np.max(detach(x), axis=axis, keepdims=keepdims)


softplus = _dispatch("softplus", lambda x: np.logaddexp(0.0, x))


def gradient(x: Dual) -> np.ndarray:
    """Seed-direction first derivatives of a scalar-per-walker Dual."""
    return x.tan


def laplacian(x: Dual) -> np.ndarray:
    """Sum of per-seed curvatures; equals the Laplacian when the input was
    wrapped by seed_positions."""
    return np.sum(x.curv, axis=-1)
