"""Numpy-flavoured ops written once for three engines.

Model code is written once against this namespace and runs in three
engines: plain ndarrays (Metropolis sampling), forward-mode Dual
(derivatives w.r.t. electron positions: the gradient per seed lane and the
Laplacian per value, see forward.py; the local energy) and reverse-mode Var
on a GradientTape (derivatives w.r.t. parameters; the energy gradient).
Every op picks its engine with one check over the operands it is handed
(`_dispatch`); mixing Dual and Var in one call is an error. concat and
norm have no Var engine: no parameter gradient passes through them, since
positions are never a Var, and a Var operand raises TypeError.

Elementwise ops are the rows of one table, ELEMENTWISE, each
`name: (f, f'(x, y), f''(x, y, f') or None)` at y = f(x). The plain engine
calls f; Var records g f'; Dual applies tan = f' tan_x and
lap = f' lap_x + f'' sum_t tan_x^2. f'' is None where it vanishes wherever
f' exists (absolute), and then no lane sum is computed. Only ops whose
arithmetic differs per engine live in forward.py and reverse.py: where,
sum, the gathers behind take_along and sort_parity, reshape, moveaxis,
concat, einsum, softmax, norm and the operators.

softmax and norm reduce over the last axis and are single fused ops, not
compositions of the elementwise rows: one plain function computes the
value for every engine the op has (so plain, Dual.val and Var.val agree
bit for bit), and the Dual and Var ops add only their derivative rules.
The Dual rules are written out in forward.py; each of their sums over the
reduced axis or over the seed lanes runs in an order fixed by per-walker
sizes.

einsum takes two operands and, in every engine, runs as one stacked BLAS
matmul planned once per spec and operand shapes; contract.py states the
determinism contract it keeps. take_along is one flat gather in every
engine: a Dual takes whole rows of T lanes, and the Var VJP scatters with
one bincount. sort_parity returns the whole ascending sort along the
last axis with the rank axis first, and the sort's parity; the plain
engine only sorts values, and a Dual or Var gathers each entry once by
the stable argsort as take_along does. A Var takes basic indices only
(integers, slices, None); every gather of a Var goes through take_along
or sort_parity.

Reductions run in the order of their input. Only exact, order-free ops
(max, any, parity, and the sort behind sort_parity) run lane-leading:
max through reduce_exact, and the sort as Batcher's odd-even merge
network of elementwise minimum/maximum passes, which also counts the
parity of its swaps. The network serves rows of up to NETWORK_MAX finite
keys; longer rows, or any NaN or infinity, take np.sort and score_parity.
Sums keep their input order. The sortlet's sum over gaps runs
rank-leading as a left fold in gap order, written out in
ansatz.sortlet_logs, so neither layout nor batch shape can pick its
order. Invariance under electron relabeling is not an op's job: the
model evaluates every walker with its electrons in one canonical order
(`ansatz.canonical_order`), so each sum over electrons, pairs or seed
lanes sees the same sequence for every relabeling.

No model code calls symsum, symsum_abs, log1p, sqrt, stack, maximum or
minimum. They stay, each an engine-generic composite or table row, only
because perfbench's tracer (perfbench/spans.py) patches them by name;
deleting them waits for a change that refreshes the benchmark's list of
names. The tracer does not patch softmax, norm or sort_parity, so their
time counts in the calling span's self time (sort_parity's in
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
    "sort_parity", "reshape", "moveaxis", "concat", "stack", "einsum", "softmax",
    "norm", "detach", "amax", "reduce_exact", "score_parity", "NETWORK_MAX",
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
    list of operands. An engine given as None raises TypeError."""
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
        if impls[engine] is None:
            raise TypeError(f"{name} has no reverse-mode engine")
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


# rows of more keys take np.sort and score_parity. The network costs a few
# numpy calls per comparator (63 at N = 16, 543 at N = 64): at N = 16 it
# takes 215 against 338 us for np.sort plus the pair parity on 1024 rows,
# but 133 against 40 us on 16 rows, a gap that widens with N
NETWORK_MAX = 16


@lru_cache
def _network(n: int) -> tuple:
    """Batcher's odd-even merge sort for n keys (Batcher, AFIPS 1968): the
    comparators (i, j), i < j, of the network for the next power of two
    that touch only indices < n. 3 at n = 3, 19 at n = 8, 63 at n = 16."""
    size = 1 << (n - 1).bit_length()
    pairs = []
    p = 1
    while p < size:
        k = p
        while k:
            for j in range(k % p, size - k, 2 * k):
                for i in range(j, j + min(k, size - j - k)):
                    if i // (2 * p) == (i + k) // (2 * p) and i + k < n:
                        pairs.append((i, i + k))
            k //= 2
        p *= 2
    return tuple(pairs)


def _parity_small(values: np.ndarray) -> np.ndarray:
    # (..., N) -> (...,): the inversion count's parity, an exact XOR of the
    # pair comparisons, reduced lane-leading as in reduce_exact; O(N^2)
    # but N is tiny
    i, j = np.triu_indices(values.shape[-1], 1)
    lanes = np.ascontiguousarray(np.moveaxis(values, -1, 0))
    return np.where(np.logical_xor.reduce(lanes[i] > lanes[j], axis=0), -1, 1)


def _parity_cycles(order: np.ndarray) -> np.ndarray:
    # parity via cycle decomposition of the sorting permutation, O(N) each
    flat = order.reshape(-1, order.shape[-1])
    out = np.empty(flat.shape[0], dtype=np.int64)
    for row, perm in enumerate(flat):
        seen = np.zeros(len(perm), dtype=bool)
        transpositions = 0
        for start in range(len(perm)):
            if seen[start]:
                continue
            length = 0
            node = start
            while not seen[node]:
                seen[node] = True
                node = perm[node]
                length += 1
            transpositions += length - 1
        out[row] = -1 if transpositions % 2 else 1
    return out.reshape(order.shape[:-1])


def score_parity(values: np.ndarray) -> np.ndarray:
    """Parity of the permutation that sorts `values` along the last axis."""
    if values.shape[-1] <= 64:
        return _parity_small(values)
    return _parity_cycles(np.argsort(values, axis=-1, kind="stable"))


def _sort_parity(vals) -> tuple[np.ndarray, np.ndarray]:
    """(sorted, parity): an ascending sort along the last axis with that
    axis first, shape (N,) + vals.shape[:-1], and the sign of the sorting
    permutation, shape vals.shape[:-1]. Never writes to vals.

    Up to NETWORK_MAX keys, all finite, one compare-exchange network runs
    lane-leading on a rank-first copy: each comparator is elementwise (a
    strict greater-than that flips the parity, then np.minimum and
    np.maximum), so a row's bits cannot depend on its batch or layout. The
    values are np.sort's floats, bit for bit except that zeros of both
    signs in one row may trade places, and each row stays a permutation of
    its own bits. The parity is exact on every row without a tie; a finite
    tie leaves a zero gap, so the sortlet never reads its parity. Longer
    rows take np.sort and score_parity, and so does any input holding a
    NaN (which minimum and maximum would copy into both slots) or an
    infinity (two equal ones leave a NaN gap, not a zero one, and the
    sortlet then reads score_parity's sign of the tie)."""
    n = vals.shape[-1]
    v = np.array(np.moveaxis(vals, -1, 0), order="C")  # a copy, never a view of vals
    if n > NETWORK_MAX or not np.isfinite(v).all():
        return np.moveaxis(np.sort(vals, axis=-1), -1, 0), score_parity(vals)
    rows = list(v)
    odd = np.zeros(v.shape[1:], dtype=bool)
    swap, spare = np.empty_like(odd), np.empty_like(rows[0])
    for i, j in _network(n):
        a, b = rows[i], rows[j]
        np.greater(a, b, out=swap)
        odd ^= swap
        rows[i] = np.minimum(a, b, out=spare)
        # operands swapped against minimum: of two equal zeros, each returns
        # its second operand, so the pair stays a permutation of its bits
        np.maximum(b, a, out=b)
        spare = a  # a's buffer is free again
    return np.stack(rows), np.where(odd, -1, 1)


def _ranked_index(vals: np.ndarray) -> np.ndarray:
    """The flat C-order positions in vals of each row's stable ascending
    sort along the last axis, rank axis first and C-contiguous: a gather
    keeps its index's layout, and the sortlet's gaps and fold read whole
    ranks."""
    order = np.argsort(vals, axis=-1, kind="stable")
    return np.ascontiguousarray(np.moveaxis(_take_index(vals.shape, order, -1), -1, 0))


sort_parity = _dispatch(
    "sort_parity", _sort_parity,
    lambda x: (forward.take(x, _ranked_index(x.val)), _sort_parity(x.val)[1]),
    lambda x: (reverse.take(x, _ranked_index(x.val)), _sort_parity(x.val)[1]))
sort_parity.__doc__ = """(sorted, parity): the ascending sort along the last axis, rank axis
first, shape (N,) + x.shape[:-1], and the sort's parity from _sort_parity
on the values, shape x.shape[:-1]. Plain arrays take _sort_parity itself;
a Dual or Var gathers each entry once by the stable argsort. The values
are the same floats in every engine; zeros of both signs may come out in
either order."""
reshape = _dispatch("reshape", lambda x, shape: np.reshape(x, shape),
                    forward.reshape, reverse.reshape)
moveaxis = _dispatch("moveaxis", np.moveaxis, forward.moveaxis, reverse.moveaxis)
concat = _dispatch("concat", lambda xs, axis: np.concatenate(xs, axis=axis),
                   forward.concat, None, 0)
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
norm = _dispatch("norm", _norm, lambda x, eps=0.0: forward.norm(x, _norm(x.val, eps)), None)
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
