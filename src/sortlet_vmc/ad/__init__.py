"""Numpy-flavoured ops written once for three engines.

Model code is written once against this namespace and runs in three
engines: plain ndarrays (Metropolis sampling), forward-mode Dual
(derivatives w.r.t. electron positions: the gradient per seed lane and the
Laplacian per value, see forward.py; the local energy) and reverse-mode Var
on a GradientTape (derivatives w.r.t. parameters; the energy gradient).
Every op picks its engine with one check over the operands it is handed
(`_dispatch`); mixing Dual and Var in one call is an error. concat, take,
take_along, norm and displacements have no Var engine: no parameter
gradient passes through them, since positions are never a Var, and a Var
operand raises TypeError.

Elementwise ops are the rows of one table, ELEMENTWISE, each
`name: (f, f'(x, y), f''(x, y, f') or None)` at y = f(x). The plain engine
calls f; Var records g f'; Dual applies tan = f' tan_x and
lap = f' lap_x + f'' sum_t tan_x^2. f'' is None where it vanishes wherever
f' exists (absolute), and then no lane sum is computed. Only ops whose
arithmetic differs per engine live in forward.py and reverse.py: where,
sum, the gathers behind take and take_along, reshape, moveaxis, concat,
einsum, softmax, norm, gap_logs and the operators.

No op writes into an array it was handed, in any engine; forward.py
states the rule for a Dual. The plain engine has one exception, so that a
pass reuses the buffers it has just allocated: an elementwise op called
with overwrite=True writes f(x) into its plain operand x and returns it.
Model code passes the flag, and writes `y += b`, only where y is an array
the pass itself made and reads nowhere else: an einsum result (contract's
results are fresh), a where or an elementwise result, or what was added
into one of them. A Dual or Var defines no in-place operator, so there
`y += b` makes a new value, and their elementwise ops ignore the flag.
numpy refuses an in-place op on a plain array with a Dual or Var operand,
so b is a constant or in y's engine. The same ufuncs meet the same
operands in the same order either way, so every bit is kept. A test runs
signed_log in all three engines on read-only inputs.

softmax, norm and gap_logs reduce over the last axis and are single fused
ops, not compositions of the elementwise rows: one plain function
computes the value for every engine the op has (so plain, Dual.val and
Var.val agree bit for bit), and the Dual and Var ops add only their
derivative rules. The Dual rules are written out in forward.py; each of
their sums over the reduced axis or over the seed lanes runs in an order
fixed by per-walker sizes. A tuple of eps gives norm's lengths of one
block from one sum of squares (and, for a Dual, one set of lane
numerators); displacements' Dual centers share each point's tangent,
which norm reads uncopied. gap_logs is the sortlet's head: it sorts each
row once, takes its N gaps (the N-1 adjacent ones and the wrap gap) into
one buffer, reads a zero gap as 1 and folds their logs with
reduce_exact. Its Dual applies the log row's rule to the gap lanes, and
its Var is one tape node; both gather, or scatter, each entry once by
the position the sort carries beside its key, with no second sort.

einsum takes two operands and, in every engine, runs as one stacked BLAS
matmul by a kernel cached per spec and operand shapes; contract.py
states the determinism contract it keeps. take_along is one flat gather;
a Dual's takes whole rows of T lanes. A Var takes basic indices only
(integers, slices, None); its one other gather is gap_logs' tape node.

One rule reduces every model axis in every engine: reduce_exact moves
the axis, or a tuple of axes in C order, first into a C-contiguous copy
(only the copy where they already lead) and reduces over that leading
axis, so a sum is a left fold in index order whatever the batch, the
row's place in it or the layout. sum (a Dual's value, lanes and
Laplacian; a Var's value), softmax's denominator, amax, gap_logs' fold
and tie test, the parity and contract's dot path take it. Four keep an
order of their own, fixed by per-walker sizes or by the system: the lane
and axis dots (forward._lane_dot, _axis_dot, _norm); the reverse
engine's sums over the batch (_unbroadcast, the softmax VJP);
nuclear_repulsion's sorted sum; the optimizer's statistics over walkers.
A test scans the package for any other. contract's BLAS calls sum in
BLAS's order, fixed by the matrix shapes (contract.py). The sort behind
gap_logs (_sort_parity) is Batcher's odd-even merge network of
elementwise minimum/maximum passes, which also counts the parity of its
swaps and, for a Dual or Var, carries each entry's position beside its
key, for rows of up to NETWORK_MAX finite keys; longer rows, or any NaN
or infinity, take one stable argsort for the gathered values, the
positions and the parity. Every parity outside the network is
permutation_parity's, which takes all rows at once by pointer doubling
over flat indices. Invariance under electron relabeling is not an op's job: the model
evaluates every walker with its electrons in one canonical order
(`ansatz.canonical_order`, which sorts the x of each spin sector by the
same network at any batch size and sector length, network_sort carrying
the index).

No model code calls symsum, symsum_abs, log1p, sqrt, stack, maximum or
minimum. They stay, each a composite or table row (symsum and symsum_abs
gather by take_along, so refuse a Var), only because perfbench's tracer
(perfbench/spans.py) patches them by name; deleting them waits for a
change that refreshes the benchmark's list of names. The tracer does not
patch softmax, norm, displacements, take or gap_logs, so their time
counts in the calling span's self time (gap_logs' in ansatz.sortlet_logs,
the geometry's in signed_log).
"""

from __future__ import annotations

from functools import lru_cache, partial
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
    "take", "gap_logs", "reshape", "moveaxis", "concat", "stack", "einsum", "softmax",
    "norm", "displacements", "detach", "amax", "reduce_exact", "score_parity",
    "permutation_parity", "network_sort", "NETWORK_MAX",
]

# name: (f, f'(x, y), f''(x, y, f') or None) with y = f(x); f takes out= as a ufunc does
ELEMENTWISE = {
    "exp": (np.exp, lambda x, y: y, lambda x, y, d: y),
    "log": (np.log, lambda x, y: 1.0 / x, lambda x, y, d: -d * d),
    "log1p": (np.log1p, lambda x, y: 1.0 / (1.0 + x), lambda x, y, d: -d * d),
    "sqrt": (np.sqrt, lambda x, y: 0.5 / y, lambda x, y, d: -0.25 / (y * x)),
    "tanh": (np.tanh, lambda x, y: 1.0 - y * y, lambda x, y, d: -2.0 * y * d),
    "square": (np.square, lambda x, y: 2.0 * x, lambda x, y, d: 2.0),
    "softplus": (lambda x, out=None: np.logaddexp(0.0, x, out=out),
                 lambda x, y: 0.5 * (1.0 + np.tanh(0.5 * x)), lambda x, y, d: d * (1.0 - d)),
    "absolute": (np.abs, lambda x, y: np.sign(x), None),
}


def _dispatch(name, plain, dual, var, operands=slice(0, 1)):
    """op(*args) runs plain, dual or var by the engine of args[operands]: a
    slice of the positional arguments, or the index of one that holds a
    list of operands (concat's, a group's members among them). An engine
    given as None raises TypeError."""
    impls = (plain, dual, var)
    listed = isinstance(operands, int)

    def op(*args, **kwargs):
        engine = 0
        for x in (_operands(args[operands]) if listed else args[operands]):
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


def _operands(xs) -> list:
    # concat's operands with each group's members in line
    if list not in map(type, xs):
        return xs
    return [m for x in xs for m in (x if isinstance(x, list) else (x,))]


def _elementwise(name):
    """op(x, overwrite=False); overwrite lets the plain engine write f(x)
    into x itself (module docstring), and Dual and Var ignore it."""
    f, d1, d2 = ELEMENTWISE[name]
    dual, var = forward.elementwise(f, d1, d2), reverse.elementwise(f, d1)
    return _dispatch(name, lambda x, overwrite=False: f(x, out=x) if overwrite else f(x),
                     lambda x, overwrite=False: dual(x), lambda x, overwrite=False: var(x))


exp = _elementwise("exp")
log = _elementwise("log")
log1p = _elementwise("log1p")
sqrt = _elementwise("sqrt")
tanh = _elementwise("tanh")
square = _elementwise("square")
softplus = _elementwise("softplus")
absolute = _elementwise("absolute")

where = _dispatch("where", np.where, forward.where, reverse.where, slice(1, 3))


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
    lambda x, idx, axis: forward.take(x, _take_index(x.shape, idx, axis)), None)
take_along.__doc__ = "np.take_along_axis in every engine but Var, as one flat gather."


# rows of more keys take _sort_parity's argsort fallback. The network costs
# a few numpy calls per comparator (63 at N = 16, 543 at N = 64): at N = 16
# on one 2-vCPU Xeon core it took 250-420 against 740 us for the fallback
# on 1024 rows, but 140-310 against 55 us on 16 rows, a gap widening with N
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


_argsort = partial(np.argsort, axis=-1, kind="stable")  # every sort's order outside the network


def permutation_parity(perm) -> np.ndarray:
    """The sign, +1 or -1, of each permutation of 0..N-1 along the last
    axis of perm. All rows at once, by pointer doubling over flat indices:
    after ceil(log2 N) rounds of two gathers and one minimum each entry
    holds the smallest index on its cycle; a row of C cycles is N - C
    transpositions, one per entry not its cycle's smallest, XOR-folded by
    reduce_exact."""
    perm = np.asarray(perm)
    nxt = np.ravel(_take_index(perm.shape, perm, -1))  # each entry's successor, row offset in
    low = entry = np.arange(nxt.size)
    for _ in range((perm.shape[-1] - 1).bit_length()):
        low = np.minimum(low, low[nxt])
        nxt = nxt[nxt]
    return np.where(reduce_exact(np.logical_xor, (low != entry).reshape(perm.shape)), -1, 1)


def score_parity(values: np.ndarray) -> np.ndarray:
    """Parity of the permutation that sorts `values` along the last axis:
    its stable argsort's, so a tie counts no inversion, and a NaN sorts
    last, after every other key, with NaNs in index order (np.argsort's)."""
    return permutation_parity(_argsort(values))


def _sort_parity(vals, carry=False) -> tuple:
    """(sorted, parity, index): an ascending sort along the last axis with
    that axis first, shape (N,) + vals.shape[:-1], the sign of the sorting
    permutation, shape vals.shape[:-1], and, given carry or on the
    fallback (None otherwise), the flat C-order position in vals of each
    sorted entry, shaped as sorted. Never writes to vals.

    Up to NETWORK_MAX keys, all finite, one compare-exchange network runs
    lane-leading on a rank-first copy: each comparator is elementwise (a
    strict greater-than that flips the parity, then np.minimum and
    np.maximum), so a row's bits cannot depend on its batch or layout. The
    values are np.sort's floats, bit for bit except that zeros of both
    signs in one row may trade places, and each row stays a permutation of
    its own bits. The parity, and the carried index, are exact on every
    row without a tie; a finite tie leaves a zero gap, so the sortlet
    never reads them there. Longer rows take one stable argsort, which
    gives the values, each row's own bits gathered, the index and the
    parity, permutation_parity of that order (score_parity's). So does any
    input holding a NaN (which minimum and maximum would copy into both
    slots) or an infinity (two equal ones leave a NaN gap, not a zero one,
    and the sortlet then reads the argsort's sign of the tie)."""
    n = vals.shape[-1]
    v = np.array(np.moveaxis(vals, -1, 0), order="C")  # a copy, never a view of vals
    if n > NETWORK_MAX or not np.isfinite(v).all():
        order = _argsort(vals)
        index = _ranked_index(order)
        return np.ravel(vals)[index], permutation_parity(order), index
    rows, index = list(v), list(range(n)) if carry else None
    odd = network_sort(rows, index)
    if carry:  # each entry's key index plus its row's flat start
        index = np.stack(index) + _take_offsets(vals.shape, vals.ndim - 1)[0][..., 0]
    return np.stack(rows), np.where(odd, -1, 1), index


def network_sort(rows: list, index: list | None = None) -> np.ndarray:
    """Sort rows, a list of N equal-shape float arrays, rank by rank with
    the compare-exchange network _network(N), elementwise over all entries
    at once: the list is updated in place, rows[r] then holding each
    entry's r-th smallest key, and the arrays it held are overwritten.
    Returns where the count of swaps is odd, the parity of the moves that
    index, a list of N ints or int arrays if given, records as each entry's
    keys move. That is the sorting permutation's where an entry's keys are
    distinct; a tie or a NaN (which minimum and maximum copy into both
    slots) leaves neighbouring ranks not strictly rising, which callers
    that need the unique order check."""
    odd = np.zeros(rows[0].shape, dtype=bool)
    swap, spare = np.empty_like(odd), np.empty_like(rows[0])
    for i, j in _network(len(rows)):
        a, b = rows[i], rows[j]
        np.greater(a, b, out=swap)
        odd ^= swap
        if index is not None:
            # integer moves are exact; a pair of np.where took 2.5x as long over
            # 4096 entries of 8 keys (2-vCPU AMD EPYC, timing loop)
            step = (index[j] - index[i]) * swap
            index[i], index[j] = index[i] + step, index[j] - step
        rows[i] = np.minimum(a, b, out=spare)
        # operands swapped against minimum: of two equal zeros, each returns
        # its second operand, so the pair stays a permutation of its bits
        np.maximum(b, a, out=b)
        spare = a  # a's buffer is free again
    return odd


def _ranked_index(order: np.ndarray) -> np.ndarray:
    """The flat C-order positions, in an array of order's shape, of each
    row's sort along the last axis by order (the values' stable argsort),
    rank axis first and C-contiguous: a gather keeps its index's layout,
    and the sortlet's gaps and fold read whole ranks."""
    return np.ascontiguousarray(np.moveaxis(_take_index(order.shape, order, -1), -1, 0))


def _gap_logs(vals, carry=False) -> tuple:
    """(logmag, parity, tied, gaps, zero, index) of gap_logs on plain
    values, N >= 2: the value every engine returns, and what the Dual and
    Var rules read. gaps (N, ...) holds the N-1 adjacent gaps of the sorted
    row and then the wrap gap, each 1 where zero says: where it is zero,
    and the wrap gap of a tied head (it is zero only where every adjacent
    gap is). index is _sort_parity's, carried given carry."""
    ranked, parity, index = _sort_parity(vals, carry)
    gaps = forward.cyclic_gaps(ranked)
    zero = gaps == 0.0
    tied = reduce_exact(np.logical_or, zero[:-1], axis=0)
    zero[-1] = tied
    np.copyto(gaps, 1.0, where=zero)
    return reduce_exact(np.add, np.log(gaps), axis=0), parity, tied, gaps, zero, index


def _gap_logs_dual(x):
    logmag, parity, tied, gaps, zero, index = _gap_logs(x.val, carry=True)
    tan, curv = forward.gap_log_lanes(x, index, gaps, zero)
    return Dual(logmag, reduce_exact(np.add, tan, 0), reduce_exact(np.add, curv, 0)), parity, tied


def _gap_logs_var(x):
    logmag, parity, tied, gaps, zero, index = _gap_logs(x.val, carry=True)
    return reverse.gap_logs(x, index, gaps, zero, logmag), parity, tied


gap_logs = _dispatch("gap_logs", lambda x: _gap_logs(np.asarray(x))[:3], _gap_logs_dual,
                     _gap_logs_var)
gap_logs.__doc__ = """(logmag, parity, tied) of the sortlet's gap product over the last
axis of x, N >= 2 keys, one op in every engine. Each row sorted
ascending gives N gaps: the N-1 between neighbouring ranks and the wrap
gap, largest less smallest. logmag is the left fold in gap order of the
log of each gap, a zero gap read as 1, and on a tied head (an adjacent
gap is zero: tied) the wrap gap read as 1 too; parity is the sort's sign
(_sort_parity's). One plain function gives the value, so plain, Dual.val
and Var.val agree bit for bit. A Dual or Var sorts once, carrying each
entry's position beside its key: the Dual gathers each entry's lanes and
Laplacian once by it and applies the log row's rule to the gap lanes; the
Var records one tape node whose VJP scatters by it with one bincount."""
reshape = _dispatch("reshape", lambda x, shape: np.reshape(x, shape),
                    forward.reshape, reverse.reshape)
moveaxis = _dispatch("moveaxis", np.moveaxis, forward.moveaxis, reverse.moveaxis)


def _concat(xs, axis) -> np.ndarray:
    if list not in map(type, xs):
        return np.concatenate(xs, axis=axis)
    shape, axis = forward.concat_layout(xs, axis)
    return forward.concat_into(np.empty(shape), xs, axis, lambda x: x)


concat = _dispatch("concat", _concat, forward.concat, None, 0)
concat.__doc__ = """np.concatenate(xs, axis), a Dual's value, lanes and Laplacian each into
one new C-ordered array. An operand given as a list is a group of blocks
(..., G, w_k) that fill G * sum_k w_k entries of one new C-ordered array:
each G-row holds the blocks' rows side by side, as concat([concat(group,
-1) reshaped to (..., G * sum_k w_k), ...]) would give from two copies."""
take = _dispatch("take", lambda x, idx, axis: np.take(x, idx, axis),
                 forward.take_axis, None)
take.__doc__ = "np.take(x, idx, axis) in every engine but Var, C-ordered whatever idx's shape."
einsum = _dispatch(
    "einsum", lambda spec, a, b: contract(*parse_spec(spec), np.asarray(a), np.asarray(b)),
    forward.einsum, reverse.einsum, slice(1, 3))


@lru_cache
def _axes_first(ndim: int, axis) -> tuple:
    """(k, perm): reduce_exact folds k axes, put first in C order by perm."""
    axes = sorted({a % ndim for a in (axis if isinstance(axis, tuple) else (axis,))})
    return len(axes), tuple(axes) + tuple(a for a in range(ndim) if a not in axes)


def reduce_exact(ufunc, x, axis=-1, keepdims=False) -> np.ndarray:
    """ufunc.reduce(x, axis) as a left fold in index order, the model's one
    reduction rule (module docstring). Of zeros of both signs a maximum may
    keep either."""
    x = np.asarray(x)
    k, perm = _axes_first(x.ndim, axis)
    lead = perm[k - 1] == k - 1  # the reduced axes lead already: no transpose
    rows = np.ascontiguousarray(x if lead else x.transpose(perm))
    if k > 1:
        rows = rows.reshape((-1,) + rows.shape[k:])
    if rows.size == len(rows) > 0:  # one output entry: reduce would go pairwise
        out = ufunc.accumulate(rows, axis=0)[-1]
    else:
        out = ufunc.reduce(rows, axis=0)
    if keepdims:
        return out.reshape(tuple(1 if a in perm[:k] else s for a, s in enumerate(x.shape)))
    return out


sum = _dispatch("sum", lambda x, axis: reduce_exact(np.add, x, axis),  # noqa: A001
                lambda x, axis: forward.sum(x, axis, partial(reduce_exact, np.add)),
                lambda x, axis: reverse.sum(x, axis, reduce_exact(np.add, x.val, axis)))


def _softmax(x) -> np.ndarray:
    """exp(x - max) / sum over the last axis, C-contiguous whatever x's
    layout; the exp and the divide run in place in the shifted copy."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    e = x - reduce_exact(np.maximum, x, keepdims=True)
    np.exp(e, out=e)
    e /= reduce_exact(np.add, e, keepdims=True)
    return e


def _length(s: np.ndarray, eps: float) -> np.ndarray:
    # sqrt(s + eps^2); adding 0.0 to a sum of squares changes no bit, so eps 0 skips it
    return np.sqrt(s + eps * eps) if eps else np.sqrt(s)


def _norm(x, eps=0.0):
    """sqrt(sum_c x_c^2 + eps^2) over the last axis, summed in an order fixed
    by its length; a tuple of eps gives one length per eps from one sum."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    s = np.einsum("...c,...c->...", x, x)
    if isinstance(eps, tuple):
        return tuple(_length(s, e) for e in eps)
    return _length(s, eps)


softmax = _dispatch("softmax", _softmax, lambda x: forward.softmax(x, _softmax(x.val)),
                    lambda x: reverse.softmax(x, _softmax(x.val)))
softmax.__doc__ = "Softmax over the last axis, one op in every engine."
norm = _dispatch("norm", _norm, lambda x, eps=0.0: forward.norm(x, _norm(x.val, eps)), None)
norm.__doc__ = """sqrt(sum_c x_c^2 + eps^2) over the last axis, one op in every engine; a
tuple of eps, e.g. (FEATURE_EPS, 0.0), gives a tuple of lengths."""


def _displacements(x, centers) -> np.ndarray:
    """x[..., :, None, :] - centers, (..., N, I, d), as one flat gather and one
    subtraction: numpy would loop over the broadcast per row of length d."""
    x = np.asarray(x, dtype=np.float64)
    (n, d), i = x.shape[-2:], len(centers)
    index = np.repeat(np.arange(n * d).reshape(n, 1, d), i, axis=1).ravel()
    flat = x.reshape(x.shape[:-2] + (n * d,))[..., index] - np.tile(np.ravel(centers), n)
    return flat.reshape(x.shape[:-2] + (n, i, d))


# a Dual point's centers share its tangent and Laplacian, broadcast (Dual.__add__)
displacements = _dispatch("displacements", _displacements, lambda x, centers: forward.reshape(
    x, x.shape[:-1] + (1, x.shape[-1])) - np.asarray(centers, dtype=np.float64), None)
displacements.__doc__ = "Each point of x (..., N, d) less each center (I, d): (..., N, I, d)."


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
