"""Two-operand einsum contractions as one stacked BLAS matmul.

All three engines contract through `contract`: the plain value; the
tangent, Laplacian and cross terms of the forward pass; and both reverse
VJPs. A spec maps onto np.matmul(L, R) as follows, each matrix dimension
folding a run of indices:

- N (matrix columns): the longest suffix of the output that only one
  operand carries; that operand is R. In a tangent term of the dual engine
  it ends in the trailing seed-lane index, so an attention product such as
  bnm,bmkt->bnkt folds (k, t) into N: one (N x M)(M x K*T) GEMM per
  walker. Where R does not hold that suffix as one run, N keeps the part
  it does hold so and the rest become stack axes: bnk,bmkt->bnmt stacks
  (b, m) and returns a transposed view instead of copying bmkt.
- M (matrix rows): the run of the output just before that suffix that
  only the other operand, L, carries.
- K (inner dimension): every shared index absent from the output, in R's
  order. The cross term carries the lane on both operands and not in the
  output, so the lane folds into K.
- Stack axes: every other output index. matmul loops over them and
  broadcasts an operand that lacks one.

The walker axis, an index that leads the output and every operand that
carries it, is never part of M or N. An empty run is a size-1 axis.

Each operand is made C-contiguous in its own index order. If that order is
(stack, rows, cols) it reshapes into its matrices; if it is (stack, cols,
rows) it is handed to matmul as a transposed view and BLAS gets a
transpose flag instead of a copy. Only an operand holding its indices in
neither order is copied into (stack, rows, cols). `shaped_plan` resolves
all of this once per spec and operand shapes into a cached kernel, so a
call makes each operand C-contiguous (no copy for one that already is),
reshapes it, takes the transposed view where the plan has one, checks
for an alias only then, and runs one matmul.

Determinism contract: a walker's value, tangents, Laplacian and local
energy are bitwise independent of the batch or chunk size, of the walker's
position in the batch and of the BLAS thread count. Three rules meet it:

- The walker axis is always a stack axis, so every matrix handed to BLAS
  has a shape fixed by per-walker sizes (electrons, features, hidden
  width, heads, 3N lanes), never by the walker count. Folding walkers into
  M would switch a one-walker batch from GEMM to GEMV and change its bits.
- The plan, transpose flags included, is a function of the spec alone,
  and every operand is C-contiguous in its own index order before the
  call. The BLAS routine, transpose flags and leading dimensions then
  depend on the spec and the shapes, not on the memory layout a caller
  happened to pass in. numpy would run x @ x.T on one buffer as a SYRK,
  which rounds differently from a GEMM, so an operand that aliases the
  other beside a transposed view is copied first, keeping its layout.
- OpenBLAS splits a GEMM or GEMV across threads over output entries,
  never inside a sum, whatever the transpose flags. The calls large
  enough to be split are the reverse-mode reductions over all walkers in
  the parameter gradient and per-walker products whose N folds width and
  seed lanes, such as (16 x 16)(16 x 32 * 48) for an H16 chain at width
  32. A product whose M and N are both 1 is a dot product, which OpenBLAS
  would split inside its sum once it is longer than 10 000; it runs off
  BLAS as reduce_exact's left fold in index order, the one rule of the ad
  module docstring that every other sum outside BLAS follows, and that is
  never threaded.

Invariance under same-spin relabelling is not this module's job: the
caller puts each walker's electrons in canonical order, so a contraction
over electrons runs in the same order for every relabelling.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod

import numpy as np


@lru_cache
def parse_spec(spec: str):
    """Validate an "ab,bc->ac" spec; returns (a_sub, b_sub, out)."""
    lhs, out = spec.split("->")
    a_sub, b_sub = lhs.split(",")
    for sub in (a_sub, b_sub, out):
        if len(set(sub)) != len(sub):
            raise ValueError(f"repeated index within one operand: {spec!r}")
    if "t" in a_sub + b_sub + out:
        raise ValueError("index letter 't' is reserved for seed lanes")
    if not set(a_sub) <= set(out) | set(b_sub) or not set(b_sub) <= set(out) | set(a_sub):
        raise ValueError(f"every operand index must appear elsewhere: {spec!r}")
    if not set(out) <= set(a_sub) | set(b_sub):
        raise ValueError(f"output index missing from both operands: {spec!r}")
    return a_sub, b_sub, out


def _arrangement(sub: str, stack: str, rows: str, cols: str):
    """How an operand with indices `sub` becomes (stack..., rows, cols):
    (perm, dims, transposed). dims lists the indices folded into each axis
    of the reshape; perm is None where the operand's own order already
    reshapes into them, transposed where that gives (cols, rows)."""
    head = "".join(i for i in stack if i in sub)
    lead = tuple((i,) if i in sub else () for i in stack)
    if sub == head + rows + cols:
        return None, lead + (tuple(rows), tuple(cols)), False
    if sub == head + cols + rows:
        return None, lead + (tuple(cols), tuple(rows)), True
    perm = tuple(sub.index(i) for i in head + rows + cols)
    return perm, lead + (tuple(rows), tuple(cols)), False


@lru_cache
def plan(x_sub: str, y_sub: str, out: str):
    """(swap, (stack, m, k, n), left, right, perm). swap says whether y is
    L; stack, m and n are the output indices of the result axes, k the
    folded inner indices; left and right are the operands' arrangements;
    perm takes the result to `out` order, None where it already is."""
    shared = set(x_sub) & set(y_sub)
    lead = out[:1]
    walker = lead if lead and all(s.startswith(lead) for s in (x_sub, y_sub)
                                  if lead in s) else ""
    free = set(out) - shared - {walker}  # the output indices M and N may fold

    def run(end, sub):
        # the start of the longest run of out ending at `end` that only `sub` carries
        start = end
        while start and out[start - 1] in free and out[start - 1] in sub:
            start -= 1
        return start

    swap = bool(out) and out[-1] in free and out[-1] in x_sub
    l_sub, r_sub = (y_sub, x_sub) if swap else (x_sub, y_sub)
    n_at = run(len(out), r_sub)
    cut = n_at
    while out[cut:] not in r_sub:  # N is the part of that run R holds as one run
        cut += 1
    m_at = run(n_at, l_sub)
    stack, m, n = out[:m_at] + out[n_at:cut], out[m_at:n_at], out[cut:]
    k = "".join(i for i in r_sub if i in shared and i not in out)
    res = stack + m + n
    perm = None if res == out else tuple(res.index(i) for i in out)
    return (swap, (stack, m, k, n),
            _arrangement(l_sub, stack, m, k), _arrangement(r_sub, stack, k, n), perm)


@lru_cache(maxsize=1024)
def shaped_plan(x_sub: str, y_sub: str, out: str, x_shape: tuple, y_shape: tuple):
    """`plan` resolved at fixed operand shapes into a kernel(x, y) that
    returns the contraction: each operand made C-contiguous in its own
    order (or permuted where that order gives neither matrix layout) and
    reshaped into its matrices, a transposed view where the plan transposes
    one, an alias check only then, and one matmul, or the dot path's fold
    where M and N are both 1. The cache is bounded, since callers such as
    init_ensemble's redraws evaluate arbitrary batch sizes."""
    from . import reduce_exact  # the package imports this module before defining it

    swap, (stack, m, _, n), lplan, rplan, perm = plan(x_sub, y_sub, out)
    size = dict(zip(x_sub, x_shape))
    size.update(zip(y_sub, y_shape))
    (lperm, ldims, ltrans), (rperm, rdims, rtrans) = lplan, rplan
    lshape = tuple(prod(size[i] for i in d) for d in ldims)
    rshape = tuple(prod(size[i] for i in d) for d in rdims)
    shape = tuple(size[i] for i in stack + m + n)
    alias = ltrans or rtrans
    dot = prod(size[i] for i in m) == 1 and prod(size[i] for i in n) == 1

    def kernel(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        lhs, rhs = (y, x) if swap else (x, y)
        left = np.ascontiguousarray(lhs if lperm is None else lhs.transpose(lperm)).reshape(lshape)
        right = np.ascontiguousarray(rhs if rperm is None else rhs.transpose(rperm)).reshape(rshape)
        if ltrans:
            left = left.swapaxes(-1, -2)
        if rtrans:
            right = right.swapaxes(-1, -2)
        if alias and np.may_share_memory(left, right):
            right = right.copy(order="K")  # same layout, no alias: GEMM, not SYRK
        if dot:  # a dot product: keep it off BLAS (module docstring)
            res = reduce_exact(np.add, left * right.swapaxes(-1, -2), axis=-1).reshape(shape)
        else:
            res = np.matmul(left, right).reshape(shape)
        return res if perm is None else res.transpose(perm)

    return kernel


def contract(x_sub: str, y_sub: str, out: str, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """einsum(f"{x_sub},{y_sub}->{out}", x, y) as one np.matmul.

    Subscripts are trusted (see parse_spec), so internal specs may use the
    reserved lane index 't'. The result is a new array, or a transposed view
    of one, that shares no memory with x or y: the plain engine's caller may
    overwrite it (the in-place rule of the ad module docstring).
    """
    return shaped_plan(x_sub, y_sub, out, x.shape, y.shape)(x, y)
