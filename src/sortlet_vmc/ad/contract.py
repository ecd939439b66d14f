"""Two-operand einsum contractions as one stacked BLAS matmul.

All three engines contract through `contract`: the plain value, the
tangent, curvature and cross terms of the forward pass, and both reverse
VJPs. A spec maps onto np.matmul(L, R) as follows:

- N (matrix columns): the last output index that only one operand carries;
  that operand is R. In the dual engine this is the trailing seed-lane
  index, so lane-major arrays reach BLAS without a copy.
- M (matrix rows): the last output index that only the other operand, L,
  carries.
- K (inner dimension): every shared index absent from the output, folded.
- Stack axes: every other output index. matmul loops over them and
  broadcasts an operand that lacks one.

The walker axis, an index that leads the output and every operand that
carries it, is never M or N. A missing M or N is a size-1 axis.

Determinism contract: a walker's value, tangents, curvatures and local
energy are bitwise independent of the batch or chunk size, of the walker's
position in the batch and of the BLAS thread count. Three rules meet it:

- The walker axis is always a stack axis, so every matrix handed to BLAS
  has a shape fixed by per-walker sizes (electrons, features, hidden
  width, heads, 3N lanes), never by the walker count. Folding walkers into
  M would switch a one-walker batch from GEMM to GEMV and change its bits.
- Operands are made C-contiguous before the call. The BLAS routine,
  transpose flags and leading dimensions then depend on those shapes
  alone, not on the memory layout a caller happened to pass in.
- Per-walker products are far below the size at which OpenBLAS splits one
  call across threads. The only calls large enough to be threaded are the
  reverse-mode reductions over all walkers in the parameter gradient.
  Those are GEMMs and GEMVs, which OpenBLAS splits over output entries,
  never inside a sum. A product whose M and N are both 1 is a dot
  product, which OpenBLAS would split inside its sum once it is longer
  than 10 000; it runs as a numpy sum instead, which is never threaded.

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


@lru_cache
def _plan(x_sub: str, y_sub: str, out: str):
    shared = set(x_sub) & set(y_sub)
    lead = out[:1]
    walker = lead if lead and all(s.startswith(lead) for s in (x_sub, y_sub)
                                  if lead in s) else None
    free = [i for i in out if i not in shared and i != walker]
    n = free[-1] if free else None
    swap = n is not None and n in x_sub
    l_sub, r_sub = (y_sub, x_sub) if swap else (x_sub, y_sub)
    m = next((i for i in reversed(free) if i in l_sub), None)
    stack = [i for i in out if i not in (m, n)]
    k = tuple(i for i in r_sub if i in shared and i not in out)

    def arrange(sub, rows, cols):
        # each target axis is the tuple of indices folded into it
        dims = [(i,) if i in sub else () for i in stack] + [rows, cols]
        return tuple(sub.index(i) for d in dims for i in d), tuple(dims)

    left = arrange(l_sub, (m,) if m else (), k)
    right = arrange(r_sub, k, (n,) if n else ())
    res = stack + [i for i in (m, n) if i]
    perm = tuple(res.index(i) for i in out)
    return swap, left, right, tuple(res), None if perm == tuple(range(len(out))) else perm


def _arrange(x: np.ndarray, perm, dims, size) -> np.ndarray:
    x = np.ascontiguousarray(np.transpose(x, perm))
    return x.reshape([prod(size[i] for i in d) for d in dims])


def contract(x_sub: str, y_sub: str, out: str, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """einsum(f"{x_sub},{y_sub}->{out}", x, y) as one np.matmul.

    Subscripts are trusted (see parse_spec), so internal specs may use the
    reserved lane index 't'. The result may be a transposed view.
    """
    swap, (lperm, ldims), (rperm, rdims), res_dims, perm = _plan(x_sub, y_sub, out)
    size = dict(zip(x_sub, x.shape))
    size.update(zip(y_sub, y.shape))
    lhs, rhs = (y, x) if swap else (x, y)
    left, right = _arrange(lhs, lperm, ldims, size), _arrange(rhs, rperm, rdims, size)
    if left.shape[-2] == 1 and right.shape[-1] == 1:  # a dot product: keep it off BLAS
        res = np.sum(left * np.swapaxes(right, -1, -2), axis=-1, keepdims=True)
    else:
        res = np.matmul(left, right)
    res = res.reshape([size[i] for i in res_dims])
    return res if perm is None else res.transpose(perm)
