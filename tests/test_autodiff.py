import ast
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sortlet_vmc import ad, backbone
from sortlet_vmc.ad import Dual, GradientTape
from oracles import (composed_sortlet_logs, contract_uncached, hessian_diag_central, operands,
                     take_along_vjp_add_at)
from sortlet_vmc.ad.contract import contract, plan, shaped_plan
from sortlet_vmc.ad.forward import _axis_dot, _lane_dot
from sortlet_vmc.ad.fd import grad_central
from sortlet_vmc.ansatz import SortletWavefunction, sortlet_logs
from sortlet_vmc.geometry import load_system

W = np.array([[0.3, -0.7], [0.9, 0.2], [-0.4, 0.6]])


def seed_flat(x):
    n = len(x)
    return Dual(x, np.eye(n), np.zeros(n))


def smooth(x):
    """Composite touching most smooth ops; x is a 6-vector in any engine."""
    a = ad.reshape(x, (2, 3))
    b = ad.tanh(a)
    c = ad.einsum("ij,jk->ik", b + 0.1, W)
    gram = ad.einsum("ij,kj->ik", b, b)
    d = ad.exp(c * 0.3) / (ad.square(c) + 1.5)
    e = d + 1.0 / (gram + 3.0)
    s = ad.symsum(ad.reshape(e, (4,)), axis=0)
    q = ad.sqrt(ad.square(x[0]) + 1.0) + ad.log1p(ad.square(s)) + x[2] * x[2] * x[2] * 0.01
    return (ad.log(ad.absolute(q) + 2.0) + ad.log(ad.absolute(s * 0.5) + 2.0)
            + ad.log(ad.absolute(ad.softplus(x[1])) + 2.0))


def smooth_np(z):
    return float(ad.detach(smooth(np.asarray(z, dtype=np.float64))))


vectors = hnp.arrays(np.float64, (6,), elements=st.floats(-2.0, 2.0, width=32))


@settings(max_examples=150, deadline=None)
@given(vectors)
def test_forward_gradient_matches_fd(x):
    d = smooth(seed_flat(x))
    fd = grad_central(smooth_np, x, h=1e-5)
    np.testing.assert_allclose(d.tan, fd, rtol=2e-5, atol=2e-6)


@settings(max_examples=60, deadline=None)
@given(vectors)
def test_forward_curvature_matches_fd(x):
    d = smooth(seed_flat(x))
    fd = hessian_diag_central(smooth_np, x, h=1e-4)
    np.testing.assert_allclose(d.curv, fd.sum(), rtol=1e-3, atol=1e-4)


@settings(max_examples=150, deadline=None)
@given(vectors)
def test_reverse_gradient_matches_fd(x):
    tape = GradientTape()
    p = tape.leaf(x)
    out = smooth(p)
    g = tape.gradient(out, p)
    fd = grad_central(smooth_np, x, h=1e-5)
    np.testing.assert_allclose(g, fd, rtol=2e-5, atol=2e-6)


def test_forward_and_reverse_agree_closely():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.normal(size=6)
        d = smooth(seed_flat(x))
        tape = GradientTape()
        p = tape.leaf(x)
        g = tape.gradient(smooth(p), p)
        np.testing.assert_allclose(d.tan, g, rtol=1e-12, atol=1e-14)


def test_kinked_ops_match_fd_away_from_kinks():
    x = np.array([0.7, -1.3, 0.4, 1.9, -0.6, 0.2])
    mask = np.array([True, False, False, True, False, True])

    def f(z):
        w = ad.where(mask, 0.25, ad.square(z))
        m = ad.maximum(w, z * 0.1)
        return ad.sum(ad.minimum(m, 5.0) * np.arange(1.0, 7.0), axis=0)

    d = f(seed_flat(x))
    fd = grad_central(lambda z: float(ad.detach(f(z))), x)
    np.testing.assert_allclose(d.tan, fd, rtol=1e-6, atol=1e-9)
    tape = GradientTape()
    p = tape.leaf(x)
    g = tape.gradient(f(p), p)
    np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-9)


def test_where_severs_poisoned_branches():
    x = np.array([-1.0, 2.0, -3.0])
    mask = x < 0

    def f(z):
        return ad.sum(ad.log(ad.where(mask, 1.0, z)), axis=0)

    d = f(seed_flat(x))
    assert np.isfinite(d.val)
    assert np.all(np.isfinite(d.tan)) and np.all(np.isfinite(d.curv))
    np.testing.assert_allclose(d.tan, [0.0, 0.5, 0.0])

    tape = GradientTape()
    p = tape.leaf(x)
    g = tape.gradient(f(p), p)
    np.testing.assert_allclose(g, [0.0, 0.5, 0.0])


def test_exp_of_huge_negative_underflows_cleanly():
    x = seed_flat(np.array([-1e300, 0.0]))
    e = ad.exp(x)
    assert e.val[0] == 0.0
    assert np.all(e.tan[0] == 0.0) and np.all(e.curv[0] == 0.0)


def test_symsum_is_permutation_invariant_bitwise():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(5, 7))
    perm = rng.permutation(7)
    assert np.array_equal(ad.symsum(x, axis=1), ad.symsum(x[:, perm], axis=1))

    tan = rng.normal(size=(5, 7, 3))
    curv = rng.normal(size=(5, 7))
    a = ad.symsum(Dual(x, tan, curv), axis=1)
    b = ad.symsum(Dual(x[:, perm], tan[:, perm], curv[:, perm]), axis=1)
    assert np.array_equal(a.val, b.val)
    assert np.array_equal(a.tan, b.tan)
    assert np.array_equal(a.curv, b.curv)

    tape = GradientTape()
    p = tape.leaf(x)
    v1 = ad.symsum(p, axis=1)
    v2 = ad.symsum(ad.take_along(p, np.broadcast_to(perm, x.shape), axis=1), axis=1)
    assert np.array_equal(v1.val, v2.val)


def test_plain_sum_is_not_permutation_invariant_here():
    # the motivating counterexample: reassociation moves the rounding
    rng = np.random.default_rng(11)
    found = False
    for _ in range(200):
        x = rng.normal(size=64) * rng.lognormal(0, 4, size=64)
        perm = rng.permutation(64)
        if np.sum(x) != np.sum(x[perm]):
            found = True
            break
    assert found


def test_take_along_reverse_scatter_with_repeats():
    x = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    idx = np.array([[0, 0, 2], [1, 1, 1]])
    w = np.array([[1.0, 10.0, 100.0], [2.0, 20.0, 200.0]])

    def f(z):
        return ad.sum(ad.take_along(z, idx, axis=1) * w, axis=(0, 1))

    tape = GradientTape()
    p = tape.leaf(x)
    g = tape.gradient(f(p), p)
    np.testing.assert_allclose(g, [[11.0, 0.0, 100.0], [0.0, 222.0, 0.0]])

    d = f(Dual(x, np.eye(6).reshape(2, 3, 6), np.zeros((2, 3))))
    np.testing.assert_allclose(d.tan, g.ravel())


def test_take_along_reverse_broadcasts_the_index():
    # the (B, N, 1) electron order signed_log gathers a (B, N, 3) batch with
    rng = np.random.default_rng(13)
    x = rng.normal(size=(2, 4, 3))
    order = np.argsort(rng.normal(size=(2, 4)), axis=1)
    w = rng.normal(size=(2, 4, 3))
    tape = GradientTape()
    p = tape.leaf(x)
    g = tape.gradient(ad.take_along(p, order[..., None], axis=1), p, seed=w)
    expect = np.zeros_like(x)
    for b in range(2):
        expect[b, order[b]] = w[b]
    np.testing.assert_array_equal(g, expect)


def test_weighted_seed_equals_weighted_sum_of_gradients():
    rng = np.random.default_rng(7)
    x = rng.normal(size=4)
    w = rng.normal(size=3)

    def batch(p):
        return (ad.tanh(p[:3] * p[1:]) + ad.exp(p[1:] * 0.1) * p[:3]
                + ad.sqrt(ad.square(p[1:]) + 1.0))

    tape = GradientTape()
    p = tape.leaf(x)
    out = batch(p)
    g_w = tape.gradient(out, p, seed=w)

    expected = np.zeros(4)
    for i in range(3):
        tape_i = GradientTape()
        pi = tape_i.leaf(x)
        seed = np.zeros(3)
        seed[i] = 1.0
        expected += w[i] * tape_i.gradient(batch(pi), pi, seed=seed)
    np.testing.assert_allclose(g_w, expected, rtol=1e-12, atol=1e-15)


def test_gradient_replay_is_bitwise():
    rng = np.random.default_rng(9)
    x = rng.normal(size=6)
    tape = GradientTape()
    p = tape.leaf(x)
    out = smooth(p)
    g1 = tape.gradient(out, p)
    g2 = tape.gradient(out, p)
    assert np.array_equal(g1, g2)


def test_seed_positions_gradient_and_laplacian():
    rng = np.random.default_rng(2)
    r = rng.normal(size=(4, 3, 3))  # 4 walkers, 3 electrons
    rd = ad.seed_positions(r)
    f = ad.sum(ad.square(rd), axis=(1, 2))  # sum |r_i|^2 per walker
    np.testing.assert_allclose(f.tan, 2.0 * r.reshape(4, 9))
    np.testing.assert_allclose(f.curv, np.full(4, 2.0 * 9))


def test_dual_rejects_a_curvature_lane_per_seed():
    # (1, 3) values with 3 lanes: a per-seed (1, 3, 3) curv would broadcast
    # against the values without complaint
    with pytest.raises(ValueError, match="one Laplacian per value"):
        Dual(np.zeros((1, 3)), np.zeros((1, 3, 3)), np.zeros((1, 3, 3)))
    with pytest.raises(ValueError):
        Dual(np.zeros(3), np.eye(3), np.zeros(()))


def test_einsum_rejects_bad_specs():
    x = np.ones((2, 3))
    with pytest.raises(ValueError):
        ad.einsum("ij,jk->ij", seed_flat(np.ones(3)), x)  # k lost
    with pytest.raises(ValueError):
        ad.einsum("iit,tj->ij", x, x)
    with pytest.raises(ValueError):
        ad.einsum("ii,ij->ij", x, x)


MODEL_SPECS = ("bnf,fh->bnh", "bnh,hg->bng", "bng,bmg->bnm", "b,k->bk",
               "bnk,bmk->bnm", "bnm,bmk->bnk", "hg,kg->hk", "nm,bmc->bnc", "bnm,nm->bn")
# distinct sizes, so a contraction that swaps two axes cannot pass
ORACLE_SIZES = dict(b=4, n=3, m=5, f=6, h=7, g=2, k=3, t=4, c=8)


def _oracle_cases():
    # each spec at full size, then with every axis (the lanes too) at size 1
    for spec in MODEL_SPECS:
        yield spec, None
        for axis in sorted(set(spec) - set(",->")) + ["t"]:
            yield spec, axis


@pytest.mark.parametrize("spec,unit", list(_oracle_cases()))
def test_einsum_matches_numpy_oracle(spec, unit):
    """Every engine's einsum against np.einsum on the specs the model uses.

    Size-1 axes are where matmul switches from GEMM to GEMV, dot or its own
    loop. Operands are positive, so no cancellation hides behind the
    relative tolerance.
    """
    size = dict(ORACLE_SIZES, **({unit: 1} if unit else {}))
    a_sub, b_sub, out = spec.replace("->", ",").split(",")
    rng = np.random.default_rng(0)

    def draw(sub):
        return rng.uniform(0.5, 1.5, size=[size[i] for i in sub])

    def check(got, want):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    av, bv, seed = draw(a_sub), draw(b_sub), draw(out)
    check(ad.einsum(spec, av, bv), np.einsum(spec, av, bv))

    at, ac, bt, bc = draw(a_sub + "t"), draw(a_sub), draw(b_sub + "t"), draw(b_sub)
    by_a = f"{a_sub}t,{b_sub}->{out}t"
    by_b = f"{a_sub},{b_sub}t->{out}t"
    for a_dual, b_dual in ((True, False), (False, True), (True, True)):
        got = ad.einsum(spec, Dual(av, at, ac) if a_dual else av,
                        Dual(bv, bt, bc) if b_dual else bv)
        tan = np.zeros(got.tan.shape)
        curv = np.zeros(got.curv.shape)
        if a_dual:
            tan += np.einsum(by_a, at, bv)
            curv += np.einsum(spec, ac, bv)
        if b_dual:
            tan += np.einsum(by_b, av, bt)
            curv += np.einsum(spec, av, bc)
        if a_dual and b_dual:
            curv += 2.0 * np.einsum(f"{a_sub}t,{b_sub}t->{out}", at, bt)
        check(got.val, np.einsum(spec, av, bv))
        check(got.tan, tan)
        check(got.curv, curv)

    tape = GradientTape()
    a, b = tape.leaf(av), tape.leaf(bv)
    y = ad.einsum(spec, a, b)
    check(y.val, np.einsum(spec, av, bv))
    check(tape.gradient(y, a, seed=seed), np.einsum(f"{out},{b_sub}->{a_sub}", seed, bv))
    check(tape.gradient(y, b, seed=seed), np.einsum(f"{a_sub},{out}->{b_sub}", av, seed))


def test_einsum_bits_do_not_depend_on_operand_layout():
    """Fortran-ordered operands give bitwise the same result in every engine.

    At the model's widths BLAS rounds a transposed operand differently, so
    this holds only because operands are made C-contiguous before matmul.
    """
    size = dict(b=4, n=3, m=3, f=13, h=32, g=32, k=16, t=9, c=3)
    rng = np.random.default_rng(1)
    f = np.asfortranarray
    for spec in MODEL_SPECS:
        a_sub, b_sub, out = spec.replace("->", ",").split(",")
        av, at, ac = (rng.normal(size=[size[i] for i in sub])
                      for sub in (a_sub, a_sub + "t", a_sub))
        bv, bt, bc = (rng.normal(size=[size[i] for i in sub])
                      for sub in (b_sub, b_sub + "t", b_sub))
        np.testing.assert_array_equal(ad.einsum(spec, av, bv), ad.einsum(spec, f(av), f(bv)))
        c = ad.einsum(spec, Dual(av, at, ac), Dual(bv, bt, bc))
        d = ad.einsum(spec, Dual(f(av), f(at), f(ac)), Dual(f(bv), f(bt), f(bc)))
        for x, y in ((c.val, d.val), (c.tan, d.tan), (c.curv, d.curv)):
            np.testing.assert_array_equal(x, y)
        seed = rng.normal(size=[size[i] for i in out])
        grads = []
        for x, y, g in ((av, bv, seed), (f(av), f(bv), f(seed))):
            tape = GradientTape()
            a, b = tape.leaf(x), tape.leaf(y)
            z = ad.einsum(spec, a, b)
            grads.append((tape.gradient(z, a, seed=g), tape.gradient(z, b, seed=g)))
        for x, y in zip(*grads):
            np.testing.assert_array_equal(x, y)


def test_lane_sums_do_not_depend_on_batch_or_layout():
    """Ops that sum over seed lanes, or over the last value axis of a
    tangent, give each entry's Laplacian the same bits alone, inside a
    batch, and from transposed or Fortran-ordered tangents."""
    rng = np.random.default_rng(4)
    val = rng.uniform(0.5, 1.5, size=(5, 4))
    tan = rng.normal(size=(5, 4, 24))
    curv = rng.normal(size=(5, 4))

    def f(d):
        return ad.log(ad.tanh(d) * d + 1.0 / (ad.square(d) + 2.0)) / (d + 3.0)

    batch = f(Dual(val, tan, curv)).curv
    odd = f(Dual(val.T, np.asfortranarray(tan.transpose(1, 0, 2)), curv.T)).curv
    np.testing.assert_array_equal(odd, batch.T)
    for i, j in np.ndindex(val.shape):
        alone = f(Dual(val[i, j], tan[i, j], curv[i, j])).curv
        np.testing.assert_array_equal(alone, batch[i, j])

    # softmax and norm reduce over the last value axis: one row is one entry
    for op in (ad.softmax, lambda d: ad.norm(d, 0.1)):
        batch = op(Dual(val, tan, curv))
        odd = op(Dual(np.asfortranarray(val), np.asfortranarray(tan), np.asfortranarray(curv)))
        np.testing.assert_array_equal(odd.tan, batch.tan)
        np.testing.assert_array_equal(odd.curv, batch.curv)
        for i in range(len(val)):
            alone = op(Dual(val[i], tan[i], curv[i]))
            np.testing.assert_array_equal(alone.tan, batch.tan[i])
            np.testing.assert_array_equal(alone.curv, batch.curv[i])


def test_mixing_engines_raises():
    tape = GradientTape()
    p = tape.leaf(np.ones(3))
    d = seed_flat(np.ones(3))
    with pytest.raises(TypeError):
        ad.einsum("i,i->i", d, p)
    with pytest.raises(TypeError):
        d * p


@pytest.mark.parametrize("idx", [(slice(None), slice(1, 3)), (1,), (slice(None), 2)],
                         ids=["slices", "int", "slice_int"])
def test_var_getitem_vjp_matches_add_at(idx):
    """Basic indexing scatters with an in-place add, which gives np.add.at's
    bits."""
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 3))
    tape = GradientTape()
    leaf = tape.leaf(x)
    out = leaf[idx]
    g = rng.normal(size=out.shape)
    ref = np.zeros(x.shape)
    np.add.at(ref, idx, g)
    assert np.array_equal(tape.gradient(out, leaf, seed=g), ref)


@pytest.mark.parametrize("idx", [(np.array([0, 0, 2]),), (slice(None), [1, 1]), (Ellipsis, 0)],
                         ids=["repeated_rows", "repeated_cols", "ellipsis"])
def test_var_getitem_rejects_fancy_indices(idx):
    """A Var takes basic indices only; gathers go through ad.take_along."""
    leaf = GradientTape().leaf(np.zeros((4, 3)))
    with pytest.raises(IndexError, match="take_along"):
        leaf[idx]


def test_amax_and_detach():
    d = seed_flat(np.array([1.0, 5.0, 2.0]))
    m = ad.amax(d, axis=0)
    assert isinstance(m, np.ndarray) or np.isscalar(m)
    assert float(m) == 5.0
    assert np.array_equal(ad.detach(d), d.val)


@pytest.mark.parametrize("n", range(1, 41))
def test_reduce_exact_matches_numpy_over_short_last_axes(n):
    """reduce_exact gives np.max's and np.any's values over a last axis of
    length n, with -inf, NaN and zeros of both signs among the inputs, on a
    moveaxis view (as backbone.scores returns) and on a contiguous copy.
    Bits agree except the sign of a zero maximum in a row holding zeros of
    both signs, which numpy's own reduce picks by layout.

    Its sum is a Python left fold in index order, bit for bit, on a lone
    row (1, n) or (1, 1, n), a rank-leading (n, 1, 1), a moveaxis view, an
    F-ordered copy and a tuple of axes. One output entry is where a bare
    np.add.reduce of the rank-leading copy sums pairwise from n = 8 on;
    tails of about a quarter ulp of the lead term make the two orders part."""
    rng = np.random.default_rng(n)
    pool = np.array([-np.inf, np.inf, np.nan, 0.0, -0.0, -1.5, 2.0, 1e-300])
    raw = rng.choice(pool, size=(64, n, 5), p=[0.1, 0.02, 0.03, 0.25, 0.25, 0.15, 0.1, 0.1])
    view = np.moveaxis(raw, 1, -1)
    for x in (view, np.ascontiguousarray(view)):
        ref = np.max(x, axis=-1)
        got = ad.reduce_exact(np.maximum, x)
        zero, negative = x == 0.0, np.signbit(x)
        both_zeros = (ref == 0.0) & np.any(zero & negative, -1) & np.any(zero & ~negative, -1)
        assert np.array_equal(got.view(np.int64)[~both_zeros], ref.view(np.int64)[~both_zeros])
        assert np.all(got[both_zeros] == 0.0)
        assert np.array_equal(ad.reduce_exact(np.maximum, x, keepdims=True), got[..., None],
                              equal_nan=True)
        for mask in (x == 0.0, np.isnan(x), x > 1.0):
            assert np.array_equal(ad.reduce_exact(np.logical_or, mask), np.any(mask, axis=-1))
    finite = np.where(np.isfinite(raw), raw, 0.5)  # another axis, as amax allows
    assert np.array_equal(ad.amax(finite, axis=1, keepdims=True), np.max(finite, axis=1, keepdims=True))

    terms = rng.uniform(1.0, 2.0, size=(n, 4, 3))
    terms[1:] = 2.0 ** -54 * rng.integers(1, 4, size=(n - 1, 4, 3))

    def fold(t):  # a left fold along the first axis
        acc = t[0]
        for row in t[1:]:
            acc = acc + row
        return acc

    lane_last = np.moveaxis(terms, 0, -1)  # (4, 3, n)
    pairs = np.moveaxis(terms, 1, 0)  # (4, n, 3), summed over (n, 3) in C order
    pair_fold = fold(np.moveaxis(pairs.reshape(4, 3 * n), 1, 0))
    cases = [
        (terms[:, 0, 0].reshape(1, n), -1, fold(terms[:, :1, 0])),
        (terms[:, 0, 0].reshape(1, 1, n), -1, fold(terms[:, :1, :1])),
        (terms[:, :1, :1], 0, fold(terms[:, :1, :1])),
        (lane_last, -1, fold(terms)),
        (np.ascontiguousarray(lane_last), -1, fold(terms)),
        (np.asfortranarray(lane_last), -1, fold(terms)),
        (pairs, (1, 2), pair_fold),
        (pairs, (-1, 1), pair_fold),
        (pairs[:1], (1, 2), pair_fold[:1]),
    ]
    for x, axis, want in cases:
        np.testing.assert_array_equal(ad.reduce_exact(np.add, x, axis), want)
    assert ad.reduce_exact(np.add, pairs, (1, 2), keepdims=True).shape == (4, 1, 1)


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_reduce_exact_over_leading_axes_is_a_left_fold(layout):
    """Where the reduced axes already lead, reduce_exact skips the transpose
    (and, for one axis, the reshape) and must still give a Python left
    fold in C index order over them: on C-ordered, Fortran-ordered and
    strided inputs, for axis 0, (0, 1) and (1, 0), with keepdims (the
    reshape that replaces np.expand_dims), and with one output entry (the
    accumulate branch). Tails of a quarter ulp of the lead term make any
    other order show."""
    rng = np.random.default_rng(len(layout))
    terms = 2.0 ** -54 * rng.integers(1, 4, size=(9, 3, 4, 2))
    terms[0, 0] = rng.uniform(1.0, 2.0, size=(4, 2))

    def fold(t, k):  # left fold over the first k axes in C order
        rows = t.reshape((-1,) + t.shape[k:])
        acc = rows[0]
        for row in rows[1:]:
            acc = acc + row
        return acc

    def arrange(t):
        if layout == "F":
            return np.asfortranarray(t)
        if layout == "strided":
            wide = np.zeros(t.shape[:-1] + (2 * t.shape[-1],))
            wide[..., ::2] = t
            return wide[..., ::2]
        return np.ascontiguousarray(t)

    for x, axis, k in ((terms, 0, 1), (terms, (0, 1), 2), (terms, (1, 0), 2),
                       (terms[..., :1, :1], 0, 1), (terms[..., :1, :1], (0, 1), 2)):
        x = arrange(x)
        want = fold(np.ascontiguousarray(x), k)
        got = ad.reduce_exact(np.add, x, axis)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (axis, x.shape)
        kept = ad.reduce_exact(np.add, x, axis, keepdims=True)
        expanded = np.expand_dims(want, tuple(range(k)))
        assert kept.shape == expanded.shape and kept.tobytes() == expanded.tobytes()
    lone = arrange(terms[:, 0, 0, 0].reshape(9, 1))  # one output entry
    assert ad.reduce_exact(np.add, lone, 0).tobytes() == fold(terms[:, :1, 0, 0], 1).tobytes()


# the reductions that keep an order of their own, as the ad module
# docstring names them: (file in the package, innermost function)
OWN_ORDER = {
    ("ad/__init__.py", "reduce_exact"),  # the one rule itself
    ("ad/reverse.py", "_unbroadcast"),  # reverse-mode sums over the batch
    ("ad/reverse.py", "softmax"),  # the softmax VJP
    ("hamiltonian.py", "nuclear_repulsion"),  # sorted, a constant of the system
    ("optimizer.py", "estimate_energy"),  # statistics over walkers
    ("optimizer.py", "energy_gradient"),
    ("optimizer.py", "evaluate_energy"),
}
REDUCING = {"sum", "nansum", "cumsum", "reduce", "accumulate", "reduceat"}


def _reduction_calls(source: str) -> list:
    """(innermost function, line) of each call to a reducing attribute,
    np.sum, x.sum(), np.add.reduce or ufunc.accumulate alike; ad.sum, and
    the engine halves it dispatches to, are the rule and not among them."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr in REDUCING
                    and not (isinstance(child.func.value, ast.Name)
                             and child.func.value.id in ("ad", "forward", "reverse"))):
                found.append((scope, child.lineno))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if named else scope)

    visit(ast.parse(source), None)
    return found


def test_every_model_reduction_goes_through_reduce_exact():
    """No module of the package reduces an axis with a rule of its own
    beyond the exceptions the ad docstring names: each new np.sum, .sum(),
    np.add.reduce, np.add.accumulate or ufunc.reduce site fails here."""
    root = Path(ad.__file__).parent.parent
    stray = []
    for path in sorted(root.rglob("*.py")):
        name = path.relative_to(root).as_posix()
        stray += [f"{name}:{line} in {scope}" for scope, line in _reduction_calls(path.read_text())
                  if (name, scope) not in OWN_ORDER]
    assert not stray, "reductions outside reduce_exact: " + ", ".join(stray)
    assert _reduction_calls("def f(x):\n    return np.add.reduce(x) + x.sum() + ad.sum(x, 0)\n") \
        == [("f", 2), ("f", 2)]


def _engine_tests(source: str) -> list:
    """Lines of each isinstance call whose classes name Dual or Var."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2
            and {getattr(n, "attr", getattr(n, "id", None))
                 for n in ast.walk(node.args[1])} & {"Dual", "Var"}]


def test_model_code_does_not_ask_which_engine_runs_it():
    """ansatz.py and backbone.py are engine-generic: what they compute is
    decided by values and shapes, never by an isinstance test on ad.Dual or
    ad.Var; engine rules live in ad."""
    root = Path(ad.__file__).parent.parent
    found = [f"{name}:{line}" for name in ("ansatz.py", "backbone.py")
             for line in _engine_tests((root / name).read_text())]
    assert not found, "engine tests in model code: " + ", ".join(found)
    assert _engine_tests("isinstance(x, ad.Dual)\nisinstance(t, dict)\n"
                         "isinstance(t, (np.ndarray, Var))\n") == [1, 3]


def test_long_dot_product_bits_do_not_depend_on_blas_threads():
    """A one-head envelope-rate gradient over 10 001 walkers contracts to a
    dot product long enough for OpenBLAS to split its sum over threads.

    The thread pin only takes effect before numpy loads, so each count runs
    in its own process.
    """
    code = (
        "import numpy as np\n"
        "from sortlet_vmc import ad\n"
        "rng = np.random.default_rng(0)\n"
        "reach = rng.normal(size=10_001)\n"
        "tape = ad.GradientTape()\n"
        "rate = tape.leaf(rng.normal(size=1))\n"
        "out = ad.einsum('b,k->bk', reach, rate)\n"
        "print(tape.gradient(out, rate, seed=rng.normal(size=(10_001, 1))).tobytes().hex())\n"
    )
    src = str(Path(ad.__file__).resolve().parents[2])
    bits = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
        run = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        bits.append(run.stdout)
    assert bits[0] == bits[1]


# points inside each row's domain, away from the kink of absolute
TABLE_POINTS = np.array([-1.3, -0.45, 0.35, 0.8, 1.6])
POSITIVE_ONLY = {"log", "log1p", "sqrt"}


@pytest.mark.parametrize("name", sorted(ad.ELEMENTWISE))
def test_elementwise_table_rows_agree_across_engines(name):
    """Every table row: the three engines give the same value bits, and
    the derivatives the table generates match central differences."""
    op = getattr(ad, name)
    x = np.abs(TABLE_POINTS) if name in POSITIVE_ONLY else TABLE_POINTS
    rng = np.random.default_rng(17)
    tan, lap, seed = rng.normal(size=(5, 3)), rng.normal(size=5), rng.normal(size=5)

    plain = op(x)
    d = op(Dual(x, tan, lap))
    tape = GradientTape()
    p = tape.leaf(x)
    v = op(p)
    assert np.array_equal(d.val, plain) and np.array_equal(v.val, plain)

    h1, h2 = 1e-6, 1e-4
    d1 = (op(x + h1) - op(x - h1)) / (2.0 * h1)
    d2 = (op(x + h2) - 2.0 * plain + op(x - h2)) / (h2 * h2)
    np.testing.assert_allclose(d.tan, d1[:, None] * tan, rtol=1e-7, atol=1e-9)
    np.testing.assert_allclose(d.curv, d1 * lap + d2 * np.sum(tan * tan, axis=1),
                               rtol=1e-5, atol=1e-6)
    np.testing.assert_allclose(tape.gradient(v, p, seed=seed), d1 * seed, rtol=1e-7, atol=1e-9)


@pytest.mark.parametrize("name", sorted(ad.ELEMENTWISE))
def test_overwrite_writes_only_a_plain_operand(name):
    """overwrite=True: the plain engine returns its operand's buffer holding
    the bits op(x) would allocate; a Dual or Var operand is left as it was
    and gets the result of the call without the flag."""
    op = getattr(ad, name)
    x = np.abs(TABLE_POINTS) if name in POSITIVE_ONLY else TABLE_POINTS
    mine = x.copy()
    out = op(mine, overwrite=True)
    assert out is mine and np.array_equal(out, op(x))
    tan, lap = np.ones((5, 2)), np.ones(5)
    d = Dual(x.copy(), tan.copy(), lap.copy())
    got = op(d, overwrite=True)
    want = op(Dual(x, tan, lap))
    assert np.array_equal(d.val, x) and np.array_equal(d.tan, tan) and np.array_equal(d.curv, lap)
    assert all(np.array_equal(getattr(got, a), getattr(want, a)) for a in ("val", "tan", "curv"))
    v = GradientTape().leaf(x.copy())
    assert np.array_equal(op(v, overwrite=True).val, op(x)) and np.array_equal(v.val, x)


def test_concat_groups_match_two_concatenations():
    """A list operand of concat fills its blocks side by side per G-row, as
    a concat of the group reshaped and a second concat would; every output
    is one new C-ordered array in both engines, a constant gets zero lanes,
    and a Dual inside a group picks the Dual engine."""
    rng = np.random.default_rng(29)
    b, n, g, t = 3, 4, 2, 5
    a = rng.normal(size=(b, n, g, 3))
    c = rng.normal(size=(b, n, g, 1))
    e = np.broadcast_to(rng.normal(size=(1, n, 2)), (b, n, 2))
    group = np.concatenate([a, c], axis=-1).reshape(b, n, g * 4)
    want = np.concatenate([group, e], axis=-1)
    got = ad.concat([[a, c], e], axis=-1)
    assert got.flags.c_contiguous and np.array_equal(got, want)

    at = np.moveaxis(rng.normal(size=(t, b, n, g, 3)), 0, -1)  # lanes outermost in memory
    ct = rng.normal(size=(b, n, g, 1, t))
    da, dc = Dual(a, at, a * 2.0), Dual(c, ct, c * 3.0)
    out = ad.concat([[da, dc], e], axis=-1)
    assert out.val.flags.c_contiguous and out.tan.flags.c_contiguous
    assert np.array_equal(out.val, want)
    tan_group = np.concatenate([at, ct], axis=-2).reshape(b, n, g * 4, t)
    np.testing.assert_array_equal(out.tan, np.concatenate([tan_group, np.zeros((b, n, 2, t))], -2))
    np.testing.assert_array_equal(
        out.curv, np.concatenate([np.concatenate([a * 2.0, c * 3.0], -1).reshape(b, n, -1),
                                  np.zeros((b, n, 2))], -1))
    flat = ad.concat([e, Dual(a[..., 0, :2], at[..., 0, :2, :], a[..., 0, :2])], axis=1)
    assert flat.tan.flags.c_contiguous and flat.val.shape == (b, n + n, 2)


def test_take_matches_np_take_in_both_engines():
    """ad.take gathers along one axis into C-ordered arrays, a Dual's lanes
    with its values, whatever the index's shape."""
    rng = np.random.default_rng(31)
    x, tan = rng.normal(size=(3, 6, 2)), rng.normal(size=(3, 6, 2, 4))
    idx = np.array([[5, 0, 2], [1, 1, 4]])
    np.testing.assert_array_equal(ad.take(x, idx, 1), np.take(x, idx, axis=1))
    d = ad.take(Dual(x, tan, x * x), idx, -2)
    assert d.tan.flags.c_contiguous and d.tan.shape == (3, 2, 3, 2, 4)
    np.testing.assert_array_equal(d.val, np.take(x, idx, axis=1))
    np.testing.assert_array_equal(d.tan, np.take(tan, idx, axis=1))
    np.testing.assert_array_equal(d.curv, np.take(x * x, idx, axis=1))
    with pytest.raises(TypeError, match="take has no reverse-mode engine"):
        ad.take(GradientTape().leaf(x), idx, 1)


def test_where_and_minimum_with_a_broadcasting_mask():
    rng = np.random.default_rng(19)
    b, n, t = 3, 4, 2
    mask = np.array([True, False, True, False])  # (N,) against (B, N) values
    full, row = rng.normal(size=(b, n)), rng.normal(size=n)
    tan = rng.normal(size=(n, t))

    def engines(v, vt):
        tape = GradientTape()
        return v, Dual(v, vt, np.ones(v.shape)), tape.leaf(v)

    for x in engines(full, rng.normal(size=(b, n, t))):
        assert np.array_equal(ad.detach(ad.where(mask, x, 0.0)), np.where(mask, full, 0.0))
    for x in engines(row, tan):
        assert np.array_equal(ad.detach(ad.where(mask, x, full)), np.where(mask, row, full))
        assert np.array_equal(ad.detach(ad.minimum(x, full)), np.minimum(row, full))

    d = ad.where(mask, Dual(row, tan, np.ones(n)), full)
    assert d.tan.shape == (b, n, t) and d.curv.shape == (b, n)
    np.testing.assert_array_equal(d.tan, np.where(mask[:, None], tan, 0.0)[None].repeat(b, 0))
    np.testing.assert_array_equal(d.curv, np.where(mask, 1.0, 0.0)[None].repeat(b, 0))

    m = ad.minimum(Dual(row, tan, np.ones(n)), full)
    keep = row <= full
    assert m.tan.shape == (b, n, t) and m.curv.shape == (b, n)
    np.testing.assert_array_equal(m.tan, np.where(keep[..., None], tan, 0.0))
    np.testing.assert_array_equal(m.curv, np.where(keep, 1.0, 0.0))


# name: (op, numpy reference for its value)
FUSED = {
    "softmax": (ad.softmax, lambda x: np.exp(x) / np.sum(np.exp(x), axis=-1, keepdims=True)),
    "norm": (ad.norm, lambda x: np.linalg.norm(x, axis=-1)),
    "norm_eps": (lambda x: ad.norm(x, 0.3), lambda x: np.sqrt(np.sum(x * x, axis=-1) + 0.09)),
}


@pytest.mark.parametrize("name", sorted(FUSED))
def test_fused_last_axis_ops_agree_across_engines(name):
    """softmax and norm: the engines give the same value bits, and the
    Dual tangent and Laplacian and the Var gradient match central
    differences; norm has no Var engine and says so. The Dual input is the
    path x(s) = x + tan s + lap |s|^2 / 2T in T seed directions s, whose
    Laplacian in s is lap."""
    op, reference = FUSED[name]
    rng = np.random.default_rng(23)
    x = rng.normal(size=(3, 4))
    t = 5
    tan, lap = rng.normal(size=(3, 4, t)), rng.normal(size=(3, 4))

    plain = op(x)
    seed = rng.normal(size=plain.shape)
    d = op(Dual(x, tan, lap))
    assert np.array_equal(d.val, plain)
    np.testing.assert_allclose(plain, reference(x), rtol=1e-14)

    def path(s):
        return op(x + tan @ s + lap * (s @ s) / (2.0 * t))

    h1, h2 = 1e-6, 1e-4
    eye = np.eye(t)
    d1 = np.stack([(path(h1 * e) - path(-h1 * e)) / (2.0 * h1) for e in eye], axis=-1)
    d2 = np.sum([(path(h2 * e) - 2.0 * plain + path(-h2 * e)) / (h2 * h2) for e in eye], axis=0)
    np.testing.assert_allclose(d.tan, d1, rtol=1e-7, atol=1e-9)
    np.testing.assert_allclose(d.curv, d2, rtol=1e-5, atol=1e-6)

    tape = GradientTape()
    p = tape.leaf(x)
    if name != "softmax":
        with pytest.raises(TypeError, match="norm has no reverse-mode engine"):
            op(p)
        return
    v = op(p)
    assert np.array_equal(v.val, plain)

    def weighted(z):
        return float(np.sum(seed * op(z.reshape(x.shape))))

    fd = grad_central(weighted, x.ravel(), h=h1).reshape(x.shape)
    np.testing.assert_allclose(tape.gradient(v, p, seed=seed), fd, rtol=1e-7, atol=1e-9)


LI = load_system("system:\n  nuclei:\n    - element: Li\n      xyz: [0.0, 0.0, 0.0]\n")


def _scores_specs(monkeypatch) -> set:
    """Every einsum spec backbone.scores runs, featurize and the
    parameter-side folds of SortletWavefunction.bind included."""
    seen, einsum = set(), ad.einsum

    def spy(spec, a, b):
        seen.add(spec)
        return einsum(spec, a, b)

    monkeypatch.setattr(ad, "einsum", spy)
    wf = SortletWavefunction(LI, n_sortlets=4, hidden=8, layers=1)
    geom = backbone.electron_geometry(LI, np.ones((2, 3, 3)))[0]
    backbone.scores(LI, wf.bind(wf.theta0), geom)
    return seen


def test_contract_matches_einsum_on_every_scores_spec(monkeypatch):
    """contract against np.einsum, with a distinct size per index, on each
    spec backbone.scores runs and on every contraction the engines derive
    from it: the Dual tangent terms (the Laplacian terms contract like the
    value), the cross term and both reverse VJPs."""
    specs = _scores_specs(monkeypatch)
    assert {"bnk,bmk->bnm", "bnm,bmk->bnk", "nm,bmc->bnc"} <= specs
    size = dict(b=2, n=3, m=4, c=5, f=6, h=7, g=8, k=9, t=10)
    rng = np.random.default_rng(31)
    for spec in sorted(specs):
        a, b, o = spec.replace("->", ",").split(",")
        for x_sub, y_sub, out in ((a, b, o), (a + "t", b, o + "t"), (a, b + "t", o + "t"),
                                  (a + "t", b + "t", o), (o, b, a), (a, o, b)):
            x = rng.uniform(0.5, 1.5, size=[size[i] for i in x_sub])
            y = rng.uniform(0.5, 1.5, size=[size[i] for i in y_sub])
            got = contract(x_sub, y_sub, out, x, y)
            want = np.einsum(f"{x_sub},{y_sub}->{out}", x, y)
            assert got.shape == want.shape, (x_sub, y_sub, out)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_contract_matches_einsum_on_random_specs():
    """The plan's runs, stack axes, transposed views and result permutation
    on 300 random two-operand specs, a size-1 index among them."""
    rng = np.random.default_rng(61)
    size = dict(b=2, n=3, m=4, k=5, h=1, g=6, t=7)
    for _ in range(300):
        x_sub, y_sub = ("".join(rng.permutation(list(size))[:rng.integers(5)]) for _ in "xy")
        keep = set(x_sub) ^ set(y_sub) | {i for i in set(x_sub) & set(y_sub) if rng.random() < 0.5}
        out = "".join(rng.permutation(sorted(keep)))
        x = rng.normal(size=[size[i] for i in x_sub])
        y = rng.normal(size=[size[i] for i in y_sub])
        want = np.einsum(f"{x_sub},{y_sub}->{out}", x, y)
        got = contract(x_sub, y_sub, out, x, y)
        assert got.shape == want.shape, (x_sub, y_sub, out)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("k", [2, 3, 7, 8, 9, 20])
def test_dot_path_is_a_left_fold(k):
    """A contraction whose M and N are both 1 sums its K products as a
    Python left fold in index order, bit for bit: featurize's bnm,nm->bn
    partner means and a lone output entry, b,b->. The products are exact
    (powers of two on one side), and tails of about a quarter ulp of the
    lead term part a left fold from numpy's sum, pairwise from K = 8 on."""
    rng = np.random.default_rng(k)
    x = rng.uniform(1.0, 2.0, size=(6, 5, k))
    x[..., 1:] = 2.0 ** -54 * rng.integers(1, 4, size=(6, 5, k - 1))
    y = 2.0 ** rng.integers(-1, 2, size=(5, k)).astype(np.float64)

    def fold(products):  # along the last axis
        acc = products[..., 0]
        for i in range(1, k):
            acc = acc + products[..., i]
        return acc

    got = contract("bnm", "nm", "bn", x, y)
    assert got.shape == (6, 5) and np.array_equal(got, fold(x * y))
    assert np.array_equal(contract("b", "b", "", x[0, 0], y[0]), fold(x[0, 0] * y[0]))


def test_attention_products_stack_only_the_walker():
    """The attention update's tangent and the logits' cross term are one
    GEMM per walker: (N x M)(M x K*T) and (N x K*T)(K*T x M)."""
    assert plan("bnm", "bmkt", "bnkt")[1] == ("b", "n", "m", "kt")
    assert plan("bnkt", "bmkt", "bnm")[1] == ("b", "n", "kt", "m")


def test_logit_tangent_stacks_the_key_electron_instead_of_copying():
    """In bnk,bmkt->bnmt the second operand does not hold (m, t) as one run,
    so m becomes a stack axis beside the walker: both operands reach matmul
    as views of the input and the result is a transposed view."""
    assert plan("bnk", "bmkt", "bnmt")[1] == ("bm", "n", "k", "t")
    rng = np.random.default_rng(59)
    x, y = rng.normal(size=(2, 3, 5)), rng.normal(size=(2, 4, 5, 6))
    left, right = operands("bnk", "bmkt", "bnmt", x, y)
    assert np.shares_memory(left, x) and np.shares_memory(right, y)
    got = contract("bnk", "bmkt", "bnmt", x, y)
    np.testing.assert_allclose(got, np.einsum("bnk,bmkt->bnmt", x, y), rtol=1e-12, atol=1e-12)


# (x_sub, y_sub, out, side): contractions whose plan hands `side` to matmul
# as a transposed view: the cross term of the logits, the VJPs of a
# projection (with one row per walker, a GEMV each) and of the attention
# update, and a parameter gradient
TRANSPOSED = (("bnkt", "bmkt", "bnm", "right"), ("bnk", "hk", "bnh", "right"),
              ("bk", "hk", "bh", "right"), ("bnm", "bnk", "bmk", "left"),
              ("bnh", "bnk", "hk", "left"))
TRANSPOSED_SIZES = dict(b=5, n=8, m=8, h=32, k=16, t=24)


def _draw(rng, sub, size=TRANSPOSED_SIZES):
    return rng.normal(size=[size[i] for i in sub])


@pytest.mark.parametrize("x_sub,y_sub,out,side", TRANSPOSED)
def test_transposed_operands_are_views_of_the_input(x_sub, y_sub, out, side):
    rng = np.random.default_rng(37)
    x, y = _draw(rng, x_sub), _draw(rng, y_sub)
    left, right = operands(x_sub, y_sub, out, x, y)
    view, other = (left, right) if side == "left" else (right, left)
    assert view.strides[-2] == view.itemsize  # a transposed matrix: its rows are adjacent
    assert np.shares_memory(view, x if side == "left" else y)
    assert np.shares_memory(other, y if side == "left" else x)


@pytest.mark.parametrize("x_sub,y_sub,out,side", TRANSPOSED)
def test_transposed_view_plans_do_not_depend_on_batch_or_layout(x_sub, y_sub, out, side):
    """Each walker alone, and Fortran-ordered operands, give the batch's bits."""
    rng = np.random.default_rng(41)
    x, y = _draw(rng, x_sub), _draw(rng, y_sub)
    batch = contract(x_sub, y_sub, out, x, y)
    f = np.asfortranarray
    np.testing.assert_array_equal(contract(x_sub, y_sub, out, f(x), f(y)), batch)
    if out.startswith("b"):
        for i in range(len(x)):
            one = [z[i:i + 1] if sub.startswith("b") else z for z, sub in ((x, x_sub), (y, y_sub))]
            np.testing.assert_array_equal(contract(x_sub, y_sub, out, *one), batch[i:i + 1])


def test_an_operand_aliasing_its_transposed_partner_gives_the_same_bits():
    """numpy would run x @ x.T on one buffer as a SYRK. The cached kernel
    copies the transposed side, so matmul gets two buffers (a GEMM) and
    the bits of two distinct copies and of the uncached path."""
    x = np.random.default_rng(43).normal(size=(3, 8, 32))
    left, right = operands("bnk", "bmk", "bnm", x, x)
    assert not np.shares_memory(left, right)
    got = ad.einsum("bnk,bmk->bnm", x, x)
    assert got.tobytes() == ad.einsum("bnk,bmk->bnm", x, x.copy()).tobytes()
    assert got.tobytes() == contract_uncached("bnk", "bmk", "bnm", x, x).tobytes()


# specs whose kernels reach matmul in each way the plan allows: a copied
# operand (the cross term bnmt,bmkt->bnk), folded runs, transposed views on
# either side, a stacked key electron with a transposed result, the dot path
KERNEL_SPECS = (("bnmt", "bmkt", "bnk"), ("bnm", "bmkt", "bnkt"), ("bnkt", "bmkt", "bnm"),
                ("bnk", "hk", "bnh"), ("bnm", "bnk", "bmk"), ("bnk", "bmkt", "bnmt"),
                ("bnm", "nm", "bn"), ("bnh", "bnk", "hk"))


@pytest.mark.parametrize("x_sub,y_sub,out", KERNEL_SPECS)
def test_cached_kernels_give_the_uncached_bits(x_sub, y_sub, out):
    """shaped_plan caches one kernel per spec and shapes. Each gives the
    bits of oracles.contract_uncached, which resolves the spec's plan and
    arranges each operand generically at every call: at two shapes of one
    spec, on C- and Fortran-ordered operands."""
    rng = np.random.default_rng(len(x_sub + y_sub + out))
    for b in (5, 2):
        size = dict(TRANSPOSED_SIZES, b=b)
        x, y = _draw(rng, x_sub, size), _draw(rng, y_sub, size)
        kernel = shaped_plan(x_sub, y_sub, out, x.shape, y.shape)
        assert shaped_plan(x_sub, y_sub, out, x.shape, y.shape) is kernel
        want = contract_uncached(x_sub, y_sub, out, x, y)
        for xs, ys in ((x, y), (np.asfortranarray(x), np.asfortranarray(y))):
            got = kernel(xs, ys)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), b
            assert contract(x_sub, y_sub, out, xs, ys).tobytes() == want.tobytes()


def test_transposed_view_plans_do_not_depend_on_blas_threads():
    """Folded and transposed-view plans at H16 sizes (width 32, 48 lanes)
    agree bitwise under 1 and 2 BLAS threads. OpenBLAS threads two of them
    at these sizes: bnm,bmkt->bnkt and the sum over 512 x 16 rows in
    wnh,wnk->hk. The thread pin only takes effect before numpy loads, so
    each count runs in its own process."""
    code = (
        "import numpy as np\n"
        "from sortlet_vmc.ad.contract import contract\n"
        "size = dict(b=3, n=16, m=16, h=32, k=32, t=48, w=512)\n"
        "rng = np.random.default_rng(0)\n"
        "for x_sub, y_sub, out in (('bnkt', 'bmkt', 'bnm'), ('bnm', 'bmkt', 'bnkt'),\n"
        "                          ('bnm', 'bnkt', 'bmkt'), ('wnh', 'wnk', 'hk'),\n"
        "                          ('bnk', 'hk', 'bnh')):\n"
        "    x = rng.normal(size=[size[i] for i in x_sub])\n"
        "    y = rng.normal(size=[size[i] for i in y_sub])\n"
        "    print(contract(x_sub, y_sub, out, x, y).tobytes().hex())\n"
    )
    src = str(Path(ad.__file__).resolve().parents[2])
    bits = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
        run = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        bits.append(run.stdout)
    assert bits[0] and bits[0] == bits[1]


def _take_cases():
    rng = np.random.default_rng(47)
    # same-shape index: the sortlet's sort order
    x = rng.normal(size=(3, 4, 5))
    yield "same_shape", x, np.argsort(x, axis=-1), -1
    # broadcast (B, N, 1) index: the canonical electron gather of (B, N, 3)
    order = np.argsort(rng.normal(size=(3, 4)), axis=1)
    yield "broadcast", rng.normal(size=(3, 4, 3)), order[..., None], 1
    # negative axis, with repeats and more picks than the axis holds
    yield "negative_axis", rng.normal(size=(3, 5, 4)), rng.integers(0, 5, size=(3, 7, 4)), -2


@pytest.mark.parametrize("case", [c[0] for c in _take_cases()])
def test_take_along_matches_numpy_in_every_engine(case):
    """Plain, Dual and Var take_along against np.take_along_axis, bitwise,
    and the Var VJP against the np.add.at scatter."""
    _, x, idx, axis = next(c for c in _take_cases() if c[0] == case)
    rng = np.random.default_rng(53)
    want = np.take_along_axis(x, idx, axis=axis)
    np.testing.assert_array_equal(ad.take_along(x, idx, axis), want)

    tan, curv = rng.normal(size=x.shape + (6,)), rng.normal(size=x.shape)
    d = ad.take_along(Dual(x, tan, curv), idx, axis)
    np.testing.assert_array_equal(d.val, want)
    np.testing.assert_array_equal(d.tan, np.take_along_axis(tan, idx[..., None], axis=axis % x.ndim))
    np.testing.assert_array_equal(d.curv, np.take_along_axis(curv, idx, axis=axis))

    tape = GradientTape()
    p = tape.leaf(x)
    v = ad.take_along(p, idx, axis)
    np.testing.assert_array_equal(v.val, want)
    g = rng.normal(size=want.shape)
    np.testing.assert_array_equal(tape.gradient(v, p, seed=g),
                                  take_along_vjp_add_at(x.shape, idx, axis, g))



def test_take_ranked_matches_a_sort_in_every_engine():
    """_sort_parity against np.sort, rank axis first, on a moveaxis view
    with a tie, by the network and by the argsort fallback (a NaN row):
    the parity is score_parity's on every untied row, and the index it
    carries, or the fallback's, gathers the sorted values from the input
    and is the stable argsort's on every untied row. gap_logs, which sorts
    by it, returns that parity and the plain value in every engine."""
    rng = np.random.default_rng(59)
    x = np.moveaxis(rng.normal(size=(3, 6, 4)), -1, -2)  # (3, 4, 6), a view
    x[0, 1, 4] = x[0, 1, 2]
    untied = np.ones(x.shape[:-1], dtype=bool)
    untied[0, 1] = False
    with_nan = x.copy()
    with_nan[2, 3, 0] = np.nan
    for keys in (x, with_nan):
        want = np.moveaxis(np.sort(keys, axis=-1), -1, 0)
        assert want.shape == (6, 3, 4)
        stable = ad._ranked_index(np.argsort(keys, axis=-1, kind="stable"))
        vals, parity, index = ad._sort_parity(keys, carry=True)
        if keys is x:  # the network carries an index only when asked
            assert ad._sort_parity(keys)[2] is None
        np.testing.assert_array_equal(vals, want)
        np.testing.assert_array_equal(ad._sort_parity(keys)[0], vals)
        np.testing.assert_array_equal(parity[untied], ad.score_parity(keys)[untied])
        np.testing.assert_array_equal(np.ravel(keys)[index], vals)
        np.testing.assert_array_equal(index[:, untied], stable[:, untied])
        logmag, gap_parity, _ = ad.gap_logs(keys)
        np.testing.assert_array_equal(gap_parity, parity)
        tan, curv = rng.normal(size=keys.shape + (5,)), rng.normal(size=keys.shape)
        for engine in (Dual(keys, tan, curv), GradientTape().leaf(keys)):
            other, other_parity, _ = ad.gap_logs(engine)
            assert other.val.tobytes() == logmag.tobytes()
            np.testing.assert_array_equal(other_parity, parity)


SPECIALS = {"zeros": [0.0, -0.0, 1.0], "inf": [0.0, -0.0, 1.0, np.inf, -np.inf],
            "nan": [0.0, -0.0, 1.0, np.inf, -np.inf, np.nan]}


def _special_rows(rng, n, rows, special):
    """Rows of n keys mixing normals with ties, zeros of both signs and the
    other SPECIALS[special]."""
    x = rng.normal(size=(rows, n))
    specials = np.array(SPECIALS[special])
    pick = rng.random(size=x.shape) < 0.3
    x[pick] = rng.choice(specials, size=pick.sum())
    return x


def _bit_sorted(a, axis):
    """Each line's bit patterns in ascending order: equal for two lines that
    are permutations of the same floats."""
    return np.sort(np.ascontiguousarray(a).view(np.int64), axis=axis)


@pytest.mark.parametrize("n", range(1, ad.NETWORK_MAX + 2))
@pytest.mark.parametrize("special", sorted(SPECIALS))
def test_take_ranked_network_matches_sort_and_score_parity(n, special):
    """The compare-exchange network (N <= NETWORK_MAX, all finite) and its
    argsort fallback against np.sort and score_parity. Values are np.sort's
    as floats, bit for bit on every row without zeros of both signs, and a
    permutation of each row's own bits on every row; the parity is
    score_parity's on every untied row. gap_logs, which sorts by it, gives
    plain, Dual.val and Var.val the same bits, parity and ties."""
    rng = np.random.default_rng(n)
    x = np.moveaxis(_special_rows(rng, n, 600, special).reshape(30, 20, n), -1, 0)
    x = np.moveaxis(np.ascontiguousarray(x), 0, -1)  # the layout backbone.scores returns
    vals, parity, _ = ad._sort_parity(x)
    want = np.moveaxis(np.sort(x, axis=-1), -1, 0)
    np.testing.assert_array_equal(vals, want)  # as floats, NaN equal to NaN
    mixed_zeros = ((x == 0) & np.signbit(x)).any(-1) & ((x == 0) & ~np.signbit(x)).any(-1)
    assert (mixed_zeros.any() or n == 1) and (~mixed_zeros).any()
    np.testing.assert_array_equal(vals.view(np.int64)[:, ~mixed_zeros],
                                  want.view(np.int64)[:, ~mixed_zeros])
    np.testing.assert_array_equal(_bit_sorted(vals, 0), _bit_sorted(np.moveaxis(x, -1, 0), 0))

    srt = np.sort(x, axis=-1)
    untied = ~(srt[..., 1:] == srt[..., :-1]).any(-1) & ~np.isnan(x).any(-1)
    assert untied.any()
    np.testing.assert_array_equal(parity[untied], ad.score_parity(x)[untied])
    if n == 1:
        return
    tan, curv = rng.normal(size=x.shape + (2,)), rng.normal(size=x.shape)
    with np.errstate(invalid="ignore", divide="ignore"):
        plain = ad.gap_logs(x)
        dual = ad.gap_logs(Dual(x, tan, curv))
        var = ad.gap_logs(GradientTape().leaf(x))
    for logmag, other_parity, tied in (dual, var):
        assert logmag.val.tobytes() == plain[0].tobytes()
        np.testing.assert_array_equal(other_parity, plain[1])
        np.testing.assert_array_equal(tied, plain[2])


@pytest.mark.parametrize("n", range(2, ad.NETWORK_MAX + 1))
def test_take_ranked_sorts_every_zero_one_row(n):
    """By the 0-1 principle, a comparator network that sorts all 2^N rows of
    zeros and ones sorts every input of N keys."""
    rows = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    vals = ad._sort_parity(rows.astype(np.float64))[0]
    np.testing.assert_array_equal(vals, np.sort(rows, axis=-1).T)


@pytest.mark.parametrize("n", [3, 8, ad.NETWORK_MAX, ad.NETWORK_MAX + 1])
def test_take_ranked_never_writes_its_input(n):
    """The sort runs on a copy, also where moving the key axis first would
    give a view of the caller's array: a C-contiguous (1, N) or (1, 1, N)
    row, and the rank-first view backbone.scores returns, in every engine."""
    rng = np.random.default_rng(n)
    rank_first = rng.normal(size=(n, 2, 3))
    for x in (rng.normal(size=(1, n)), rng.normal(size=(1, 1, n)), rng.normal(size=(4, n)),
              np.moveaxis(rank_first, 0, -1)):
        before = x.copy()
        np.testing.assert_array_equal(ad._sort_parity(x)[0], np.moveaxis(np.sort(x, -1), -1, 0))
        assert x.tobytes() == before.tobytes()
        for arg in (x, Dual(x, np.zeros(x.shape + (1,)), np.zeros(x.shape)),
                    GradientTape().leaf(x)):
            ad.gap_logs(arg)
            assert x.tobytes() == before.tobytes()


def _sortlet_bits(sortlet, raw, tan, curv, seed) -> list:
    """The bytes of sign and logmag in every engine, the Dual lanes and
    Laplacian and the Var gradient of sum(seed * logmag), for scores given
    as the (B, K, N) moveaxis view of raw (B, N, K) that backbone.scores
    returns."""
    def heads(x):
        return ad.moveaxis(x, -1, -2)

    plain = sortlet(heads(raw))
    dual = sortlet(heads(Dual(raw, tan, curv)))
    tape = GradientTape()
    leaf = tape.leaf(raw)
    var = sortlet(heads(leaf))
    grad = tape.gradient(var.logmag, leaf, seed=seed)
    return [a.tobytes() for a in (plain.sign, plain.logmag, dual.sign, dual.logmag.val,
                                  dual.logmag.tan, dual.logmag.curv, var.sign, var.logmag.val,
                                  grad)]


@pytest.mark.parametrize("n", range(1, ad.NETWORK_MAX + 2))
@pytest.mark.parametrize("special", sorted(SPECIALS))
def test_sortlet_logs_match_the_composed_ops_bitwise(n, special):
    """sortlet_logs over ad.gap_logs against the composition it fuses
    (oracles.composed_sortlet_logs): sign, value, Dual lanes and
    Laplacian and the Var gradient, bit for bit, on rows with exact ties,
    zeros of both signs and SPECIALS[special], seeded by normals and zeros
    of both signs, on the moveaxis view backbone.scores returns, and on
    lone rows. The plain value is the composed Dual.val's, NaN payloads
    included."""
    rng = np.random.default_rng(100 + n)
    b, k, t = 6, 5, 3
    raw = np.ascontiguousarray(np.moveaxis(
        _special_rows(rng, n, b * k, special).reshape(b, k, n), -1, -2))  # (b, n, k)
    tan, curv = rng.normal(size=raw.shape + (t,)), rng.normal(size=raw.shape)
    seed = rng.normal(size=(b, k))
    seed[rng.random(size=seed.shape) < 0.2] = 0.0
    seed[rng.random(size=seed.shape) < 0.2] = -0.0
    runs = [(raw, tan, curv, seed)]
    for i, j in ((0, 0), (2, 3), (5, 4)):
        one = (slice(i, i + 1), slice(None), slice(j, j + 1))
        runs.append((raw[one], tan[one], curv[one], seed[i:i + 1, j:j + 1]))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for args in runs:
            got, want = _sortlet_bits(sortlet_logs, *args), _sortlet_bits(composed_sortlet_logs, *args)
            # the composition's plain engine added the wrap gap's log in place, and on
            # a lone row numpy's one-entry add may keep the other operand's NaN; its
            # Dual.val and Var.val, which the fused value matches, did not
            want[1] = want[3]
            assert got == want


def _dual_and_bytes(rng, shape, t=4):
    d = Dual(rng.normal(size=shape), rng.normal(size=shape + (t,)), rng.normal(size=shape))
    return d, [(a, a.tobytes()) for a in (d.val, d.tan, d.curv)]


def _assert_dual_equal(got, val, tan, curv):
    for have, want in ((got.val, val), (got.tan, tan), (got.curv, curv)):
        assert have.shape == want.shape
        np.testing.assert_array_equal(have, want)


@pytest.mark.parametrize("spec", ["bnk,bmk->bnm", "bnm,nk->kbm"])
def test_dual_einsum_accumulates_in_place_without_writing_its_operands(spec):
    """Dual x Dual einsum sums its tangent and Laplacian terms into fresh
    results: operands keep their bytes and the result has the bits of the
    out-of-place sums. bnm,nk->kbm's result is a transposed view."""
    a_sub, b_sub, out = spec.replace("->", ",").split(",")
    size = dict(b=3, n=4, m=5, k=6)
    rng = np.random.default_rng(61)
    a, a_bytes = _dual_and_bytes(rng, tuple(size[i] for i in a_sub))
    b, b_bytes = _dual_and_bytes(rng, tuple(size[i] for i in b_sub))
    got = ad.einsum(spec, a, b)
    for arr, before in a_bytes + b_bytes:
        assert arr.tobytes() == before
    at, bt, ot = a_sub + "t", b_sub + "t", out + "t"
    value = contract(a_sub, b_sub, out, a.val, b.val)
    if spec == "bnm,nk->kbm":
        assert not value.flags.c_contiguous
    _assert_dual_equal(
        got, value,
        contract(at, b_sub, ot, a.tan, b.val) + contract(a_sub, bt, ot, a.val, b.tan),
        contract(a_sub, b_sub, out, a.curv, b.val) + contract(a_sub, b_sub, out, a.val, b.curv)
        + 2.0 * contract(at, bt, out, a.tan, b.tan))


def test_norm_reads_a_shared_tangent_without_copying_it():
    """ad.displacements gives every center the point's own tangent, broadcast.
    ad.norm of that block has the bits of the same Dual with the tangent
    copied out, for one eps and for a softened and an exact length, and
    allocates less than one copy of the broadcast tangent."""
    rng = np.random.default_rng(71)
    r = ad.seed_positions(rng.normal(size=(16, 4, 3)))
    block = ad.displacements(r, rng.normal(size=(64, 3)))
    assert block.tan.strides[2] == 0
    copied = Dual(block.val, np.ascontiguousarray(block.tan), np.ascontiguousarray(block.curv))
    for eps in (0.1, (0.1, 0.0)):
        got, want = ad.norm(block, eps), ad.norm(copied, eps)
        for g, w in zip(*((got, want) if isinstance(eps, tuple) else ((got,), (want,)))):
            for part in ("val", "tan", "curv"):
                assert getattr(g, part).tobytes() == getattr(w, part).tobytes(), (eps, part)
    tracemalloc.start()
    try:
        ad.norm(block, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < block.tan.size * block.tan.itemsize


def test_fused_and_binary_dual_ops_do_not_write_their_operands():
    """softmax, norm, and Dual * Dual and Dual / Dual with broadcast shapes
    (each way round) reuse their own temporaries only: operands keep their
    bytes and results have the bits of the out-of-place formulas."""
    rng = np.random.default_rng(67)
    x, x_bytes = _dual_and_bytes(rng, (3, 2, 5))
    y = ad._softmax(x.val)
    u = x.tan - _axis_dot(y, x.tan)[..., None, :]
    w = x.curv + _lane_dot(u, u)
    _assert_dual_equal(ad.softmax(x), y, y[..., None] * u, y * (w - _lane_dot(y, w)[..., None]))
    f = ad._norm(x.val)
    tan = _axis_dot(x.val, x.tan) / f[..., None]
    lanes = x.tan.reshape(f.shape + (-1,))
    curv = (_lane_dot(lanes, lanes) + _lane_dot(x.val, x.curv) - _lane_dot(tan, tan)) / f
    _assert_dual_equal(ad.norm(x), f, tan, curv)

    small, small_bytes = _dual_and_bytes(rng, (2, 1))
    for p, q in ((x, small), (small, x)):
        _assert_dual_equal(p * q, p.val * q.val,
                           p.tan * q.val[..., None] + p.val[..., None] * q.tan,
                           p.curv * q.val + 2.0 * _lane_dot(p.tan, q.tan) + p.val * q.curv)
        ratio = p.val / q.val
        wt = (p.tan - ratio[..., None] * q.tan) / q.val[..., None]
        _assert_dual_equal(p / q, ratio, wt,
                           (p.curv - 2.0 * _lane_dot(wt, q.tan) - ratio * q.curv) / q.val)
    for arr, before in x_bytes + small_bytes:
        assert arr.tobytes() == before
