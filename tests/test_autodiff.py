import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sortlet_vmc import ad
from sortlet_vmc.ad import Dual, GradientTape
from sortlet_vmc.ad.fd import grad_central, hessian_diag_central

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
    parts = ad.stack([q, s * 0.5, ad.softplus(x[1])], axis=0)
    return ad.sum(ad.log(ad.absolute(parts) + 2.0), axis=0)


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
    v2 = ad.symsum(p[:, perm], axis=1)
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
        return ad.stack([ad.tanh(p[0] * p[1]), ad.exp(p[2] * 0.1) * p[0],
                         ad.sqrt(ad.square(p[3]) + 1.0)], axis=0)

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


MODEL_SPECS = ("bnf,fh->bnh", "bnh,hg->bng", "bng,bmg->bnm", "b,k->bk")
# distinct sizes, so a contraction that swaps two axes cannot pass
ORACLE_SIZES = dict(b=4, n=3, m=5, f=6, h=7, g=2, k=3, t=4)


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
    size = dict(b=4, n=3, m=3, f=13, h=32, g=32, k=16, t=9)
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
    """Ops that sum over seed lanes give each entry's Laplacian the same bits
    alone, inside a batch, and from transposed or Fortran-ordered tangents."""
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


def test_mixing_engines_raises():
    tape = GradientTape()
    p = tape.leaf(np.ones(3))
    d = seed_flat(np.ones(3))
    with pytest.raises(TypeError):
        ad.einsum("i,i->i", d, p)
    with pytest.raises(TypeError):
        d * p


def test_amax_and_detach():
    d = seed_flat(np.array([1.0, 5.0, 2.0]))
    m = ad.amax(d, axis=0)
    assert isinstance(m, np.ndarray) or np.isscalar(m)
    assert float(m) == 5.0
    assert np.array_equal(ad.detach(d), d.val)


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
