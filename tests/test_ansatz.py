import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sortlet_vmc import ad
from sortlet_vmc.ad import Dual, GradientTape
from sortlet_vmc.ad.fd import grad_central
from sortlet_vmc.ansatz import (
    BIG_NEG,
    SignedLog,
    canonical_order,
    envelope_distance_sum,
    mix_signed_logs,
    pair_log_factor,
    score_parity,
    sortlet_logs,
    vandermonde_logs,
)
from sortlet_vmc.geometry import SystemSpec


def sort_with_parity(values):
    """Merge-sort a 1-D sequence, returning (sorted array, permutation parity).

    Parity is (-1)**inversions, counted exactly during the merges; the cost
    is O(N log N) comparisons. Ties contribute no inversions.
    """
    a = [float(v) for v in values]
    n = len(a)
    buf = a[:]
    inversions = 0
    width = 1
    while width < n:
        src, dst = a, buf
        for lo in range(0, n, 2 * width):
            mid = min(lo + width, n)
            hi = min(lo + 2 * width, n)
            i, j, k = lo, mid, lo
            while i < mid and j < hi:
                if src[j] < src[i]:
                    dst[k] = src[j]
                    inversions += mid - i
                    j += 1
                else:
                    dst[k] = src[i]
                    i += 1
                k += 1
            dst[k:hi] = src[i:mid] if i < mid else src[j:hi]
        a, buf = buf, a
        width *= 2
    return np.array(a), (-1 if inversions % 2 else 1)


def brute_parity(v):
    inv = sum(1 for i in range(len(v)) for j in range(i + 1, len(v)) if v[i] > v[j])
    return -1 if inv % 2 else 1


def test_sort_with_parity_basics():
    srt, par = sort_with_parity([3.0, 1.0, 2.0])
    np.testing.assert_array_equal(srt, [1.0, 2.0, 3.0])
    assert par == 1  # two inversions
    assert sort_with_parity([1.0, 2.0])[1] == 1
    assert sort_with_parity([2.0, 1.0])[1] == -1
    assert sort_with_parity([5.0])[1] == 1


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, st.integers(1, 24),
                  elements=st.floats(-100, 100, width=16)))
def test_sort_with_parity_matches_brute_force(v):
    srt, par = sort_with_parity(v)
    np.testing.assert_array_equal(srt, np.sort(v))
    assert par == brute_parity(list(v))


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(np.float64, (3, 7), elements=st.floats(-50, 50, width=16)))
def test_score_parity_matches_merge_parity(batch):
    par = score_parity(batch)
    for row, p in zip(batch, par):
        assert p == sort_with_parity(row)[1]


def test_canonical_order():
    rng = np.random.default_rng(12)
    spins = np.array([-1, 1, 1, -1, 1, 1])  # sectors interleaved on purpose
    pos = rng.normal(size=(7, 6, 3))
    pos[:, 2, 0] = pos[:, 1, 0]  # a tie in x falls through to y and z
    order, parity = canonical_order(spins, pos)
    canonical = np.take_along_axis(pos, order[..., None], axis=1)
    assert np.all(spins[order] == spins)  # every slot keeps its spin
    for row, p in zip(order, parity):
        assert p == brute_parity(list(row))

    for perm in ([0, 2, 1, 3, 4, 5], [3, 1, 4, 0, 5, 2]):  # one and three transpositions
        relabelled = pos[:, perm]
        order2, parity2 = canonical_order(spins, relabelled)
        assert np.array_equal(np.take_along_axis(relabelled, order2[..., None], axis=1),
                              canonical)
        assert np.array_equal(parity2, -parity)

    again, parity3 = canonical_order(spins, canonical)
    assert np.array_equal(again, np.broadcast_to(np.arange(6), again.shape))
    assert np.all(parity3 == 1)

    order4, parity4 = canonical_order(spins, np.asfortranarray(pos))
    assert np.array_equal(order4, order) and np.array_equal(parity4, parity)


def test_score_parity_matches_brute_force_with_ties():
    """The pair-comparison XOR path, N = 1..64, with ties (which count no
    inversion) and on a moveaxis view."""
    rng = np.random.default_rng(14)
    for n in range(1, 65):
        raw = rng.integers(0, max(2, n // 2), size=(3, n, 2)).astype(np.float64)
        values = np.moveaxis(raw, 1, -1)  # (3, 2, n), non-contiguous
        par = score_parity(values)
        assert par.shape == (3, 2)
        for row, p in zip(values.reshape(-1, n), par.ravel()):
            assert p == brute_parity(list(row))


def test_score_parity_large_n_uses_cycle_path():
    rng = np.random.default_rng(0)
    v = rng.normal(size=200)  # > the small-N cutoff
    assert score_parity(v[None])[0] == brute_parity(list(v))


def test_sortlet_value_hand_example():
    # sorted [1,2,3]: gaps 1,1 wrap 2 -> product 2; one inversion pair swap
    sl = sortlet_logs(np.array([[1.0, 3.0, 2.0]]))
    assert sl.sign[0] == -1
    assert sl.logmag[0] == pytest.approx(np.log(2.0), abs=1e-15)
    # identity ordering gives +
    sl2 = sortlet_logs(np.array([[1.0, 2.0, 3.0]]))
    assert sl2.sign[0] == 1


def test_sortlet_two_electrons_is_signed_square():
    a, b = 0.3, 1.1
    sl = sortlet_logs(np.array([[a, b], [b, a]]))
    np.testing.assert_allclose(sl.logmag, 2.0 * np.log(b - a), atol=1e-14)
    assert sl.sign.tolist() == [1, -1]


def test_sortlet_single_electron_is_bare_score():
    sl = sortlet_logs(np.array([[0.7], [-0.2], [0.0]]))
    assert sl.sign.tolist() == [1, -1, 0]
    assert sl.logmag[0] == pytest.approx(np.log(0.7))
    assert sl.logmag[2] == BIG_NEG


def test_sortlet_tie_vanishes_with_finite_derivatives():
    scores = np.array([[0.5, 0.5, 1.0]])
    t = 3
    d = Dual(scores, np.random.default_rng(1).normal(size=(1, 3, t)), np.zeros((1, 3)))
    sl = sortlet_logs(d)
    assert sl.sign[0] == 0
    assert sl.logmag.val[0] == BIG_NEG
    assert np.all(np.isfinite(sl.logmag.tan)) and np.all(np.isfinite(sl.logmag.curv))


def test_sortlet_logs_agree_across_engines_on_a_moveaxis_view():
    """sortlet_logs gathers both gap ends at once from the (B, K, N) moveaxis
    view that backbone.scores returns. Plain, Dual.val and Var.val are
    bitwise equal, and equal to the result on a contiguous copy; a tied
    head has sign 0, an all-zero tangent and a zero Laplacian."""
    rng = np.random.default_rng(21)
    b, n, k, t = 3, 8, 5, 4
    raw = rng.normal(size=(b, n, k))
    raw[1, 5, 3] = raw[1, 2, 3]  # walker 1, head 3: two scores tie
    plain = sortlet_logs(np.moveaxis(raw, -1, -2))
    dual = sortlet_logs(ad.moveaxis(Dual(raw, rng.normal(size=(b, n, k, t)),
                                         rng.normal(size=(b, n, k))), -1, -2))
    var = sortlet_logs(ad.moveaxis(GradientTape().leaf(raw), -1, -2))
    contiguous = sortlet_logs(np.ascontiguousarray(np.moveaxis(raw, -1, -2)))
    for other in (dual.logmag.val, var.logmag.val, contiguous.logmag):
        assert np.array_equal(other, plain.logmag)
    for other in (dual.sign, var.sign, contiguous.sign):
        np.testing.assert_array_equal(other, plain.sign)
    assert plain.sign[1, 3] == 0 and np.count_nonzero(plain.sign) == b * k - 1
    assert plain.logmag[1, 3] == BIG_NEG
    assert not np.any(dual.logmag.tan[1, 3]) and dual.logmag.curv[1, 3] == 0.0
    assert np.all(np.isfinite(dual.logmag.tan)) and np.any(dual.logmag.tan[0])


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(np.float64, (2, 6), elements=st.floats(-10, 10, width=16)),
       st.permutations(range(6)))
def test_sortlet_antisymmetry_is_bitwise(scores, perm):
    perm = np.array(perm)
    base = sortlet_logs(scores)
    permuted = sortlet_logs(scores[:, perm])
    assert np.array_equal(base.logmag, permuted.logmag)
    swap = brute_parity(list(perm))
    np.testing.assert_array_equal(permuted.sign, swap * base.sign)


def test_sortlet_gradient_matches_fd():
    rng = np.random.default_rng(4)
    s = rng.normal(size=(1, 5))
    d = Dual(s, np.eye(5)[None], np.zeros((1, 5)))
    sl = sortlet_logs(d)
    fd = grad_central(lambda z: sortlet_logs(z[None]).logmag[0], s[0], h=1e-6)
    np.testing.assert_allclose(sl.logmag.tan[0], fd, rtol=1e-6, atol=1e-9)


def test_sortlet_reverse_gradient_matches_forward():
    rng = np.random.default_rng(8)
    s = rng.normal(size=(2, 4))
    d = Dual(s, np.broadcast_to(np.eye(4)[None], (2, 4, 4)).copy(), np.zeros((2, 4)))
    fwd = sortlet_logs(d).logmag.tan  # (2, 4)
    tape = GradientTape()
    p = tape.leaf(s)
    out = sortlet_logs(p).logmag
    for b in range(2):
        seed = np.zeros(2)
        seed[b] = 1.0
        g = tape.gradient(out, p, seed=seed)
        np.testing.assert_allclose(g[b], fwd[b], rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(g[1 - b], 0.0, atol=0.0)


@settings(max_examples=50, deadline=None)
@given(hnp.arrays(np.float64, (6,), elements=st.floats(-5, 5, width=16)))
def test_vandermonde_matches_brute_product(s):
    sl = vandermonde_logs(s[None])
    prod = 1.0
    for i in range(6):
        for j in range(i + 1, 6):
            prod *= s[j] - s[i]
    if prod == 0.0:
        assert sl.sign[0] == 0
    else:
        assert sl.sign[0] == np.sign(prod)
        np.testing.assert_allclose(sl.logmag[0], np.log(np.abs(prod)), rtol=1e-10)


def test_vandermonde_blocking_is_consistent():
    rng = np.random.default_rng(2)
    s = rng.normal(size=(3, 50))
    a = vandermonde_logs(s, block=7)
    b = vandermonde_logs(s, block=1024)
    np.testing.assert_allclose(a.logmag, b.logmag, rtol=1e-12)
    np.testing.assert_array_equal(a.sign, b.sign)


def test_mix_signed_logs_hand_example():
    signs = np.array([[1, -1, 1]])
    logmags = np.array([[0.0, 1.0, 2.0]])
    w = np.array([0.5, 1.0, 0.25])
    direct = 0.5 * np.exp(0.0) - 1.0 * np.exp(1.0) + 0.25 * np.exp(2.0)
    out = mix_signed_logs(signs, logmags, w)
    assert out.sign[0] == np.sign(direct)
    np.testing.assert_allclose(out.logmag[0], np.log(np.abs(direct)), rtol=1e-12)


def test_mix_signed_logs_global_flip_is_exact():
    rng = np.random.default_rng(3)
    signs = rng.choice([-1, 1], size=(5, 8))
    logmags = rng.normal(size=(5, 8)) * 3
    w = rng.normal(size=8)
    a = mix_signed_logs(signs, logmags, w)
    b = mix_signed_logs(-signs, logmags, w)
    assert np.array_equal(b.sign, -a.sign)
    assert np.array_equal(b.logmag, a.logmag)


def test_mix_signed_logs_all_dead_heads():
    signs = np.zeros((2, 4), dtype=np.int64)
    logmags = np.full((2, 4), BIG_NEG)
    out = mix_signed_logs(signs, logmags, np.ones(4))
    assert np.all(out.sign == 0)
    assert np.all(out.logmag == BIG_NEG)


def test_mix_signed_logs_weight_gradient_survives_zero_weight():
    signs = np.array([[1, 1]])
    logmags = np.array([[0.3, 0.9]])
    tape = GradientTape()
    w = tape.leaf(np.array([0.0, 1.0]))
    out = mix_signed_logs(signs, logmags, w)
    g = tape.gradient(out.logmag, w)
    # d log|w0 e^a + w1 e^b| / dw0 at w0=0 is e^a / e^b
    np.testing.assert_allclose(g[0], np.exp(0.3) / np.exp(0.9), rtol=1e-12)
    assert np.all(np.isfinite(g))


def test_pair_log_factor_hand_value():
    spins = np.array([1, -1])
    pos = np.array([[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]])
    raw = np.array([0.1, 0.4])
    b = np.logaddexp(0.0, raw)
    expect = -0.5 * b[1] / (b[1] ** 2 + 1.0)
    np.testing.assert_allclose(pair_log_factor(pos, spins, raw), [expect], rtol=1e-12)
    # same-spin pair pulls in the parallel strength instead
    spins2 = np.array([1, 1])
    expect2 = -0.25 * b[0] / (b[0] ** 2 + 1.0)
    np.testing.assert_allclose(pair_log_factor(pos, spins2, raw), [expect2], rtol=1e-12)


def test_pair_log_factor_single_electron_is_zero():
    out = pair_log_factor(np.zeros((4, 1, 3)), np.array([1]), np.array([0.1, 0.4]))
    np.testing.assert_array_equal(out, np.zeros(4))


def test_pair_log_factor_permutation_invariant_bitwise():
    # the pair sum runs in input order, so a raw relabelling agrees up to
    # rounding; in canonical order (what signed_log passes) it is bitwise
    rng = np.random.default_rng(5)
    spins = np.array([1, 1, 1, -1, -1])
    pos = rng.normal(size=(3, 5, 3))
    raw = rng.normal(size=2)
    base = pair_log_factor(pos, spins, raw)
    perm = np.array([2, 0, 1, 4, 3])  # preserves the spin pattern
    np.testing.assert_allclose(pair_log_factor(pos[:, perm], spins, raw), base, rtol=1e-12)
    canonical = [np.take_along_axis(p, canonical_order(spins, p)[0][..., None], axis=1)
                 for p in (pos, pos[:, perm])]
    assert np.array_equal(pair_log_factor(canonical[0], spins, raw),
                          pair_log_factor(canonical[1], spins, raw))


def test_pair_log_factor_beta_gradient_matches_fd():
    rng = np.random.default_rng(6)
    spins = np.array([1, 1, -1])
    pos = rng.normal(size=(2, 3, 3))
    raw = np.array([0.2, -0.3])
    tape = GradientTape()
    p = tape.leaf(raw)
    g = tape.gradient(pair_log_factor(pos, spins, p), p)  # sum over batch
    fd = grad_central(lambda z: float(np.sum(pair_log_factor(pos, spins, z))), raw, h=1e-6)
    np.testing.assert_allclose(g, fd, rtol=1e-6)


def test_envelope_distance_sum():
    sys = SystemSpec(nuclei_positions=np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]),
                     charges=np.array([1, 1]), n_up=1, n_down=1)
    pos = np.array([[[0.5, 0.0, 0.0], [1.8, 0.0, 0.0]]])
    np.testing.assert_allclose(envelope_distance_sum(sys, pos), [0.5 + 0.2], rtol=1e-12)


def test_signed_log_value_roundtrip():
    sl = SignedLog(np.array([-1, 0, 1]), np.array([0.5, BIG_NEG, 1.0]))
    np.testing.assert_allclose(sl.value(), [-np.exp(0.5), 0.0, np.exp(1.0)])


@pytest.mark.parametrize("n", range(2, ad.NETWORK_MAX + 2))
def test_sortlet_logs_of_a_lone_row_match_the_batch(n):
    """A (1, 1, N) row gets the bits it has inside a batch, in every engine:
    the log gaps are summed in gap order whatever the batch shape, where
    numpy's own sum over a lone row of N >= 8 goes pairwise."""
    rng = np.random.default_rng(n)
    b, k, t = 4, 3, 5
    raw = rng.normal(size=(b, n, k))
    tan, curv = rng.normal(size=(b, n, k, t)), rng.normal(size=(b, n, k))

    def heads(x):  # (b, n, k) -> the (b, k, n) view backbone.scores returns
        return ad.moveaxis(x, -1, -2)

    plain = sortlet_logs(heads(raw))
    dual = sortlet_logs(heads(Dual(raw, tan, curv))).logmag
    var = sortlet_logs(heads(GradientTape().leaf(raw))).logmag
    for i in range(b):
        for j in range(k):
            one = (slice(i, i + 1), slice(None), slice(j, j + 1))
            assert sortlet_logs(heads(raw[one])).logmag[0, 0] == plain.logmag[i, j]
            lone = sortlet_logs(heads(Dual(raw[one], tan[one], curv[one]))).logmag
            assert lone.val[0, 0] == dual.val[i, j] and lone.curv[0, 0] == dual.curv[i, j]
            np.testing.assert_array_equal(lone.tan[0, 0], dual.tan[i, j])
            alone = sortlet_logs(heads(GradientTape().leaf(raw[one]))).logmag
            assert alone.val[0, 0] == var.val[i, j]


@pytest.mark.parametrize("n", range(2, ad.NETWORK_MAX + 2))
def test_sortlet_logs_match_np_sort_and_score_parity(n):
    """The plain sortlet from sort_parity's network (or its fallback) gives
    the bits of np.sort plus score_parity: on finite rows with ties and
    zeros of both signs, and with infinities of both signs or NaN in many
    rows or in one row of an otherwise finite batch."""
    rng = np.random.default_rng(n)
    x = rng.normal(size=(400, n))
    pick = rng.random(size=x.shape) < 0.3
    x[pick] = rng.choice([0.0, -0.0, 1.0], size=pick.sum())
    batches = [x]
    for bad in (np.inf, -np.inf, np.nan):
        many, one = x.copy(), x.copy()
        many[::7, n // 2] = bad
        many[::5, 0] = np.inf  # two equal infinities in some rows
        one[3, 0] = bad
        batches += [many, one]
    ends = np.r_[1:n, n - 1, 0:n - 1, 0]
    for batch in batches:
        srt = np.moveaxis(np.sort(batch, axis=-1), -1, 0)
        with np.errstate(invalid="ignore"):
            gaps = srt[ends[:n]] - srt[ends[n:]]
            logs = np.log(np.where(gaps == 0, 1.0, gaps))
            got = sortlet_logs(batch)
        tied = (gaps == 0).any(0)
        logmag = logs[0]
        for j in range(1, n):
            logmag = logmag + logs[j]
        np.testing.assert_array_equal(got.sign, np.where(tied, 0, score_parity(batch)))
        assert got.logmag.tobytes() == np.where(tied, BIG_NEG, logmag).tobytes()
