import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import all_nuclei_envelope
from sortlet_vmc import ad, ansatz
from sortlet_vmc.ad import Dual, GradientTape
from sortlet_vmc.ad.fd import grad_central
from sortlet_vmc.ansatz import (
    BIG_NEG,
    SignedLog,
    SortletWavefunction,
    canonical_order,
    canonical_positions,
    envelope_distance_sum,
    mix_signed_logs,
    pair_log_factor,
    score_parity,
    sortlet_logs,
    vandermonde_logs,
)
from sortlet_vmc.backbone import electron_geometry
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
    sectors = [np.flatnonzero(spins == s) for s in (1, -1)]
    order, parity = canonical_order(sectors, pos)
    canonical = np.take_along_axis(pos, order[..., None], axis=1)
    assert np.all(spins[order] == spins)  # every slot keeps its spin
    for row, p in zip(order, parity):
        assert p == brute_parity(list(row))

    for perm in ([0, 2, 1, 3, 4, 5], [3, 1, 4, 0, 5, 2]):  # one and three transpositions
        relabelled = pos[:, perm]
        order2, parity2 = canonical_order(sectors, relabelled)
        assert np.array_equal(np.take_along_axis(relabelled, order2[..., None], axis=1),
                              canonical)
        assert np.array_equal(parity2, -parity)

    again, parity3 = canonical_order(sectors, canonical)
    assert np.array_equal(again, np.broadcast_to(np.arange(6), again.shape))
    assert np.all(parity3 == 1)

    order4, parity4 = canonical_order(sectors, np.asfortranarray(pos))
    assert np.array_equal(order4, order) and np.array_equal(parity4, parity)


def lexsort_order(sectors, pos):
    """The oracle: one np.lexsort by (x, y, z) per sector, and the parity of
    the whole order by permutation_parity."""
    order = np.empty(pos.shape[:2], dtype=np.int64)
    for slots in sectors:
        sub = pos[:, slots]
        order[:, slots] = slots[np.lexsort((sub[..., 2], sub[..., 1], sub[..., 0]), axis=-1)]
    return order, ad.permutation_parity(order)


def awkward_walkers(rng, batch, sectors):
    """(batch, N, 3) normals; row r % 6 > 0 plants, in each sector of two or
    more: an exact x tie, a whole-position tie, x zeros of both signs (y
    tied too), x at +inf and -inf, or a NaN x beside +inf (a tied pair of
    them in a sector of three or more). A one-electron sector's x is NaN,
    +inf, -inf or finite by r % 4."""
    n = sum(map(len, sectors))
    pos = rng.normal(size=(batch, n, 3))
    for r in range(batch):
        for slots in sectors:
            if len(slots) < 2:
                pos[r, slots, 0] = (np.nan, np.inf, -np.inf, 0.5)[r % 4]
                continue
            a, b, *rest = rng.permutation(slots)
            kind = r % 6
            if kind == 1:
                pos[r, b, 0] = pos[r, a, 0]
            elif kind == 2:
                pos[r, b] = pos[r, a]
            elif kind == 3:
                pos[r, a, :2], pos[r, b, :2] = 0.0, -0.0
            elif kind == 4:
                pos[r, a, 0], pos[r, b, 0] = np.inf, -np.inf
            elif kind == 5:
                pos[r, a, 0] = np.nan
                pos[r, [b] + rest[:1], 0] = np.inf
    return pos


@pytest.mark.parametrize("batch", [1, 7, 512])
@pytest.mark.parametrize("n_up", range(1, 18))
def test_canonical_order_matches_lexsort_per_sector(n_up, batch):
    """canonical_order against one np.lexsort per sector and
    permutation_parity, bit for bit in order and parity, at every batch
    size (1, 7 and 512 walkers all take the network): sectors of 1 to 17
    electrons (past NETWORK_MAX too) beside a shorter one, spins
    interleaved, and beside an empty sector, up only and down only; exact
    x and whole-position ties, zeros of both signs, infinities and NaNs
    (awkward_walkers); C, Fortran-ordered and strided inputs; and batches
    already in order, the identity (order None where x rises strictly)."""
    rng = np.random.default_rng(100 * n_up + batch)
    mixed = rng.permutation(np.repeat([1, -1], (n_up, 1 + n_up // 3)))
    for spins in (mixed, np.ones(n_up, dtype=np.int64), -np.ones(n_up, dtype=np.int64)):
        sectors = [np.flatnonzero(spins == s) for s in (1, -1)]
        pos = awkward_walkers(rng, batch, sectors)
        want = lexsort_order(sectors, pos)
        wide = np.full((2 * batch,) + pos.shape[1:], 7.0)
        wide[::2] = pos
        identity = np.broadcast_to(np.arange(len(spins)), want[0].shape)
        for view in (pos, np.asfortranarray(pos), wide[::2]):
            order, parity = canonical_order(sectors, view)
            if order is None:  # the identity, when every row is already in order
                order = identity
            assert order.dtype == parity.dtype == np.int64
            assert np.array_equal(order, want[0]) and np.array_equal(parity, want[1])

        plain = rng.normal(size=pos.shape)
        in_order = np.take_along_axis(plain, lexsort_order(sectors, plain)[0][..., None], axis=1)
        for batch_in_order in (in_order, np.take_along_axis(pos, want[0][..., None], axis=1)):
            order, parity = canonical_order(sectors, batch_in_order)
            assert np.array_equal(identity if order is None else order, identity)
            assert parity.dtype == np.int64 and np.array_equal(parity, np.ones(batch))
        assert canonical_order(sectors, in_order)[0] is None  # x rises strictly: no sort


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
def test_network_sort_carries_the_index_and_its_parity(n):
    """ad.network_sort on 40 entries of n keys, some with an exact tie: the
    keys come out in np.sort's order, index is a permutation that sorts
    them, the stable argsort wherever the keys are distinct, and the parity
    is that permutation's on every entry, tied or not."""
    rng = np.random.default_rng(n)
    keys = rng.normal(size=(n, 40))
    if n > 1:
        keys[1, ::3] = keys[0, ::3]
    rows, index = list(keys.copy()), list(range(n))
    odd = ad.network_sort(rows, index)
    index = np.stack(np.broadcast_arrays(*index, np.zeros(40, dtype=np.int64))[:n])
    assert np.array_equal(np.stack(rows), np.sort(keys, axis=0))
    assert np.array_equal(np.take_along_axis(keys, index, axis=0), np.stack(rows))
    distinct = np.all(np.diff(np.sort(keys, axis=0), axis=0) > 0, axis=0)
    stable = np.argsort(keys, axis=0, kind="stable")
    assert np.array_equal(index[:, distinct], stable[:, distinct])
    assert np.array_equal(np.where(odd, -1, 1), ad.permutation_parity(index.T))


def test_score_parity_matches_brute_force_with_ties():
    """score_parity, the permutation parity of the stable argsort, against
    the inversion count for N = 1..64, with ties (which count no inversion)
    and on a moveaxis view."""
    rng = np.random.default_rng(14)
    for n in range(1, 65):
        raw = rng.integers(0, max(2, n // 2), size=(3, n, 2)).astype(np.float64)
        values = np.moveaxis(raw, 1, -1)  # (3, 2, n), non-contiguous
        par = score_parity(values)
        assert par.shape == (3, 2)
        for row, p in zip(values.reshape(-1, n), par.ravel()):
            assert p == brute_parity(list(row))


def test_score_parity_of_one_row_of_200_matches_inversions():
    """One row of 200 keys, past the sort network, against the inversion
    count: permutation_parity's cycle count after eight doubling rounds."""
    rng = np.random.default_rng(0)
    v = rng.normal(size=200)
    assert score_parity(v[None])[0] == brute_parity(list(v))


MANY_ROWS_N = [1, 2, 3, 16, 17, 63, 64, 65, 200]


@pytest.mark.parametrize("n", MANY_ROWS_N)
def test_score_parity_over_many_rows_matches_inversions(n):
    """60 rows at once, with ties and zeros of both signs (equal keys, so no
    inversion), as a non-contiguous view: every row's parity is its own
    inversion count's, so no flat gather mixes rows, past N = 64 too."""
    rng = np.random.default_rng(n)
    raw = rng.integers(-3, 4, size=(n, 4, 30)).astype(np.float64)
    raw[raw == 0] = rng.choice([0.0, -0.0], size=int((raw == 0).sum()))
    raw[raw == 3] = rng.normal(size=int((raw == 3).sum()))
    values = np.moveaxis(raw, 0, -1)[:, ::2]  # (4, 15, n), strided and key axis last
    assert not values.flags.c_contiguous and np.signbit(values[values == 0]).any()
    par = score_parity(values)
    assert par.shape == (4, 15)
    for row, p in zip(values.reshape(-1, n), par.ravel()):
        assert p == brute_parity(row.tolist())


@pytest.mark.parametrize("n", MANY_ROWS_N)
def test_permutation_parity_of_random_identity_and_transposed_rows(n):
    """Random permutations of 50 rows against their inversion count; the
    identity is even, and one transposition of it per row is odd."""
    rng = np.random.default_rng(100 + n)
    perms = rng.permuted(np.broadcast_to(np.arange(n), (50, n)), axis=-1)
    got = ad.permutation_parity(perms)
    assert got.shape == (50,)
    assert [int(p) for p in got] == [brute_parity(row.tolist()) for row in perms]
    identity = np.broadcast_to(np.arange(n), (5, 10, n))
    assert np.all(ad.permutation_parity(identity) == 1)
    if n > 1:
        swapped = np.array(identity)
        for row in swapped.reshape(-1, n):
            i, j = rng.choice(n, size=2, replace=False)
            row[[i, j]] = row[[j, i]]
        assert np.all(ad.permutation_parity(swapped) == -1)


def test_score_parity_sorts_nan_last():
    """A row holding NaN has its stable argsort's parity: NaN after every
    other key, infinity included, and NaNs in index order. The sortlet gives
    such a head a NaN logmag, and the mixture's sign is then 0."""
    rows = np.array([[np.nan, 1.0, 0.0, np.inf], [1.0, np.nan, np.nan, -0.0],
                     [np.nan, np.nan, 2.0, 1.0], [0.0, 1.0, 2.0, np.nan]])
    # ranks with NaN last: [3 1 0 2], [1 2 3 0], [2 3 1 0], [0 1 2 3]
    np.testing.assert_array_equal(score_parity(rows), [1, -1, -1, 1])
    heads = sortlet_logs(rows)
    mixed = mix_signed_logs(heads.sign[None], heads.logmag[None], np.ones(len(rows)))
    assert mixed.sign[0] == 0


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


def test_a_nan_value_gets_sign_zero_without_a_warning():
    """A NaN bare score (the N = 1 head) and a NaN mixture both get sign 0:
    casting np.sign's NaN to int64 would warn and store INT64_MIN."""
    bare = sortlet_logs(np.array([[np.nan], [2.0], [-3.0], [0.0]]))
    assert bare.sign.dtype == np.int64 and bare.sign.tolist() == [0, 1, -1, 0]
    mixed = mix_signed_logs(np.array([[1, 1], [1, -1], [-1, 1]]),
                            np.array([[np.nan, 0.0], [0.3, 0.1], [0.3, 0.1]]), np.ones(2))
    assert mixed.sign.dtype == np.int64 and mixed.sign.tolist() == [0, 1, -1]


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


def spin_split(n_up: int, n_down: int) -> SystemSpec:
    """A one-nucleus system: what pair_log_factor reads is its spin layout."""
    return SystemSpec(nuclei_positions=np.zeros((1, 3)), charges=np.array([1]),
                      n_up=n_up, n_down=n_down)


def pair_factor(system, pos, b):
    return pair_log_factor(system, electron_geometry(system, pos)[2], b)


def test_pair_log_factor_hand_value():
    pos = np.array([[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]])
    raw = np.array([0.1, 0.4])
    b = np.logaddexp(0.0, raw)
    expect = -0.5 * b[1] / (b[1] ** 2 + 1.0)
    np.testing.assert_allclose(pair_factor(spin_split(1, 1), pos, ad.softplus(raw)),
                               [expect], rtol=1e-12)
    # same-spin pair pulls in the parallel strength instead
    expect2 = -0.25 * b[0] / (b[0] ** 2 + 1.0)
    np.testing.assert_allclose(pair_factor(spin_split(2, 0), pos, ad.softplus(raw)),
                               [expect2], rtol=1e-12)


def test_pair_log_factor_single_electron_is_zero():
    out = pair_factor(spin_split(1, 0), np.zeros((4, 1, 3)),
                      ad.softplus(np.array([0.1, 0.4])))
    np.testing.assert_array_equal(out, np.zeros(4))


def test_pair_log_factor_permutation_invariant_bitwise():
    # the pair sum runs in input order, so a raw relabelling agrees up to
    # rounding; in canonical order (what signed_log passes) it is bitwise
    rng = np.random.default_rng(5)
    system = spin_split(3, 2)
    pos = rng.normal(size=(3, 5, 3))
    b = ad.softplus(rng.normal(size=2))
    base = pair_factor(system, pos, b)
    perm = np.array([2, 0, 1, 4, 3])  # preserves the spin pattern
    np.testing.assert_allclose(pair_factor(system, pos[:, perm], b), base, rtol=1e-12)
    canonical = [canonical_positions(system.sectors, p)[0] for p in (pos, pos[:, perm])]
    assert np.array_equal(pair_factor(system, canonical[0], b),
                          pair_factor(system, canonical[1], b))


def test_pair_log_factor_beta_gradient_matches_fd():
    rng = np.random.default_rng(6)
    system = spin_split(2, 1)
    pos = rng.normal(size=(2, 3, 3))
    raw = np.array([0.2, -0.3])
    tape = GradientTape()
    p = tape.leaf(raw)
    g = tape.gradient(pair_factor(system, pos, ad.softplus(p)), p)  # sum over batch
    fd = grad_central(lambda z: float(np.sum(pair_factor(system, pos, ad.softplus(z)))),
                      raw, h=1e-6)
    np.testing.assert_allclose(g, fd, rtol=1e-6)


def test_envelope_distance_sum():
    sys = SystemSpec(nuclei_positions=np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]),
                     charges=np.array([1, 1]), n_up=1, n_down=1)
    pos = np.array([[[0.5, 0.0, 0.0], [1.8, 0.0, 0.0]]])
    np.testing.assert_allclose(envelope_distance_sum(electron_geometry(sys, pos)[1]), [0.5 + 0.2],
                               rtol=1e-12)


LIH = SystemSpec(nuclei_positions=np.array([[0.0, 0.0, 0.0], [3.015, 0.0, 0.0]]),
                 charges=np.array([3, 1]), n_up=2, n_down=2)
# spacing 1.5 Bohr: every nucleus and midpoint is exact, so a midplane ties exactly
H8 = SystemSpec(nuclei_positions=np.array([[1.5 * i - 5.25, 0.0, 0.0] for i in range(8)]),
                charges=np.ones(8, dtype=np.int64), n_up=4, n_down=4)


def wf_order(system, pos):
    """pos with each walker's electrons in signed_log's canonical order."""
    return canonical_positions(system.sectors, pos)[0]


@pytest.mark.parametrize("system", [LIH, H8], ids=["lih", "h8"])
def test_envelope_matches_the_all_nuclei_oracle(system, monkeypatch):
    """The envelope read from the shared geometry has the bits of the norm
    over the whole (B, N, I, 3) block gathered at the argmin: plain, Dual
    value, tangents and Laplacian, and in a parameter-gradient pass, which
    evaluates it on plain positions. An electron on the midplane of the
    first two nuclei is an exact tie, and the earlier nucleus wins."""
    rng = np.random.default_rng(9)
    pos = system.nuclei_positions[rng.integers(0, system.n_nuclei, size=(16, system.n_electrons))]
    pos = pos + rng.normal(size=pos.shape)
    mid = 0.5 * (system.nuclei_positions[0] + system.nuclei_positions[1])
    pos[0, 0] = mid + [0.0, 0.3, -0.2]
    dist = np.linalg.norm(pos[0, 0] - system.nuclei_positions[:2], axis=-1)
    assert dist[0] == dist[1] and np.argmin(dist) == 0

    got = envelope_distance_sum(electron_geometry(system, pos)[1])
    assert got.tobytes() == all_nuclei_envelope(system, pos).tobytes()

    seeded = ad.seed_positions(pos)
    got = envelope_distance_sum(electron_geometry(system, seeded)[1])
    want = all_nuclei_envelope(system, seeded)
    for part in ("val", "tan", "curv"):
        assert getattr(got, part).tobytes() == getattr(want, part).tobytes(), part
    # the tie went to nucleus 0: electron 0's x lane carries (x - X_0) / |r - R_0| > 0
    assert got.tan[0, 0] > 0

    seen = []
    monkeypatch.setattr(ansatz, "envelope_distance_sum",
                        lambda dist: seen.append(envelope_distance_sum(dist)) or seen[-1])
    wf = SortletWavefunction(system, n_sortlets=2, hidden=4, layers=1)
    tape = GradientTape()
    wf.signed_log(tape.leaf(wf.theta0), pos)
    (reach,) = seen
    assert type(reach) is np.ndarray
    assert reach.tobytes() == all_nuclei_envelope(system, wf_order(system, pos)).tobytes()


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


def _frozen_arrays(tree) -> list:
    """Every ndarray in a bound dict, tuple or engine value, made read-only."""
    if isinstance(tree, dict):
        tree = list(tree.values())
    if isinstance(tree, (list, tuple)):
        return [a for x in tree for a in _frozen_arrays(x)]
    arrays = [tree] if isinstance(tree, np.ndarray) else [
        getattr(tree, name) for name in ("val", "tan", "curv") if hasattr(tree, name)]
    for a in arrays:
        a.flags.writeable = False
    return arrays


def test_signed_log_writes_into_none_of_its_inputs():
    """The plain engine may overwrite only arrays the pass made itself. On
    read-only positions, a read-only θ and read-only bound arrays, every
    engine runs without raising and leaves each input's bits as they were,
    for walkers in and out of canonical order (a canonical batch reaches
    the geometry ungathered)."""
    wf = SortletWavefunction(LIH, n_sortlets=4, hidden=8, layers=2, seed=3)
    theta = wf.theta0 + 0.1 * np.random.default_rng(41).normal(size=wf.theta0.shape)
    theta.flags.writeable = False
    pos = LIH.nuclei_positions[[0, 1, 0, 1]] + np.random.default_rng(43).normal(size=(5, 4, 3))
    for batch in (pos, wf_order(LIH, pos)):
        batch.flags.writeable = False
        bound = wf.bind(theta)
        tape = GradientTape()
        leaf = tape.leaf(theta)
        var_bound = wf.bind(leaf)
        dual = ad.seed_positions(batch)
        inputs = [theta, batch] + [a for x in (bound, var_bound, dual) for a in _frozen_arrays(x)]
        before = [a.copy() for a in inputs]
        wf.signed_log(bound, batch)
        wf.signed_log(theta, batch)
        wf.signed_log(bound, dual)
        tape.gradient(wf.signed_log(var_bound, batch).logmag, leaf, seed=np.ones(len(batch)))
        assert all(np.array_equal(a, b) for a, b in zip(inputs, before))


@pytest.mark.parametrize("k", [1, 7, 8, 9, 16, 32])
def test_signed_log_of_a_lone_walker_matches_the_batch(k):
    """Every reduction site gives a lone walker the bits of its row in a
    batch of three, plain and Dual, on H_N chains for N = 1 to 17 at K heads:
    the mixture over K, the gap fold over N - 1, the envelope over N, the
    pair sum over N(N-1)/2 and the softmax over N all have one output entry
    per walker here, where numpy's reduce would sum pairwise."""
    rng = np.random.default_rng(k)
    for n in range(1, 18):
        chain = SystemSpec(nuclei_positions=np.array([[1.4 * i, 0.0, 0.0] for i in range(n)]),
                           charges=np.ones(n, dtype=np.int64), n_up=(n + 1) // 2, n_down=n // 2)
        wf = SortletWavefunction(chain, n_sortlets=k, hidden=4, layers=1, seed=n)
        bound = wf.bind(wf.theta0)
        pos = chain.nuclei_positions + rng.normal(size=(3, n, 3))
        plain = wf.signed_log(bound, pos)
        dual = wf.signed_log(bound, ad.seed_positions(pos)).logmag
        for i in range(len(pos)):
            alone = wf.signed_log(bound, pos[i:i + 1])
            assert alone.sign[0] == plain.sign[i] and alone.logmag[0] == plain.logmag[i], n
            lone = wf.signed_log(bound, ad.seed_positions(pos[i:i + 1])).logmag
            assert lone.val[0] == dual.val[i] and lone.curv[0] == dual.curv[i], n
            np.testing.assert_array_equal(lone.tan[0], dual.tan[i], err_msg=f"N = {n}")


@pytest.mark.parametrize("n", range(2, ad.NETWORK_MAX + 2))
def test_sortlet_logs_match_np_sort_and_score_parity(n):
    """The plain sortlet from ad._sort_parity's network (or its fallback) gives
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
