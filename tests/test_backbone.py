import numpy as np
import pytest

from sortlet_vmc import ad
from sortlet_vmc.ad import GradientTape
from oracles import hessian_diag_central, unfolded_scores
from sortlet_vmc.ad.fd import grad_central
from sortlet_vmc.ansatz import SortletWavefunction, canonical_positions
from sortlet_vmc.backbone import (
    ParamStore,
    build_param_store,
    electron_geometry,
    feature_width,
    featurize,
    init_params,
    scores,
)
from sortlet_vmc.geometry import SystemSpec, load_system, transpose_electrons

LI = load_system("""
system:
  nuclei:
    - element: Li
      xyz: [0.0, 0.0, 0.0]
""")

BE = load_system("""
system:
  nuclei:
    - element: Be
      xyz: [0.0, 0.0, 0.0]
""")


def small_wf(system, seed=0):
    return SortletWavefunction(system, n_sortlets=4, hidden=16, layers=2, seed=seed)


def test_param_store_roundtrip():
    store = build_param_store(LI, n_sortlets=4, hidden=16)
    theta = init_params(store, seed=1)
    assert theta.shape == (store.size,)
    tensors = store.unpack(theta)
    assert tensors["feat.w"].shape == (feature_width(LI), 16)
    assert tensors["mix.w"].shape == (4,)
    np.testing.assert_array_equal(store.pack(tensors), theta)


def test_param_store_layout_versioning():
    store = build_param_store(LI, n_sortlets=4, hidden=16)
    layout = store.layout()
    assert build_param_store(LI, n_sortlets=4, hidden=16).layout() == layout
    other = build_param_store(LI, n_sortlets=8, hidden=16)
    assert other.layout() != layout


def test_param_store_rejects_too_many_sortlets():
    with pytest.raises(ValueError):
        build_param_store(LI, n_sortlets=64)


def test_init_params_deterministic():
    store = build_param_store(LI)
    np.testing.assert_array_equal(init_params(store, seed=7), init_params(store, seed=7))
    assert not np.array_equal(init_params(store, seed=7), init_params(store, seed=8))


def test_feature_shapes_and_spin_tag():
    rng = np.random.default_rng(0)
    pos = rng.normal(size=(5, 3, 3))
    f = featurize(LI, electron_geometry(LI, pos)[0])
    assert f.shape == (5, 3, feature_width(LI))
    spin_col = f[:, :, 4 * LI.n_nuclei]
    np.testing.assert_array_equal(spin_col, np.broadcast_to([1.0, 1.0, -1.0], (5, 3)))


def test_scores_equivariant_bitwise_under_same_spin_swap():
    # the network sums over electrons in input order, so a raw swap permutes
    # the scores up to rounding; signed_log feeds it canonically ordered
    # walkers, and a swapped walker in canonical order has the same bits
    wf = small_wf(BE)
    rng = np.random.default_rng(1)
    pos = rng.normal(size=(3, 4, 3))
    params = wf.bind(wf.theta0)

    def canonical(p):
        return canonical_positions(BE.sectors, p)[0]

    base = scores(BE, params, electron_geometry(BE, pos)[0])  # (B, K, N)
    base_canonical = scores(BE, params, electron_geometry(BE, canonical(pos))[0])
    for i, j in [(0, 1), (2, 3)]:  # same-spin pairs for Be
        swapped = pos.copy()
        swapped[:, [i, j]] = swapped[:, [j, i]]
        out = scores(BE, params, electron_geometry(BE, swapped)[0])
        expect = base.copy()
        expect[:, :, [i, j]] = expect[:, :, [j, i]]
        np.testing.assert_allclose(out, expect, rtol=1e-12)
        out_canonical = scores(BE, params, electron_geometry(BE, canonical(swapped))[0])
        assert np.array_equal(out_canonical, base_canonical)


LIH = load_system("""
system:
  nuclei:
    - element: Li
      xyz: [0.0, 0.0, 0.0]
    - element: H
      xyz: [3.015, 0.0, 0.0]
""")


H8 = load_system("system:\n  nuclei:\n" + "".join(
    f"    - element: H\n      xyz: [0.0, 0.0, {1.8 * i}]\n" for i in range(8)))


@pytest.mark.parametrize("system", [LI, LIH], ids=["li", "lih"])
def test_scores_match_the_unfolded_attention_oracle(system):
    """The folded projections (QK = Wq Wk^T / sqrt(H), VO = Wv Wo), the fused
    softmax and norm and the pooling by linearity give the scores of the
    unfolded, composed network in every engine: plain values, Dual values,
    tangents and Laplacians, Var values and parameter gradients."""
    wf = small_wf(system)
    rng = np.random.default_rng(8)
    pos = rng.normal(size=(5, system.n_electrons, 3)) * 1.5
    theta = wf.theta0 + 0.3 * rng.normal(size=wf.theta0.shape)  # biases off zero

    def folded(params, positions):
        return scores(system, params, electron_geometry(system, positions)[0])

    def unfolded(params, positions):
        return unfolded_scores(system, params, positions, wf.hidden, wf.layers)

    def both(params, positions):
        return [f(params, positions) for f in (folded, unfolded)]

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13 * np.abs(want).max())

    got, want = both(wf.bind(theta), pos)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    got, want = both(wf.bind(theta), ad.seed_positions(pos))
    for part in ("val", "tan", "curv"):
        close(getattr(got, part), getattr(want, part))

    seed = rng.normal(size=want.shape)
    grads = []
    for f in (folded, unfolded):
        tape = GradientTape()
        leaf = tape.leaf(theta)
        out = f(wf.bind(leaf), pos)
        grads.append((out.val, tape.gradient(out, leaf, seed=seed)))
    np.testing.assert_allclose(grads[0][0], grads[1][0], rtol=1e-12, atol=1e-14)
    close(grads[0][1], grads[1][1])


def test_scores_not_equivariant_across_spin_sectors():
    wf = small_wf(BE)
    rng = np.random.default_rng(2)
    pos = rng.normal(size=(1, 4, 3))
    params = wf.bind(wf.theta0)
    base = scores(BE, params, electron_geometry(BE, pos)[0])
    swapped = pos.copy()
    swapped[:, [0, 2]] = swapped[:, [2, 0]]  # up <-> down
    out = scores(BE, params, electron_geometry(BE, swapped)[0])
    expect = base.copy()
    expect[:, :, [0, 2]] = expect[:, :, [2, 0]]
    assert not np.allclose(out, expect)


def test_wavefunction_antisymmetry_exact():
    wf = small_wf(BE)
    rng = np.random.default_rng(3)
    pos = rng.normal(size=(8, 4, 3))
    base = wf.signed_log(wf.theta0, pos)
    for i, j in [(0, 1), (2, 3)]:
        out = wf.signed_log(wf.theta0, transpose_electrons(pos, i, j))
        assert np.array_equal(out.logmag, base.logmag)
        np.testing.assert_array_equal(out.sign, -base.sign)


def test_wavefunction_engines_agree():
    """Plain logmag, Dual.val and Var.val are bitwise equal, with equal signs,
    on Li, LiH and H8 at the production sizes (K=16, hidden 32, 2 layers)."""
    rng = np.random.default_rng(4)
    for system in (LI, LIH, H8):
        wf = SortletWavefunction(system, seed=2)
        homes = rng.integers(system.n_nuclei, size=(6, system.n_electrons))
        pos = system.nuclei_positions[homes] + rng.normal(size=(6, system.n_electrons, 3))
        plain = wf.signed_log(wf.theta0, pos)

        dual = wf.signed_log(wf.theta0, ad.seed_positions(pos))
        assert np.array_equal(dual.logmag.val, plain.logmag)
        np.testing.assert_array_equal(dual.sign, plain.sign)

        tape = GradientTape()
        var = wf.signed_log(tape.leaf(wf.theta0), pos)
        assert np.array_equal(var.logmag.val, plain.logmag)
        np.testing.assert_array_equal(var.sign, plain.sign)


def test_position_gradient_matches_fd():
    wf = small_wf(LI)
    rng = np.random.default_rng(5)
    pos = rng.normal(size=(1, 3, 3)) * 1.5
    d = wf.signed_log(wf.theta0, ad.seed_positions(pos))

    def f(flat):
        return wf.signed_log(wf.theta0, flat.reshape(1, 3, 3)).logmag[0]

    fd = grad_central(f, pos.ravel(), h=1e-5)
    np.testing.assert_allclose(d.logmag.tan[0], fd, rtol=5e-5, atol=1e-7)


def test_position_curvature_matches_fd():
    wf = small_wf(LI)
    rng = np.random.default_rng(6)
    pos = rng.normal(size=(1, 3, 3)) * 1.5
    d = wf.signed_log(wf.theta0, ad.seed_positions(pos))

    def f(flat):
        return wf.signed_log(wf.theta0, flat.reshape(1, 3, 3)).logmag[0]

    fd = hessian_diag_central(f, pos.ravel(), h=1e-4)
    np.testing.assert_allclose(d.logmag.curv[0], fd.sum(), rtol=1e-3, atol=1e-4)


def test_parameter_gradient_matches_fd_spot_checks():
    wf = small_wf(LI)
    rng = np.random.default_rng(7)
    pos = rng.normal(size=(3, 3, 3)) * 1.5
    tape = GradientTape()
    theta = tape.leaf(wf.theta0)
    out = wf.signed_log(theta, pos)
    g = tape.gradient(out.logmag, theta)  # d sum_b logmag_b / d theta

    def f(vec):
        return float(np.sum(wf.signed_log(vec, pos).logmag))

    idx = rng.choice(wf.store.size, size=25, replace=False)
    # make sure structurally distinct blocks are covered
    offsets = {n: wf.store._offsets[n][0] for n in ("pair.beta", "env.rate", "mix.w", "out.b")}
    idx = np.unique(np.concatenate([idx, list(offsets.values())]))
    for i in idx:
        e = np.zeros_like(wf.theta0)
        e[i] = 1e-5
        fd = (f(wf.theta0 + e) - f(wf.theta0 - e)) / 2e-5
        np.testing.assert_allclose(g[i], fd, rtol=5e-4, atol=1e-7,
                                   err_msg=f"component {i}")


def test_wavefunction_rejects_bad_shapes():
    wf = small_wf(LI)
    with pytest.raises(ValueError):
        wf.signed_log(wf.theta0, np.zeros((2, 4, 3)))
    with pytest.raises(ValueError):
        wf.signed_log(wf.theta0, np.zeros((3, 3)))


def test_score_bias_only_moves_single_electron_systems():
    """out.b shifts every score of a head by one constant. Every gap, and so
    every sortlet with N >= 2 electrons, is unchanged (Li, to rounding), but
    a single electron's sortlet is its bare score (hydrogen)."""
    h = load_system("system:\n  nuclei:\n    - element: H\n      xyz: [0.0, 0.0, 0.0]\n")
    rng = np.random.default_rng(29)
    for system, moves in ((LI, False), (h, True)):
        wf = small_wf(system, seed=3)
        tensors = wf.store.unpack(wf.theta0)
        tensors["out.b"] = tensors["out.b"] + rng.uniform(0.5, 1.5, size=wf.n_sortlets)
        shifted = wf.store.pack(tensors)
        pos = rng.normal(size=(5, system.n_electrons, 3))
        base = wf.signed_log(wf.theta0, ad.seed_positions(pos))
        moved = wf.signed_log(shifted, ad.seed_positions(pos))
        same = [np.allclose(x, y, rtol=1e-9, atol=1e-9) for x, y in
                ((base.logmag.val, moved.logmag.val), (base.logmag.tan, moved.logmag.tan),
                 (base.logmag.curv, moved.logmag.curv))]
        assert np.array_equal(base.sign, moved.sign) or moves
        assert same == [not moves] * 3, (system.n_electrons, same)
