import numpy as np
import pytest

from oracles import complexity_benchmark
from sortlet_vmc import probes
from sortlet_vmc.ansatz import SortletWavefunction
from sortlet_vmc.geometry import ElectronConfiguration, SystemSpec


def lithium():
    return SystemSpec(np.zeros((1, 3)), np.array([3]), 2, 1)


def beryllium():
    return SystemSpec(np.zeros((1, 3)), np.array([4]), 2, 2)


def boron():
    return SystemSpec(np.zeros((1, 3)), np.array([5]), 3, 2)


def test_antisymmetry_suite_clean_on_lithium():
    wf = SortletWavefunction(lithium(), n_sortlets=4, hidden=16, layers=2, seed=0)
    report = probes.antisymmetry_suite(wf, trials=300, seed=1)
    assert report["passed"]
    assert report["violations"] == 0
    assert report["max_logmag_diff"] == 0.0
    assert report["vandermonde_sign_flips"]
    # opposite-spin control carries no constraint, only gets recorded
    assert 0.0 <= report["opposite_spin_flip_fraction"] <= 1.0


def test_node_probe_rejects_bad_pairs():
    system = lithium()
    wf = SortletWavefunction(system, n_sortlets=1, hidden=8, layers=1, seed=0)
    fn = lambda p: wf.signed_log(wf.theta0, p)
    config = ElectronConfiguration(np.random.default_rng(0).standard_normal((3, 3)),
                                   system.spins)
    with pytest.raises(ValueError, match="distinct"):
        probes.node_crossing_probe(fn, config, 1, 1)
    with pytest.raises(ValueError, match="share spin"):
        probes.node_crossing_probe(fn, config, 0, 2)
    with pytest.raises(ValueError, match="resolution"):
        probes.node_crossing_probe(fn, config, 0, 1, resolution=10)


def test_node_probe_brackets_are_tight_and_odd():
    system = beryllium()
    wf = SortletWavefunction(system, n_sortlets=1, hidden=16, layers=2, seed=2)
    fn = lambda p: wf.signed_log(wf.theta0, p)
    rng = np.random.default_rng(3)
    config = ElectronConfiguration(rng.standard_normal((4, 3)), system.spins)
    out = probes.node_crossing_probe(fn, config, 0, 1, resolution=400, tol=1e-10)
    assert out["count"] >= 1
    assert out["count"] % 2 == 1  # endpoints have opposite sign
    assert out["max_width"] <= 1e-10
    for lo, hi in out["locations"]:
        assert 0.0 < lo <= hi < 1.0


@pytest.mark.parametrize("kind", ["sortlet", "vandermonde"])
def test_node_suite_finds_crossing_on_every_path(kind):
    report = probes.node_crossing_suite(beryllium(), kind=kind, n_paths=25, seed=4)
    assert report["passed"]
    assert report["with_crossing"] == 25
    assert report["max_bracket_width"] <= 1e-10


def test_node_suite_sum_mode_records_three_cycles():
    report = probes.node_crossing_suite(boron(), kind="sum", n_paths=10, seed=5)
    assert report["passed"]
    counts = report["three_cycle_crossing_counts"]
    assert len(counts) == 10
    assert all(c >= 0 for c in counts)


def test_node_suite_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        probes.node_crossing_suite(beryllium(), kind="slater")


def test_smoothness_probe_passes_on_beryllium():
    report = probes.smoothness_probe(beryllium(), trials=5, seed=6)
    assert report["passed"]
    assert report["worst_one_sided_rel"] < 1e-5
    assert report["double_tie"]["applicable"]
    assert report["double_tie"]["on_node"]
    assert report["double_tie"]["max_coordinate_derivative"] < 1e-8


def test_smoothness_probe_triple_coincidence_on_boron():
    report = probes.smoothness_probe(boron(), trials=3, seed=7)
    assert report["passed"]
    assert report["double_tie"]["max_coordinate_derivative"] < 1e-8


def test_variational_floor_probe():
    report = probes.variational_floor_check(dim=50, trials=5000, seed=8)
    assert report["passed"]
    assert report["min_quotient_gap"] >= -1e-10
    assert report["eigvec_residual"] < 1e-10


def test_variational_floor_small_diagonal_case():
    # for H = diag(1, 3) the quotient floor is 1, met by e1
    h = np.diag([1.0, 3.0])
    v = np.array([1.0, 0.0])
    assert v @ h @ v / (v @ v) == 1.0
    rng = np.random.default_rng(9)
    draws = rng.standard_normal((1000, 2))
    q = np.einsum("td,de,te->t", draws, h, draws) / np.einsum("td,td->t", draws, draws)
    assert np.min(q) >= 1.0 - 1e-12


def test_variational_floor_rejects_huge_dim():
    with pytest.raises(ValueError):
        probes.variational_floor_check(dim=500)


def test_toy_exact_gaussian_has_constant_local_energy():
    toy = probes.ToyChain1D()
    theta = np.array([np.log(np.expm1(1.0)), 0.0, 0.0])
    xs, w = toy.grid(n=801)
    eloc = toy.local_energies(theta, xs)
    assert np.allclose(eloc, 0.5, atol=1e-12)
    assert toy.quadrature_energy(theta, xs, w) == pytest.approx(0.5, abs=1e-12)


def test_toy_gradient_check_confirms_covariance_form():
    report = probes.toy_gradient_check()
    assert report["passed"]
    assert report["rel_err"] < 1e-3
    # the variant with the doubled baseline misses by orders of magnitude
    assert report["rel_err_doubled_baseline"] > 1e-2


def test_toy_gradient_check_other_parameter_point():
    report = probes.toy_gradient_check(theta=np.array([0.2, -0.5, 0.4]))
    assert report["rel_err"] < 1e-3


def test_complexity_benchmark_report_shape():
    r = complexity_benchmark(seed=0, sortlet_ns=[64, 128, 256],
                             vandermonde_ns=[64, 128, 256])
    assert len(r["sortlet_seconds"]) == 3
    assert len(r["vandermonde_seconds"]) == 3
    assert np.isfinite(r["sortlet_slope"]) and np.isfinite(r["vandermonde_slope"])
