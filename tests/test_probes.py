import numpy as np
import pytest

from oracles import (ToyChain1D, complexity_benchmark, toy_gradient_check,
                     toy_local_energies, variational_floor_check)
from sortlet_vmc import probes
from sortlet_vmc.ansatz import SortletWavefunction
from sortlet_vmc.geometry import SystemSpec


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
    pos = np.random.default_rng(0).standard_normal((3, 3))
    with pytest.raises(ValueError, match="distinct"):
        probes.node_crossing_probe(fn, system, pos, 1, 1)
    with pytest.raises(ValueError, match="share spin"):
        probes.node_crossing_probe(fn, system, pos, 0, 2)
    with pytest.raises(ValueError, match="resolution"):
        probes.node_crossing_probe(fn, system, pos, 0, 1, resolution=10)


def test_node_probe_brackets_are_tight_and_odd():
    system = beryllium()
    wf = SortletWavefunction(system, n_sortlets=1, hidden=16, layers=2, seed=2)
    fn = lambda p: wf.signed_log(wf.theta0, p)
    rng = np.random.default_rng(3)
    pos = rng.standard_normal((4, 3))
    out = probes.node_crossing_probe(fn, system, pos, 0, 1, resolution=400, tol=1e-10)
    assert out["count"] >= 1
    assert out["count"] % 2 == 1  # endpoints have opposite sign
    assert out["max_width"] <= 1e-10
    for lo, hi in out["locations"]:
        assert 0.0 < lo <= hi < 1.0


def _probe_scan(signs):
    """The sign-change scan node_crossing_probe ran as a loop: grid indices
    of the zero hits and of the upper ends of the flip brackets."""
    zeros, flips = [], []
    prev_s, in_zero_run = signs[0], False
    for k, s in enumerate(signs[1:], start=1):
        if s == 0:
            if not in_zero_run:
                zeros.append(k)
                in_zero_run = True
            continue
        if in_zero_run:
            in_zero_run = False
        elif s != prev_s:
            flips.append(k)
        prev_s = s
    return zeros, flips


def _three_cycle_count(signs):
    """The crossing count the three-cycle scan ran as a loop."""
    count, prev, in_zero_run = 0, signs[0], False
    for s in signs[1:]:
        if s == 0:
            if not in_zero_run:
                count += 1
                in_zero_run = True
            continue
        if in_zero_run:
            in_zero_run = False
        elif s != prev:
            count += 1
        prev = s
    return count


@pytest.mark.parametrize("signs,zeros,flips", [
    ([1, 1, -1, -1], [], [2]),
    ([1, 0, 0, 0, 1], [1], []),
    ([1, 0, 0, -1, 1], [1], [4]),
    ([0, 1, 1, -1], [], [1, 3]),
    ([0, 0, -1], [1], []),
    ([1, 1, 0, -1, -1], [2], []),
], ids=["flip", "zero_run", "flip_after_zero_run", "leading_zero", "leading_zero_run",
        "midpoint_zero"])
def test_sign_changes_match_the_scan_loops(signs, zeros, flips):
    """A zero run counts once, the sample after it is not compared, and a
    leading zero (a three-cycle path may start on a node) is compared like
    any sign. The midpoint case is the t = 1/2 zero an even grid hits."""
    got_zeros, got_flips = probes._sign_changes(np.array(signs))
    assert (got_zeros.tolist(), got_flips.tolist()) == (zeros, flips) == _probe_scan(signs)
    assert got_zeros.size + got_flips.size == _three_cycle_count(signs)


def test_sign_changes_match_the_scan_loops_on_random_sequences():
    rng = np.random.default_rng(10)
    for _ in range(300):
        signs = rng.choice([-1, 0, 1], size=rng.integers(2, 12), p=[0.4, 0.2, 0.4])
        zeros, flips = probes._sign_changes(signs)
        assert (zeros.tolist(), flips.tolist()) == _probe_scan(signs.tolist())
        assert zeros.size + flips.size == _three_cycle_count(signs.tolist())


def probe_model(system, seed, n_sortlets=1):
    """The model the probes' tests hand in: width 16, two layers."""
    return SortletWavefunction(system, n_sortlets=n_sortlets, hidden=16, layers=2, seed=seed)


@pytest.mark.parametrize("vandermonde", [False, True], ids=["sortlet", "vandermonde"])
def test_node_suite_finds_crossing_on_every_path(vandermonde):
    report = probes.node_crossing_suite(probe_model(beryllium(), 4), vandermonde=vandermonde,
                                        n_paths=25, seed=4)
    assert report["passed"]
    assert report["with_crossing"] == 25
    assert report["max_bracket_width"] <= 1e-10


def test_node_suite_sum_mode_records_three_cycles():
    report = probes.node_crossing_suite(probe_model(boron(), 5, n_sortlets=16), n_paths=10,
                                        seed=5)
    assert report["passed"] and report["with_crossing"] == 10
    counts = report["three_cycle_crossing_counts"]
    assert len(counts) == 10
    assert all(c >= 0 for c in counts)


def test_smoothness_probe_passes_on_beryllium():
    report = probes.smoothness_probe(probe_model(beryllium(), 6), trials=5, seed=6)
    assert report["passed"]
    assert report["worst_one_sided_rel"] < 1e-5
    assert report["double_tie"]["applicable"]
    assert report["double_tie"]["on_node"]
    assert report["double_tie"]["max_coordinate_derivative"] < 1e-8


def test_smoothness_probe_triple_coincidence_on_boron():
    report = probes.smoothness_probe(probe_model(boron(), 7), trials=3, seed=7)
    assert report["passed"]
    assert report["double_tie"]["max_coordinate_derivative"] < 1e-8


def test_variational_floor_probe():
    report = variational_floor_check(dim=50, trials=5000, seed=8)
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
        variational_floor_check(dim=500)


def test_toy_exact_gaussian_has_constant_local_energy():
    toy = ToyChain1D()
    theta = np.array([np.log(np.expm1(1.0)), 0.0, 0.0])
    xs, w = toy.grid(n=801)
    eloc = toy.local_energies(theta, xs)
    assert np.allclose(eloc, 0.5, atol=1e-12)
    assert toy.quadrature_energy(theta, xs, w) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("theta", [None, (0.2, -0.5, 0.4)])
def test_toy_local_energy_is_the_production_one(theta):
    """ToyChain1D's E_L comes from hamiltonian.local_energy and equals the
    toy's one-coordinate formula bit for bit on the whole quadrature grid,
    so the gradient check runs the local energy that training runs."""
    toy = ToyChain1D()
    theta = toy.theta0 if theta is None else np.array(theta)
    xs, _ = toy.grid()
    np.testing.assert_array_equal(toy.local_energies(theta, xs),
                                  toy_local_energies(toy, theta, xs))


def test_toy_gradient_check_confirms_covariance_form():
    report = toy_gradient_check()
    assert report["passed"]
    assert report["rel_err"] < 1e-3
    # the variant with the doubled baseline misses by orders of magnitude
    assert report["rel_err_doubled_baseline"] > 1e-2


def test_toy_gradient_check_other_parameter_point():
    report = toy_gradient_check(theta=np.array([0.2, -0.5, 0.4]))
    assert report["rel_err"] < 1e-3


def test_complexity_benchmark_report_shape():
    r = complexity_benchmark(seed=0, sortlet_ns=[64, 128, 256],
                             vandermonde_ns=[64, 128, 256])
    assert len(r["sortlet_seconds"]) == 3
    assert len(r["vandermonde_seconds"]) == 3
    assert np.isfinite(r["sortlet_slope"]) and np.isfinite(r["vandermonde_slope"])
