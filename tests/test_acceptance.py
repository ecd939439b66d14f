"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Each test prints one PASS/FAIL line with the measured numbers so the whole
gate reads as a checklist under `pytest tests/test_acceptance.py -v -s`.
Criterion 7 is a long stretch run, gated behind SORTLET_VMC_RUN_STRETCH=1.
"""

import os
import time

import numpy as np
import pytest

from oracles import (HarmonicGroundState, HydrogenGroundState, complexity_benchmark,
                     harmonic_local_energy, toy_gradient_check)
from sortlet_vmc import probes
from sortlet_vmc.ansatz import SortletWavefunction, sortlet_logs
from sortlet_vmc.geometry import SystemSpec
from sortlet_vmc.hamiltonian import local_energy
from sortlet_vmc.optimizer import TrainSettings, evaluate_energy, train
from sortlet_vmc.sampler import init_ensemble, mh_step, run_sweeps


def _verdict(name: str, passed: bool, detail: str):
    print(f"\n[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def hydrogen():
    return SystemSpec(np.zeros((1, 3)), np.array([1]), 1, 0)


def lithium():
    return SystemSpec(np.zeros((1, 3)), np.array([3]), 2, 1)


def beryllium():
    return SystemSpec(np.zeros((1, 3)), np.array([4]), 2, 2)


def test_criterion_01_parity_oracle():
    """The ansatz's parity equals brute-force inversion parity, 1e4 vectors, < 5 s:
    the sign of a sortlet head (`sortlet_logs`), which for these sizes comes
    from the sorting network's swap count."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(10_000):
        n = int(rng.integers(2, 13))
        v = rng.standard_normal(n)
        parity = int(sortlet_logs(v[None]).sign[0])
        i, j = np.triu_indices(n, 1)
        brute = 1 - 2 * (int(np.sum(v[i] > v[j])) % 2)
        mismatches += parity != brute
    elapsed = time.perf_counter() - t0
    _verdict("criterion 1 (parity oracle)",
             mismatches == 0 and elapsed < 5.0,
             f"{mismatches} mismatches in 10000 draws, {elapsed:.2f}s (limit 5s)")


def test_criterion_02_antisymmetry():
    """1e3 random (theta, config, swap) triples per system, exact flip, < 30 s."""
    t0 = time.perf_counter()
    worst = 0.0
    bad_signs = 0
    triples = 0
    for system in (lithium(), beryllium()):
        same_spin_pairs = [(a, b) for a in range(system.n_electrons)
                           for b in range(a + 1, system.n_electrons)
                           if system.spins[a] == system.spins[b]]
        for group in range(50):
            wf = SortletWavefunction(system, n_sortlets=4, hidden=16, layers=2,
                                     seed=group)
            rng = np.random.default_rng(1000 + group)
            theta = wf.theta0 + 0.3 * rng.standard_normal(wf.theta0.shape)
            pos = rng.standard_normal((20, system.n_electrons, 3))
            k = rng.integers(len(same_spin_pairs), size=20)
            i = np.array([same_spin_pairs[x][0] for x in k])
            j = np.array([same_spin_pairs[x][1] for x in k])
            sw = pos.copy()
            rows = np.arange(20)
            sw[rows, i], sw[rows, j] = pos[rows, j], pos[rows, i]
            a = wf.signed_log(theta, pos)
            b = wf.signed_log(theta, sw)
            bad_signs += int(np.sum(b.sign != -a.sign))
            live = (a.sign != 0) & (b.sign != 0)
            if np.any(live):
                worst = max(worst, float(np.max(
                    np.abs(b.logmag[live] - a.logmag[live]))))
            triples += 20
    elapsed = time.perf_counter() - t0
    _verdict("criterion 2 (antisymmetry)",
             bad_signs == 0 and worst < 1e-12 and elapsed < 30.0,
             f"{triples} triples, {bad_signs} sign errors, "
             f"max logmag diff {worst:.2e} (limit 1e-12), {elapsed:.1f}s (limit 30s)")


def test_criterion_03_zero_variance_oracles():
    """Hydrogen 1s local energy is -0.5 at 1e5 sampled points; harmonic 1.5."""
    system = hydrogen()
    oracle = HydrogenGroundState()
    fn = lambda p: oracle.signed_log(p)
    ensemble = init_ensemble(system, fn, 200, seed=30)
    run_sweeps(ensemble, fn, 100, adapt=True)
    chunks = []
    for _ in range(500):
        mh_step(ensemble, fn)
        chunks.append(ensemble.positions.copy())
    pts = np.concatenate(chunks)  # (100000, 1, 3)
    eloc = local_energy(fn, system, pts).total
    dev_h = float(np.max(np.abs(eloc + 0.5)))

    harm = HarmonicGroundState()
    rng = np.random.default_rng(31)
    pts2 = rng.standard_normal((10_000, 1, 3))
    eloc2 = harmonic_local_energy(lambda p: harm.signed_log(p), system, pts2)
    dev_w = float(np.max(np.abs(eloc2 - 1.5)))
    _verdict("criterion 3 (zero-variance oracles)",
             dev_h < 1e-9 and dev_w < 1e-9,
             f"hydrogen max|E+0.5| = {dev_h:.2e} at {pts.shape[0]} pts, "
             f"harmonic max|E-1.5| = {dev_w:.2e} (limits 1e-9)")


def test_criterion_04_sampler_moment():
    """<|r|> under the 1s density is 1.5 Bohr within 3 SE over 1e6 samples."""
    system = hydrogen()
    oracle = HydrogenGroundState()
    fn = lambda p: oracle.signed_log(p)
    chains = 500
    kept = 2000
    ensemble = init_ensemble(system, fn, chains, seed=40)
    run_sweeps(ensemble, fn, 200, adapt=True)
    per_chain = np.zeros(chains)
    for _ in range(kept):
        mh_step(ensemble, fn)
        per_chain += np.linalg.norm(ensemble.positions[:, 0, :], axis=1)
    means = per_chain / kept
    mean = float(np.mean(means))
    se = float(np.std(means, ddof=1) / np.sqrt(chains))
    dev = abs(mean - 1.5)
    _verdict("criterion 4 (sampler moment)",
             dev < 3.0 * se,
             f"<|r|> = {mean:.5f} from {chains * kept} samples, "
             f"|dev| = {dev:.2e} vs 3SE = {3 * se:.2e}")


def test_criterion_05_gradient_vs_quadrature():
    """Estimator matches FD of the quadrature energy to 1e-3 relative; the
    doubled-baseline variant does not."""
    report = toy_gradient_check()
    _verdict("criterion 5 (gradient correctness)",
             report["rel_err"] < 1e-3 and report["rel_err_doubled_baseline"] > 1e-2,
             f"covariance form rel err {report['rel_err']:.2e} (limit 1e-3); "
             f"doubled-baseline variant off by {report['rel_err_doubled_baseline']:.2f}")


def test_criterion_06_hydrogen_training(tmp_path):
    """2000 iterations, 512 walkers: trained energy within 2 mHa of -0.5."""
    wf = SortletWavefunction(hydrogen(), n_sortlets=1, hidden=16, layers=1, seed=0)
    settings = TrainSettings(iters=2000, walkers=512, burn_in=300, steps_per_iter=5,
                             lr=1e-2, lr_decay=500.0, seed=0)
    t0 = time.perf_counter()
    result = train(wf, settings, out_dir=tmp_path)
    report = evaluate_energy(wf, result.theta, n_walkers=256, burn_in=300,
                             n_estimates=100, steps_between=5, seed=7)
    dev = abs(report.mean + 0.5)
    # regression guard: smoothed energy must descend across the run
    e = np.asarray(result.energies)
    windows = [float(np.mean(e[k:k + 200])) for k in range(0, 2000, 200)]
    descending = all(b <= a + 2e-3 for a, b in zip(windows, windows[1:]))
    _verdict("criterion 6 (hydrogen training)",
             dev < 2e-3 and descending,
             f"evaluated {report.formatted()} Ha, |dev| = {dev * 1000:.2f} mHa "
             f"(limit 2 mHa), smoothed descent {descending}, "
             f"{time.perf_counter() - t0:.0f}s")


def test_criterion_07_lithium_stretch(tmp_path):
    """Stretch run: Li, K=16, 50k iterations; smoothed descent to < -7.43 Ha."""
    if os.environ.get("SORTLET_VMC_RUN_STRETCH") != "1":
        print("\n[SKIP] criterion 7 (lithium stretch): set SORTLET_VMC_RUN_STRETCH=1 "
              "to run the multi-hour protocol")
        pytest.skip("stretch criterion disabled by default")
    from pathlib import Path
    out_root = Path(os.environ.get("SORTLET_VMC_OUT", tmp_path))
    wf = SortletWavefunction(lithium(), n_sortlets=16, hidden=32, layers=2, seed=0)
    settings = TrainSettings(iters=50_000, walkers=512, burn_in=1000,
                             steps_per_iter=10, lr=3e-3, lr_decay=5000.0, seed=0,
                             checkpoint_every=5000)
    result = train(wf, settings, out_dir=out_root / "li-stretch")
    report = evaluate_energy(wf, result.theta, n_walkers=512, burn_in=500,
                             n_estimates=500, steps_between=10, seed=9)
    e = np.asarray(result.energies)
    windows = [float(np.mean(e[k:k + 2000])) for k in range(0, 50_000, 2000)]
    descending = all(b <= a + 5e-3 for a, b in zip(windows, windows[1:]))
    _verdict("criterion 7 (lithium stretch)",
             report.mean < -7.43 and descending,
             f"final {report.formatted()} Ha (floor -7.43), reference -7.478, "
             f"smoothed descent {descending}")


def test_criterion_08_node_crossings():
    """Sign change on 100/100 exchange paths, one sortlet head and its Vandermonde
    baseline, < 60 s."""
    wf = SortletWavefunction(beryllium(), n_sortlets=1, hidden=16, layers=2, seed=80)
    t0 = time.perf_counter()
    a = probes.node_crossing_suite(wf, trials=100, seed=80)
    b = probes.node_crossing_suite(wf, vandermonde=True, trials=100, seed=80)
    elapsed = time.perf_counter() - t0
    ok = (a["with_crossing"] == 100 and b["with_crossing"] == 100
          and max(a["max_bracket_width"], b["max_bracket_width"]) <= 1e-10
          and elapsed < 60.0)
    _verdict("criterion 8 (node crossings)",
             ok,
             f"sortlet {a['with_crossing']}/100, comparator {b['with_crossing']}/100, "
             f"bracket width <= {max(a['max_bracket_width'], b['max_bracket_width']):.1e} "
             f"(limit 1e-10), {elapsed:.1f}s (limit 60s)")


def test_criterion_09_c1_smoothness():
    """One-sided derivatives agree to 1e-5 at single ties; zero at double ties."""
    one_head = lambda system, seed: SortletWavefunction(system, n_sortlets=1, hidden=16,
                                                        layers=2, seed=seed)
    be = probes.smoothness_probe(one_head(beryllium(), 90), trials=10, seed=90)
    boron = SystemSpec(np.zeros((1, 3)), np.array([5]), 3, 2)
    bo = probes.smoothness_probe(one_head(boron, 91), trials=5, seed=91)
    worst = max(be["worst_one_sided_rel"], bo["worst_one_sided_rel"])
    double = max(be["double_tie"]["max_coordinate_derivative"],
                 bo["double_tie"]["max_coordinate_derivative"])
    _verdict("criterion 9 (C1 smoothness)",
             be["passed"] and bo["passed"],
             f"one-sided agreement {worst:.2e} (limit 1e-5) over "
             f"{be['single_tie_trials'] + bo['single_tie_trials']} ties, "
             f"double-tie derivative {double:.2e} (limit 1e-8)")


def test_criterion_10_complexity():
    """Runtime slope of the sortlet is sort-like; the comparator is quadratic."""
    r = complexity_benchmark(seed=100)
    ok = r["sortlet_slope"] <= 1.2 and r["vandermonde_slope"] >= 1.8
    _verdict("criterion 10 (complexity)",
             ok,
             f"sortlet slope {r['sortlet_slope']:.2f} on N=256..65536 (limit 1.2), "
             f"comparator slope {r['vandermonde_slope']:.2f} (floor 1.8)")
