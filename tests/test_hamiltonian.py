import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sortlet_vmc
from oracles import HarmonicGroundState, HydrogenGroundState, harmonic_local_energy
from sortlet_vmc import ad
from sortlet_vmc.ansatz import SignedLog, SortletWavefunction
from sortlet_vmc.geometry import SystemSpec, load_system, transpose_electrons
from sortlet_vmc.hamiltonian import (
    electron_potentials,
    local_energy,
    nuclear_repulsion,
    walker_chunk,
)

H = load_system("""
system:
  nuclei:
    - element: H
      xyz: [0.0, 0.0, 0.0]
""")

LI = load_system("""
system:
  nuclei:
    - element: Li
      xyz: [0.0, 0.0, 0.0]
""")

H8 = load_system("system:\n  nuclei:\n" + "".join(
    f"    - element: H\n      xyz: [{1.8 * i}, 0.0, 0.0]\n" for i in range(8)))

B = load_system("""
system:
  nuclei:
    - element: B
      xyz: [0.0, 0.0, 0.0]
""")


def test_nuclear_repulsion_hand_values():
    assert nuclear_repulsion(H) == 0.0
    h2 = SystemSpec(nuclei_positions=np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]),
                    charges=np.array([1, 1]), n_up=1, n_down=1)
    assert nuclear_repulsion(h2) == pytest.approx(0.5, rel=1e-15)
    lih = SystemSpec(nuclei_positions=np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]]),
                     charges=np.array([3, 1]), n_up=2, n_down=2)
    assert nuclear_repulsion(lih) == pytest.approx(1.0, rel=1e-15)


def test_electron_potentials_hand_values():
    pos = np.array([[[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.5]]])
    ee, en = electron_potentials(LI, pos)
    d01 = np.sqrt(5.0)
    d02 = np.sqrt(1.25)
    d12 = np.sqrt(4.25)
    assert ee[0] == pytest.approx(1 / d01 + 1 / d02 + 1 / d12, rel=1e-14)
    assert en[0] == pytest.approx(-3.0 * (1 / 1.0 + 1 / 2.0 + 1 / 0.5), rel=1e-14)


def test_electron_potentials_of_coincidences_are_infinite_without_a_warning():
    # electron 0 sits on the nucleus and electrons 1 and 2 coincide; the
    # lengths come from backbone.electron_geometry, 1/0 is +inf by design
    pos = np.array([[[0.0, 0.0, 0.0], [1.0, 0.5, 0.0], [1.0, 0.5, 0.0]],
                    [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.5]]])
    ee, en = electron_potentials(LI, pos)
    assert ee[0] == np.inf and en[0] == -np.inf
    assert np.isfinite(ee[1]) and np.isfinite(en[1])


def test_hydrogen_ground_state_local_energy_is_exact():
    rng = np.random.default_rng(0)
    pos = rng.normal(size=(2000, 1, 3)) * 2.0
    exact = HydrogenGroundState()
    e = local_energy(exact.signed_log, H, pos)
    np.testing.assert_allclose(e.total, -0.5, atol=1e-11)
    assert np.max(np.abs(e.total + 0.5)) < 1e-11


def test_hydrogen_off_center_nucleus():
    center = np.array([0.5, -1.0, 2.0])
    sys = SystemSpec(nuclei_positions=center[None], charges=np.array([1]), n_up=1, n_down=0)
    rng = np.random.default_rng(1)
    pos = center + rng.normal(size=(500, 1, 3))
    e = local_energy(HydrogenGroundState(center).signed_log, sys, pos)
    np.testing.assert_allclose(e.total, -0.5, atol=1e-11)


def test_harmonic_ground_state_local_energy_is_exact():
    rng = np.random.default_rng(2)
    pos = rng.normal(size=(1000, 1, 3))
    e = harmonic_local_energy(HarmonicGroundState().signed_log, H, pos)
    np.testing.assert_allclose(e, 1.5, atol=1e-12)


def test_harmonic_many_electron_scaling():
    sys = SystemSpec(nuclei_positions=np.zeros((1, 3)), charges=np.array([4]),
                     n_up=2, n_down=2)
    rng = np.random.default_rng(3)
    pos = rng.normal(size=(200, 4, 3))
    e = harmonic_local_energy(HarmonicGroundState().signed_log, sys, pos)
    np.testing.assert_allclose(e, 6.0, atol=1e-12)  # 1.5 per electron


def test_local_energy_invariant_under_logmag_shift():
    wf = SortletWavefunction(LI, n_sortlets=2, hidden=8, layers=1, seed=0)
    rng = np.random.default_rng(4)
    pos = rng.normal(size=(6, 3, 3))

    def shifted(p):
        sl = wf.signed_log(wf.theta0, p)
        return SignedLog(sl.sign, sl.logmag + 7.25)

    base = local_energy(lambda p: wf.signed_log(wf.theta0, p), LI, pos)
    shift = local_energy(shifted, LI, pos)
    np.testing.assert_array_equal(base.total, shift.total)


def test_local_energy_exchange_invariant():
    wf = SortletWavefunction(LI, n_sortlets=2, hidden=8, layers=1, seed=1)
    rng = np.random.default_rng(5)
    pos = rng.normal(size=(6, 3, 3))
    swapped = transpose_electrons(pos, 0, 1)
    base = local_energy(lambda p: wf.signed_log(wf.theta0, p), LI, pos)
    other = local_energy(lambda p: wf.signed_log(wf.theta0, p), LI, swapped)
    np.testing.assert_array_equal(base.total, other.total)


def _sliced_total(fn, system, pos, width):
    """local_energy of pos evaluated in separate slices of `width` walkers."""
    return np.concatenate([local_energy(fn, system, pos[lo:lo + width]).total
                           for lo in range(0, len(pos), width)])


def test_local_energy_chunking_is_bitwise():
    wf = SortletWavefunction(LI, n_sortlets=2, hidden=8, layers=1, seed=2)
    rng = np.random.default_rng(6)
    pos = rng.normal(size=(7, 3, 3))
    fn = lambda p: wf.signed_log(wf.theta0, p)
    np.testing.assert_array_equal(local_energy(fn, LI, pos).total,
                                  _sliced_total(fn, LI, pos, 2))
    # degenerate shapes: one electron in one-walker slices, and in the plain
    # engine each walker alone against the same walker inside the batch
    wf_h = SortletWavefunction(H, seed=2)  # full width: GEMV and GEMM round apart here
    pos_h = rng.normal(size=(7, 1, 3))
    fn_h = lambda p: wf_h.signed_log(wf_h.theta0, p)
    np.testing.assert_array_equal(local_energy(fn_h, H, pos_h).total,
                                  _sliced_total(fn_h, H, pos_h, 1))
    for w, p in ((wf, pos), (wf_h, pos_h)):
        batch = w.signed_log(w.theta0, p)
        for i in range(len(p)):
            alone = w.signed_log(w.theta0, p[i:i + 1])
            np.testing.assert_array_equal(alone.sign, batch.sign[i:i + 1])
            np.testing.assert_array_equal(alone.logmag, batch.logmag[i:i + 1])


def test_derived_chunk_splits_an_h8_batch_bitwise():
    assert [walker_chunk(n) for n in (1, 3, 4, 5, 8, 16, 64)] == [128, 128, 128, 81, 32, 8, 1]
    wf = SortletWavefunction(H8, n_sortlets=2, hidden=8, layers=1, seed=4)
    batches = []

    def fn(p):
        batches.append(ad.detach(p).shape[0])
        return wf.signed_log(wf.theta0, p)

    pos = H8.nuclei_positions + np.random.default_rng(8).normal(size=(40, 8, 3))
    derived = local_energy(fn, H8, pos).total
    assert batches == [32, 8]
    assert np.all(np.isfinite(derived))
    for width in (20, 1):
        np.testing.assert_array_equal(_sliced_total(fn, H8, pos, width), derived)


@pytest.mark.parametrize("system", [B, H8], ids=["B", "H8"])
def test_local_energy_of_a_lone_walker_matches_the_batch(system):
    """Each walker alone gets the bits of its entry in a batch of five, in
    E_loc and in each term, at the production head count. Pair sums over
    10 (B) and 28 (H8) pairs are long enough for numpy's pairwise order to
    show, where a reduction's order would follow the batch's layout."""
    wf = SortletWavefunction(system, n_sortlets=16, seed=3)
    fn = lambda p: wf.signed_log(wf.theta0, p)
    pos = system.nuclei_positions[np.arange(system.n_electrons) % system.n_nuclei]
    pos = pos + np.random.default_rng(12).normal(size=(5, system.n_electrons, 3))
    batch = local_energy(fn, system, pos)
    for i in range(len(pos)):
        alone = local_energy(fn, system, pos[i:i + 1])
        for term in ("total", "kinetic", "ee", "en"):
            np.testing.assert_array_equal(getattr(alone, term), getattr(batch, term)[i:i + 1])


def test_repeated_local_energy_passes_reuse_their_memory():
    """Steady-state 128-walker H8 passes take under 200 minor page faults.

    The package fixes glibc's mmap and trim thresholds at import, so the
    dual pass's freed temporaries stay in the heap for the next pass; with
    glibc's dynamic thresholds each pass faulted in about 8 000 pages.
    Counted in a fresh interpreter over six passes: the first ones set up
    the heap, and where it settles depends on allocations unrelated to this
    guarantee, so only the last two are bounded.
    """
    if not sortlet_vmc.HEAP_KEPT:
        pytest.skip("glibc mallopt is not available, so the heap thresholds are not set")
    code = (
        "import resource\n"
        "import numpy as np\n"
        "import sortlet_vmc\n"
        "from sortlet_vmc.ansatz import SortletWavefunction\n"
        "from sortlet_vmc.geometry import SystemSpec\n"
        "from sortlet_vmc.hamiltonian import local_energy\n"
        "nuclei = np.outer(np.arange(8), [1.8, 0.0, 0.0])\n"
        "h8 = SystemSpec(nuclei, np.ones(8, dtype=np.int64), 4, 4)\n"
        "wf = SortletWavefunction(h8, seed=0)\n"
        "pos = nuclei + np.random.default_rng(0).normal(size=(128, 8, 3))\n"
        "faults = []\n"
        "for _ in range(6):\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    local_energy(lambda p: wf.signed_log(wf.theta0, p), h8, pos)\n"
        "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        "print(*faults)\n"
    )
    src = str(Path(ad.__file__).resolve().parents[2])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    faults = [int(f) for f in run.stdout.split()]
    assert len(faults) == 6 and max(faults[4:]) < 200, faults


def test_results_do_not_depend_on_positions_layout():
    # H8: eight nuclei give the electron-nucleus sum enough terms for numpy's
    # stride-dependent summation order to show
    wf = SortletWavefunction(H8, n_sortlets=2, hidden=8, layers=1, seed=2)
    fn = lambda p: wf.signed_log(wf.theta0, p)
    pos = 2.0 * np.random.default_rng(6).normal(size=(6, 8, 3))
    perm = [1, 0, 2, 3, 4, 5, 6, 7]
    for odd in (np.asfortranarray(pos), pos[:, perm]):
        assert not odd.flags.c_contiguous
        ref = np.ascontiguousarray(odd)
        np.testing.assert_array_equal(local_energy(fn, H8, odd).total,
                                      local_energy(fn, H8, ref).total)
        np.testing.assert_array_equal(wf.signed_log(wf.theta0, odd).logmag,
                                      wf.signed_log(wf.theta0, ref).logmag)
        np.testing.assert_array_equal(electron_potentials(H8, odd)[1],
                                      electron_potentials(H8, ref)[1])


def test_local_energy_bits_do_not_depend_on_blas_threads():
    """Local energies on an H16 chain agree bitwise under 1 and 2 BLAS threads.

    At full width the dual cross term of the attention products is one GEMM
    of 16 x 16 x (32 * 48) per walker, large enough for OpenBLAS to split it
    over threads. The thread pin only takes effect before numpy loads, so
    each count runs in its own process.
    """
    code = (
        "import numpy as np\n"
        "from sortlet_vmc.ansatz import SortletWavefunction\n"
        "from sortlet_vmc.geometry import SystemSpec\n"
        "from sortlet_vmc.hamiltonian import local_energy\n"
        "nuclei = np.outer(np.arange(16), [1.8, 0.0, 0.0])\n"
        "h16 = SystemSpec(nuclei, np.ones(16, dtype=np.int64), 8, 8)\n"
        "wf = SortletWavefunction(h16, n_sortlets=4, seed=0)\n"
        "pos = h16.nuclei_positions + np.random.default_rng(0).normal(size=(6, 16, 3))\n"
        "e = local_energy(lambda p: wf.signed_log(wf.theta0, p), h16, pos)\n"
        "assert np.all(np.isfinite(e.total))\n"
        "print(e.total.tobytes().hex())\n"
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


def test_local_energy_nan_on_nodes():
    wf = SortletWavefunction(LI, n_sortlets=2, hidden=8, layers=1, seed=3)
    pos = np.zeros((1, 3, 3))
    pos[0, 1] = pos[0, 0]  # two same-spin electrons coincide -> scores tie
    e = local_energy(lambda p: wf.signed_log(wf.theta0, p), LI, pos)
    assert np.isnan(e.kinetic[0])

