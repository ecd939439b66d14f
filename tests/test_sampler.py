import hashlib

import numpy as np
import pytest

from oracles import HarmonicGroundState, HydrogenGroundState
from sortlet_vmc.ansatz import SignedLog, SortletWavefunction
from sortlet_vmc.geometry import load_system
from sortlet_vmc.sampler import (
    PLACEMENT,
    STEP,
    WalkerEnsemble,
    chain_draws,
    electron_homes,
    init_ensemble,
    mh_step,
    run_sweeps,
    stream_key,
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


def test_electron_homes_charge_proportional():
    lih = load_system("""
system:
  nuclei:
    - element: Li
      xyz: [0.0, 0.0, 0.0]
    - element: H
      xyz: [3.0, 0.0, 0.0]
""")
    homes = electron_homes(lih)
    # 3 electrons at Li, 1 at H
    np.testing.assert_array_equal(homes, [[0, 0, 0], [0, 0, 0], [0, 0, 0], [3, 0, 0]])


def test_init_ensemble_is_deterministic():
    fn = HydrogenGroundState().signed_log
    a = init_ensemble(H, fn, n_walkers=8, seed=3)
    b = init_ensemble(H, fn, n_walkers=8, seed=3)
    assert np.array_equal(a.positions, b.positions)
    c = init_ensemble(H, fn, n_walkers=8, seed=4)
    assert not np.array_equal(a.positions, c.positions)


def test_chains_are_independent_of_batching():
    # one ensemble of 6 chains vs 6 single-chain ensembles with the same
    # chain ids, and vs a strided subset of them: identical trajectories,
    # bit for bit
    wf = SortletWavefunction(LI, n_sortlets=2, hidden=8, layers=1, seed=0)
    fn = lambda p: wf.signed_log(wf.theta0, p)
    chains = np.arange(100, 112)[::2]
    batched = init_ensemble(LI, fn, n_walkers=6, seed=0, chains=chains)
    singles = [init_ensemble(LI, fn, n_walkers=1, seed=0, chains=[c]) for c in chains]
    strided = init_ensemble(LI, fn, n_walkers=2, seed=0, chains=chains[1::3])
    for e in [batched, strided] + singles:
        run_sweeps(e, fn, steps=25, adapt=False)
    stacked = np.concatenate([e.positions for e in singles])
    assert np.array_equal(batched.positions, stacked)
    assert np.array_equal(batched.logmag, np.concatenate([e.logmag for e in singles]))
    assert np.array_equal(strided.positions, batched.positions[1::3])
    assert np.array_equal(strided.logmag, batched.logmag[1::3])


def test_rejects_node_and_nonfinite_proposals():
    class Harsh:
        def signed_log(self, positions):
            from sortlet_vmc import ad
            from sortlet_vmc.ansatz import SignedLog

            pos = ad.detach(positions)
            b = pos.shape[0]
            # first coordinate negative -> pretend node; > 2 -> pretend overflow
            x = pos[:, 0, 0]
            sign = np.where(x < 0, 0, 1)
            logmag = np.where(x > 2, np.inf, -(x ** 2))
            return SignedLog(sign, logmag)

    fn = Harsh().signed_log
    ens = WalkerEnsemble(positions=np.full((4, 1, 3), 0.5), logmag=np.full(4, -0.25),
                         sign=np.ones(4, dtype=np.int64),
                         key=stream_key(0), chains=np.arange(4), sigma=1.0)
    for _ in range(30):
        mh_step(ens, fn)
    assert np.all(ens.positions[:, 0, 0] >= 0)
    assert np.all(ens.positions[:, 0, 0] <= 2)
    assert np.all(np.isfinite(ens.logmag))


def test_sigma_adaptation_moves_toward_target_band():
    fn = HarmonicGroundState().signed_log
    ens = init_ensemble(H, fn, n_walkers=64, seed=1)
    ens.sigma = 40.0  # absurdly wide
    run_sweeps(ens, fn, steps=200, adapt=True)
    assert ens.sigma < 40.0
    rate = run_sweeps(ens, fn, steps=100, adapt=False)
    assert 0.3 < rate < 0.7

    ens2 = init_ensemble(H, fn, n_walkers=64, seed=2)
    ens2.sigma = 1e-3  # absurdly narrow
    run_sweeps(ens2, fn, steps=200, adapt=True)
    assert ens2.sigma > 1e-3


def test_frozen_sigma_stays_put():
    fn = HarmonicGroundState().signed_log
    ens = init_ensemble(H, fn, n_walkers=16, seed=5)
    ens.sigma = 0.7
    run_sweeps(ens, fn, steps=50, adapt=False)
    assert ens.sigma == 0.7


def test_harmonic_moments_match_stationary_density():
    # psi^2 = exp(-|r|^2) is a Gaussian with variance 1/2 per coordinate
    fn = HarmonicGroundState().signed_log
    ens = init_ensemble(H, fn, n_walkers=1024, seed=7)
    run_sweeps(ens, fn, steps=300, adapt=True)
    samples = []
    for _ in range(400):
        mh_step(ens, fn)
        samples.append(ens.positions[:, 0, 0].copy())
    x = np.concatenate(samples)
    assert abs(np.mean(x)) < 0.02
    assert abs(np.var(x) - 0.5) < 0.02


def toy_three_state_frequencies(weights, steps: int, seed: int = 0,
                                chains: int = 256) -> np.ndarray:
    """Empirical occupation of a 3-state chain driven by the same accept rule
    as mh_step (log-domain ratio of squared amplitudes).

    weights are |psi|^2 up to normalization. Proposals pick one of the other
    two states uniformly, which is symmetric, so detailed balance holds for
    the bare ratio; the long-run frequencies must match the normalized
    weights.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (3,) or np.any(w <= 0):
        raise ValueError("need three positive weights")
    logmag = 0.5 * np.log(w)  # treat weights as psi^2
    rng = np.random.default_rng(seed)
    state = rng.integers(0, 3, size=chains)
    counts = np.zeros(3, dtype=np.int64)
    per_chain = steps // chains
    for _ in range(per_chain):
        move = rng.integers(1, 3, size=chains)
        proposal = (state + move) % 3
        log_ratio = 2.0 * (logmag[proposal] - logmag[state])
        accept = np.log(rng.uniform(size=chains)) < log_ratio
        state = np.where(accept, proposal, state)
        counts += np.bincount(state, minlength=3)
    return counts / counts.sum()


def test_toy_three_state_frequencies_match_weights():
    w = np.array([0.2, 0.3, 0.5])
    freq = toy_three_state_frequencies(w, steps=1_000_000, seed=0)
    np.testing.assert_allclose(freq, w, atol=0.01)


def test_toy_rejects_bad_weights():
    with pytest.raises(ValueError):
        toy_three_state_frequencies([0.5, 0.5], steps=10)
    with pytest.raises(ValueError):
        toy_three_state_frequencies([0.2, -0.1, 0.9], steps=10)


# SHA-256 of the normals' and the uniforms' bytes, taken from the hand-written
# vectorized Philox4x64-10 that chain_draws used before it called numpy's
# generator: (key, chain ids, steps, electrons, purpose) -> (normals, uniforms)
_TOP = 2**64 - 1
GOLDEN_DRAWS = [
    ((5, np.arange(512), np.arange(3, 9), 3, STEP),
     "684ac35d8a7cf18d332b36100416d4d087ca17c7036ab1a2e3917b5a4224dbc5",
     "9ec695d260e745fd37497ba8d4b8d811a0cbc5de34c2890536bac18084f77c8a"),
    ((5, np.arange(0, 512, 3), np.arange(3, 9), 3, STEP),
     "e264300f467232f26cb437995fd77936848ce7e40ff055f8a1cbf696d5e46e98",
     "9dad8e392017210051f1bf9052cf2f7cc477ade1ee567a43e9ffad8c67d7bc44"),
    (([_TOP, _TOP], np.array([7, 2, 3, 4, 0, 1, 1000]), np.arange(10), 4, STEP),
     "1cfce0ab8a5bff634e4d7b6fe2b265b025ff45fcbcfea4e3135f1ac99196e8c6",
     "57f4691f4507eefaa39d06b58921d078d34cb8f42c46d55951c8302336e74a86"),
    ((11, np.array([300]), np.arange(20, 30), 8, STEP),
     "e1ea49987e16ba5e5f3ba88180db9a3f049d7009c95ec0eeafe81def02b159d8",
     "3c082332c015f2bc1bba39e70e6a5eeab2586b130d5da04828cfd72c1a924f60"),
    ((11, np.arange(64), [2], 1, PLACEMENT),
     "67a0a9a580a5ff3e1def9a97c8175386644bd0a0b82f58f310a281ccbe0f0809",
     "b10122665c12dc77a13d0352613942e152eeafd342ae0efef522b61633f2a471"),
    (([_TOP, _TOP - 1], np.arange(5, 21), np.arange(10), 8, PLACEMENT),
     "e62ea3d3d7c3c17140f4fb479c0782436a3a2c7c63ec7e053dde97faeb8007fe",
     "c0729525511dd807e3062cc7cfbd62e8960d2c9d24180c0b5a5c2121e71020e2"),
]


def test_chain_draws_match_golden_digests():
    """Contiguous, strided, unordered and single chain ids, 1 to 8
    electrons, both purposes, and keys that are a run seed, all ones or
    all ones but the lowest bit: every draw keeps its bits."""
    for (key, chains, steps, n, purpose), normals_sha, uniforms_sha in GOLDEN_DRAWS:
        key = stream_key(key) if isinstance(key, int) else np.array(key, dtype=np.uint64)
        normals, uniforms = chain_draws(key, chains, steps, n, purpose)
        assert normals.shape == (len(steps), len(chains), n, 3)
        assert hashlib.sha256(normals.tobytes()).hexdigest() == normals_sha
        assert hashlib.sha256(uniforms.tobytes()).hexdigest() == uniforms_sha


def test_chain_draws_do_not_depend_on_the_batch():
    # 3 electrons: 9 normals, an odd count, so one Box-Muller value is unused
    key = stream_key(5)
    steps = np.arange(3, 9)
    chains = np.arange(512)
    normals, uniforms = chain_draws(key, chains, steps, 3)
    assert normals.shape == (6, 512, 3, 3) and uniforms.shape == (6, 512)
    assert np.all((uniforms >= 0) & (uniforms < 1))
    alone_n, alone_u = chain_draws(key, [300], steps, 3)
    assert np.array_equal(alone_n[:, 0], normals[:, 300])
    assert np.array_equal(alone_u[:, 0], uniforms[:, 300])
    sub_n, sub_u = chain_draws(key, chains[::3], steps, 3)
    assert np.array_equal(sub_n, normals[:, ::3])
    assert np.array_equal(sub_u, uniforms[:, ::3])
    one_n, one_u = chain_draws(key, chains, steps[4:5], 3)
    assert np.array_equal(one_n[0], normals[4])
    assert np.array_equal(one_u[0], uniforms[4])


def test_sweeps_draw_the_same_steps_as_single_steps():
    # 23 is not a multiple of the block of steps drawn per call, and the
    # stepped ensemble is rebuilt at step 7, as a resume does, so its blocks
    # start elsewhere
    fn = HarmonicGroundState().signed_log
    swept = init_ensemble(LI, fn, n_walkers=8, seed=3)
    stepped = init_ensemble(LI, fn, n_walkers=8, seed=3)
    swept.sigma = stepped.sigma = 0.6
    rate = run_sweeps(swept, fn, 23)
    rates = [mh_step(stepped, fn) for _ in range(7)]
    stepped = WalkerEnsemble(positions=stepped.positions, logmag=stepped.logmag,
                             sign=stepped.sign, key=stepped.key, chains=stepped.chains,
                             sigma=stepped.sigma, step=stepped.step)
    rates += [mh_step(stepped, fn) for _ in range(16)]
    assert swept.step == stepped.step == 23
    assert rate == float(np.mean(rates))
    assert np.array_equal(swept.positions, stepped.positions)
    assert np.array_equal(swept.logmag, stepped.logmag)


def test_ensemble_needs_one_chain_id_per_walker():
    # with one id for four walkers, the (1, N, 3) draw would broadcast and
    # give every walker the same proposal noise
    state = dict(positions=np.full((4, 1, 3), 0.5), logmag=np.full(4, -0.25),
                 sign=np.ones(4, dtype=np.int64), key=stream_key(0), sigma=1.0)
    for chains in (np.arange(1), np.arange(5), np.arange(4)[None], np.int64(0)):
        with pytest.raises(ValueError, match="one chain id per walker"):
            WalkerEnsemble(chains=chains, **state)
    assert WalkerEnsemble(chains=np.arange(4), **state).n_walkers == 4


@pytest.mark.parametrize("verdict", ["dead", "far_above", "alternate"])
def test_mh_step_copies_only_accepted_walkers(verdict):
    """After one mh_step every rejected walker's position, logmag and sign
    are bitwise as before, and every accepted walker holds its proposal's:
    proposals that all score sign 0 (none accepted), proposals that all
    score far above the current walkers (all accepted), and the two
    alternating walker by walker."""
    rng = np.random.default_rng(29)
    m = 9
    before = dict(positions=rng.normal(size=(m, 3, 3)), logmag=rng.normal(size=m),
                  sign=rng.choice(np.array([-1, 1]), size=m))
    ens = WalkerEnsemble(**{k: v.copy() for k, v in before.items()}, key=stream_key(4),
                         chains=np.arange(m), sigma=0.8)
    alive = {"dead": np.zeros(m, dtype=bool), "far_above": np.ones(m, dtype=bool),
             "alternate": np.arange(m) % 2 == 1}[verdict]
    new_sign = np.where(alive, rng.choice(np.array([-1, 1]), size=m), 0)

    def scored(positions):
        # 1000 above every current walker: accepted wherever the sign lets it live
        return SignedLog(new_sign.copy(), positions[:, 0, 0] + 1000.0)

    noise, _ = ens.step_draws()
    proposal = before["positions"] + 0.8 * noise
    rate = mh_step(ens, scored)
    assert rate == np.mean(alive)
    want = dict(positions=np.where(alive[:, None, None], proposal, before["positions"]),
                logmag=np.where(alive, proposal[:, 0, 0] + 1000.0, before["logmag"]),
                sign=np.where(alive, new_sign, before["sign"]))
    for name, value in want.items():
        got = getattr(ens, name)
        assert got.dtype == value.dtype and got.tobytes() == value.tobytes(), name
