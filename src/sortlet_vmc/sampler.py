"""Metropolis walkers over |Psi|^2.

Every draw is a pure function of (run seed, chain id, step): counter-based
Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
3", SC'11), from numpy's Philox bit generator set to each counter. One call
draws BLOCK_STEPS steps for every chain, and the ensemble caches that
block. With the batch-independent evaluation paths, batched and serial runs
are bit-for-bit identical (at a fixed step size: adaptation pools
acceptance over the ensemble), and the sampler state is one integer step.

Proposals move all electrons at once by a Gaussian step. A proposal whose
wavefunction value is exactly zero or non-finite is rejected outright, so
chains can never sit on a node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ad
from .geometry import SystemSpec

ADAPT_TARGET = (0.45, 0.55)
ADAPT_FACTOR = 1.1
BLOCK_STEPS = 10  # Metropolis steps drawn per chain_draws call
STEP, PLACEMENT = 0, 1  # counter purposes; a placement's step word is its attempt
_LAST = np.uint64(2**64 - 1)


def stream_key(seed: int) -> np.ndarray:
    """The Philox key of a run: two uint64 words from the seed."""
    return np.random.SeedSequence(seed).generate_state(2, np.uint64)


def _philox_words(key, chains, steps, n_blocks: int, purpose: int) -> np.ndarray:
    """(4 n_blocks, S, M): word w % 4 of the Philox4x64-10 block at counter
    (chains[m], steps[s], w // 4, purpose), lowest word first. numpy's
    counter steps its lowest word first, so one call covers each run of
    consecutive ids; it is set one below, as numpy increments first."""
    ids = np.asarray(chains).astype(np.uint64)
    cut = np.flatnonzero((ids[1:] != ids[:-1] + np.uint64(1)) | (ids[:-1] == _LAST)) + 1
    runs = np.r_[0, cut, len(ids)]
    steps = np.ravel(steps)
    out = np.empty((n_blocks, len(steps), len(ids), 4), dtype=np.uint64)
    gen = np.random.Philox(key=key)
    state = gen.state
    for block in range(n_blocks):
        for s, step in enumerate(steps):
            for lo, hi in zip(runs[:-1], runs[1:]):
                value = (int(ids[lo]) | int(step) << 64 | block << 128 | purpose << 192) - 1
                state["state"]["counter"] = np.array(
                    [(value >> (64 * k)) & (2**64 - 1) for k in range(4)], dtype=np.uint64)
                gen.state = state
                out[block, s, lo:hi] = gen.random_raw(4 * (hi - lo)).reshape(hi - lo, 4)
    return np.moveaxis(out, 3, 1).reshape(4 * n_blocks, len(steps), len(ids))


def chain_draws(key, chains, steps, n_electrons: int, purpose: int = STEP) -> tuple:
    """Standard normals (S, M, N, 3) and a uniform in [0, 1) (S, M) per chain
    and step. The counter is (chain, step, block, purpose), and word w of a
    (chain, step) comes from block w // 4: words [0, h) and [h, 2h) pair up
    for Box-Muller, word 2h is the uniform."""
    h = (3 * n_electrons + 1) // 2
    raw = _philox_words(key, chains, steps, (2 * h + 4) // 4, purpose)
    u = (raw[:2 * h + 1] >> np.uint64(11)).astype(np.float64) * 2.0**-53
    radius, angle = np.sqrt(-2.0 * np.log1p(-u[:h])), 2.0 * np.pi * u[h:2 * h]
    normals = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:3 * n_electrons]
    return np.moveaxis(normals, 0, -1).reshape(u.shape[1:] + (n_electrons, 3)), u[2 * h]


@dataclass
class WalkerEnsemble:
    """Chain state: positions (M, N, 3), cached signed-log values, the run's
    Philox key, global chain ids, steps taken and the shared step size."""

    positions: np.ndarray
    logmag: np.ndarray
    sign: np.ndarray
    key: np.ndarray
    chains: np.ndarray
    sigma: float
    step: int = 0
    _block: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # a short id array would broadcast one chain's draws over many walkers
        if np.shape(self.chains) != (self.n_walkers,):
            raise ValueError("need one chain id per walker")

    @property
    def n_walkers(self) -> int:
        return self.positions.shape[0]

    def step_draws(self) -> tuple:
        """Proposal noise (M, N, 3) and accept uniforms (M,) of this step,
        from the cached block of steps that holds it."""
        if self._block is None or not 0 <= self.step - self._block[0] < BLOCK_STEPS:
            steps = np.arange(self.step, self.step + BLOCK_STEPS)
            self._block = (self.step,) + chain_draws(self.key, self.chains, steps,
                                                     self.positions.shape[1])
        start, noise, uniforms = self._block
        return noise[self.step - start], uniforms[self.step - start]


def electron_homes(system: SystemSpec) -> np.ndarray:
    """Starting center for each electron: nuclei repeated by charge."""
    homes = np.repeat(np.arange(system.n_nuclei), system.charges)
    n = system.n_electrons
    return system.nuclei_positions[homes[np.arange(n) % len(homes)]]  # (N, 3)


def score(signed_log_fn, positions) -> tuple:
    """What the ensemble caches of psi at `positions`: (float64 logmag, sign)."""
    sl = signed_log_fn(positions)
    return np.asarray(ad.detach(sl.logmag), dtype=np.float64), np.asarray(sl.sign)


def init_ensemble(system: SystemSpec, signed_log_fn, n_walkers: int, seed: int,
                  chains=None) -> WalkerEnsemble:
    """Fresh walkers at step size 1: each electron near its home nucleus plus a
    unit Gaussian, redrawn (attempt 1, 2, ...) for any chain that lands exactly
    on a node. `chains` are the walkers' global chain ids (default 0..M-1)."""
    n, centers = system.n_electrons, electron_homes(system)
    chains = np.arange(n_walkers) if chains is None else np.asarray(chains)
    ensemble = WalkerEnsemble(positions=np.empty((n_walkers, n, 3)), logmag=None, sign=None,
                              key=stream_key(seed), chains=chains, sigma=1.0)
    redo = np.arange(n_walkers)
    for attempt in range(100):
        draws = chain_draws(ensemble.key, chains[redo], [attempt], n, PLACEMENT)[0][0]
        ensemble.positions[redo] = centers + draws
        ensemble.logmag, ensemble.sign = score(signed_log_fn, ensemble.positions)
        redo = np.flatnonzero((ensemble.sign == 0) | ~np.isfinite(ensemble.logmag))
        if not len(redo):
            return ensemble
    raise RuntimeError("could not find nonzero wavefunction values to start from")


def mh_step(ensemble: WalkerEnsemble, signed_log_fn) -> float:
    """One all-electron Metropolis step for every chain; returns the
    acceptance fraction of this step."""
    noise, uniforms = ensemble.step_draws()
    proposal = ensemble.positions + ensemble.sigma * noise
    new_logmag, new_sign = score(signed_log_fn, proposal)
    with np.errstate(divide="ignore"):
        log_ratio = 2.0 * (new_logmag - ensemble.logmag)
        alive = (new_sign != 0) & np.isfinite(new_logmag)
        accept = alive & (np.log(uniforms) < log_ratio)
    np.copyto(ensemble.positions, proposal, where=accept[:, None, None])
    np.copyto(ensemble.logmag, new_logmag, where=accept)
    np.copyto(ensemble.sign, new_sign, where=accept)
    ensemble.step += 1
    return float(np.mean(accept))


def run_sweeps(ensemble: WalkerEnsemble, signed_log_fn, steps: int,
               adapt: bool = False) -> float:
    """Advance every chain `steps` times; optionally retune sigma after each
    step from the pooled acceptance. Returns the mean acceptance rate."""
    rates = np.empty(steps)
    for t in range(steps):
        rates[t] = mh_step(ensemble, signed_log_fn)
        if adapt:
            if rates[t] < ADAPT_TARGET[0]:
                ensemble.sigma /= ADAPT_FACTOR
            elif rates[t] > ADAPT_TARGET[1]:
                ensemble.sigma *= ADAPT_FACTOR
    return float(np.mean(rates)) if steps else 0.0
