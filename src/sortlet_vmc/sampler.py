"""Metropolis walkers over |Psi|^2.

Every draw is a pure function of (run seed, chain id, step): counter-based
Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
3", SC'11) in vectorized uint64 numpy. One call draws BLOCK_STEPS steps for
every chain, and the ensemble caches that block. With the batch-independent
evaluation paths, batched and serial runs are bit-for-bit identical (at a
fixed step size: adaptation pools acceptance over the ensemble), and the
sampler state is one integer step.

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
BLOCK_STEPS = 10  # Metropolis steps drawn per Philox call
STEP, PLACEMENT = 0, 1  # counter purposes; a placement's step word is its attempt
_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)  # key bumps
_LO, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_M_LO, _M_HI = _M & _LO, _M >> _32


def stream_key(seed: int) -> np.ndarray:
    """The Philox key of a run: two uint64 words from the seed."""
    return np.random.SeedSequence(seed).generate_state(2, np.uint64)


def philox4x64(counter, key) -> tuple:
    """Philox4x64-10 of the counter words (c0, c1, c2, c3), uint64 arrays
    that broadcast, under a two-word key: the block's four output words. The
    128-bit products are built from 32-bit halves in buffers made once."""
    c = np.broadcast_arrays(*(np.asarray(w, dtype=np.uint64) for w in counter))
    mul, other = np.stack(c[0::2]).reshape(2, -1), np.stack(c[1::2]).reshape(2, -1)
    lo, hi, t, carry = (np.empty_like(mul) for _ in range(4))
    k = np.array(key, dtype=np.uint64).reshape(2, 1)
    for _ in range(10):
        np.bitwise_and(mul, _LO, out=lo)
        np.right_shift(mul, _32, out=hi)
        np.multiply(lo, _M_LO, out=carry)
        carry >>= _32
        np.multiply(hi, _M_LO, out=t)
        t += carry
        lo *= _M_HI
        lo += np.bitwise_and(t, _LO, out=carry)
        hi *= _M_HI
        hi += np.right_shift(t, _32, out=t)
        hi += np.right_shift(lo, _32, out=lo)
        np.multiply(mul, _M, out=lo)
        # (c0, c2) <- (hi1 ^ c1 ^ k0, hi0 ^ c3 ^ k1); (c1, c3) <- (lo1, lo0)
        np.bitwise_xor(hi[::-1], other, out=mul)
        mul ^= k
        k += _W
        lo, other = other, lo[::-1]
    return tuple(w.reshape(c[0].shape) for w in (mul[0], other[0], mul[1], other[1]))


def chain_draws(key, chains, steps, n_electrons: int, purpose: int = STEP) -> tuple:
    """Standard normals (S, M, N, 3) and a uniform in [0, 1) (S, M) per chain
    and step. The counter is (chain, step, block, purpose), and word w of a
    (chain, step) comes from block w // 4: words [0, h) and [h, 2h) pair up
    for Box-Muller, word 2h is the uniform."""
    h = (3 * n_electrons + 1) // 2
    blocks = np.arange((2 * h + 4) // 4)
    words = philox4x64((chains, np.reshape(steps, (-1, 1)), blocks[:, None, None], purpose), key)
    raw = np.stack(words, axis=1).reshape((4 * len(blocks),) + words[0].shape[1:])
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


def init_ensemble(system: SystemSpec, signed_log_fn, n_walkers: int, seed: int,
                  sigma: float = 1.0, chains=None) -> WalkerEnsemble:
    """Fresh walkers: each electron near its home nucleus plus a unit
    Gaussian, redrawn (attempt 1, 2, ...) for any chain that lands exactly on
    a node. `chains` are the walkers' global chain ids (default 0..M-1)."""
    chains = np.arange(n_walkers) if chains is None else np.asarray(chains)
    if chains.shape != (n_walkers,):
        raise ValueError("need one chain id per walker")
    key = stream_key(seed)
    n, centers = system.n_electrons, electron_homes(system)
    positions, redo = np.empty((n_walkers, n, 3)), np.arange(n_walkers)
    for attempt in range(100):
        positions[redo] = centers + chain_draws(key, chains[redo], [attempt], n, PLACEMENT)[0][0]
        sl = signed_log_fn(positions)
        logmag = np.asarray(ad.detach(sl.logmag), dtype=np.float64)
        sign = np.asarray(sl.sign)
        redo = np.flatnonzero((sign == 0) | ~np.isfinite(logmag))
        if not len(redo):
            break
    else:
        raise RuntimeError("could not find nonzero wavefunction values to start from")
    return WalkerEnsemble(positions=positions, logmag=logmag, sign=sign, key=key,
                          chains=chains, sigma=float(sigma))


def mh_step(ensemble: WalkerEnsemble, signed_log_fn) -> float:
    """One all-electron Metropolis step for every chain; returns the
    acceptance fraction of this step."""
    noise, uniforms = ensemble.step_draws()
    proposal = ensemble.positions + ensemble.sigma * noise
    sl = signed_log_fn(proposal)
    new_logmag = np.asarray(ad.detach(sl.logmag), dtype=np.float64)
    new_sign = np.asarray(sl.sign)
    with np.errstate(divide="ignore"):
        log_ratio = 2.0 * (new_logmag - ensemble.logmag)
        alive = (new_sign != 0) & np.isfinite(new_logmag)
        accept = alive & (np.log(uniforms) < log_ratio)
    ensemble.positions[accept] = proposal[accept]
    ensemble.logmag[accept] = new_logmag[accept]
    ensemble.sign[accept] = new_sign[accept]
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
