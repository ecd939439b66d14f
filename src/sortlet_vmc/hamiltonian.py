"""Born-Oppenheimer Hamiltonian terms and the log-domain local energy.

The local energy of a state written as Psi = sign * exp(L) is

    E_loc = -(1/2) (lap L + |grad L|^2) + V

evaluated per walker, where grad and lap are taken over all 3N electron
coordinates in one forward-Laplacian pass: every dual value carries its
gradient as 3N seed lanes and its Laplacian as one number (ad/forward.py),
so logmag.tan is grad L and logmag.curv is lap L; the potentials read the
exact lengths of backbone.electron_geometry. Each walker's electrons are
put in canonical order (`ansatz.canonical_positions`) before the
potentials are summed and the dual lanes are seeded, so E_loc is exactly
invariant under any same-spin relabeling. Each chunk signed_log is handed
is then already in order: finding that costs one comparison of the
electrons' x, and signed_log gathers nothing.

The dual pass runs over chunks of B walkers. Its largest arrays are the
(B, N, width, 3N) tangents of the backbone, whose bytes grow as B N^2, so
`walker_chunk` keeps B N^2 at most LANE_BUDGET and B at most CHUNK_MAX:
128 walkers for Li, Be and LiH, 81 for B, 32 for H8 and 8 for H16. That
bounds the peak memory of a pass, which the process keeps once the heap
holds on to freed blocks (see sortlet_vmc/__init__.py). A walker's bits do
not depend on the chunk it is evaluated in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ad, backbone
from .ansatz import canonical_positions
from .geometry import SystemSpec


@dataclass
class LocalEnergyBreakdown:
    """Per-walker energy terms in Hartree; nn is the scalar nuclear constant.

    Walkers sitting exactly on a node come back NaN (the quotient is
    undefined there); callers are expected to treat those as invalid.
    """

    kinetic: np.ndarray
    ee: np.ndarray
    en: np.ndarray
    nn: float

    @property
    def total(self) -> np.ndarray:
        return self.kinetic + self.ee + self.en + self.nn


def nuclear_repulsion(system: SystemSpec) -> float:
    if system.n_nuclei < 2:
        return 0.0
    iu, ju = np.triu_indices(system.n_nuclei, 1)
    r = np.linalg.norm(system.nuclei_positions[iu] - system.nuclei_positions[ju], axis=-1)
    z = system.charges.astype(np.float64)
    return float(np.sum(np.sort(z[iu] * z[ju] / r)))


def electron_potentials(system: SystemSpec, positions: np.ndarray):
    """(ee, en) per walker for plain positions (B, N, 3), from electron_geometry."""
    _, d, rij = backbone.electron_geometry(system, np.asarray(positions, dtype=np.float64))
    # coincidences legitimately evaluate to +/- inf, not a warning
    with np.errstate(divide="ignore"):
        ee = ad.sum(1.0 / rij, axis=-1)  # 0 without a pair
        en = -ad.sum(system.charges / d, axis=(1, 2))
    return ee, en


def harmonic_potential(positions: np.ndarray) -> np.ndarray:
    """(1/2) sum_i |r_i|^2, the isotropic-well test hook."""
    return 0.5 * ad.sum(np.asarray(positions, dtype=np.float64) ** 2, axis=(1, 2))


CHUNK_MAX = 128
LANE_BUDGET = 2048


def walker_chunk(n_electrons: int) -> int:
    """Walkers per dual pass: min(CHUNK_MAX, LANE_BUDGET // N^2), at least 1."""
    return max(1, min(CHUNK_MAX, LANE_BUDGET // n_electrons ** 2))


def local_energy(signed_log_fn, system: SystemSpec, positions: np.ndarray,
                 potential: str = "coulomb") -> LocalEnergyBreakdown:
    """Per-walker local energy for any SignedLog-producing callable.

    signed_log_fn maps a positions batch (plain or dual) to a SignedLog.
    The 3N-lane dual pass runs over chunks of `walker_chunk(N)` walkers.
    """
    positions, _ = canonical_positions(system.sectors,
                                       np.ascontiguousarray(positions, dtype=np.float64))
    b = positions.shape[0]
    if potential == "coulomb":
        ee, en = electron_potentials(system, positions)
        nn = nuclear_repulsion(system)
    elif potential == "harmonic":
        ee, en = harmonic_potential(positions), np.zeros(b)
        nn = 0.0
    else:
        raise ValueError(f"unknown potential {potential!r}")

    kinetic = np.empty(b)
    step = walker_chunk(system.n_electrons)
    # walkers exactly on a node or a coincidence produce non-finite lanes by
    # construction; they are flagged NaN below rather than warned about
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lo in range(0, b, step):
            part = positions[lo:lo + step]
            sl = signed_log_fn(ad.seed_positions(part))
            logmag = sl.logmag
            if not isinstance(logmag, ad.Dual):
                raise TypeError("signed_log_fn must propagate dual positions")
            grad2 = ad.sum(logmag.tan ** 2, axis=-1)
            lap = logmag.curv
            k = -0.5 * (lap + grad2)
            k = np.where(sl.sign == 0, np.nan, k)
            kinetic[lo:lo + step] = k
    return LocalEnergyBreakdown(kinetic=kinetic, ee=ee, en=en, nn=nn)

