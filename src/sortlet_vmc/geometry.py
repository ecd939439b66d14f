"""Molecular systems, electron configurations, and config-file ingestion.

All quantities are in Hartree atomic units (lengths in Bohr, energies in
Hartree). Electron identity is positional: exchanging two electrons swaps
their position rows, never their spin tags.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import yaml

BOHR_PER_ANGSTROM = 1.8897259886

# Neutral-atom charges for the symbols this engine targets (desk scale).
ELEMENTS = {
    "H": 1, "He": 2, "Li": 3, "Be": 4, "B": 5, "C": 6, "N": 7, "O": 8,
    "F": 9, "Ne": 10,
}


class ConfigError(ValueError):
    """Config rejection with the offending field path in the message."""

    def __init__(self, field_path: str, message: str):
        self.field_path = field_path
        super().__init__(f"{field_path}: {message}")


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SystemSpec:
    """A fixed molecule: nuclei plus the electron spin split.

    nuclei_positions: (n_nuclei, 3) Bohr; charges: (n_nuclei,) positive ints.
    """

    nuclei_positions: np.ndarray
    charges: np.ndarray
    n_up: int
    n_down: int

    def __post_init__(self):
        pos = _frozen(np.atleast_2d(self.nuclei_positions))
        charges = np.array(self.charges, dtype=np.int64)
        charges.flags.writeable = False
        object.__setattr__(self, "nuclei_positions", pos)
        object.__setattr__(self, "charges", charges)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError("nuclei_positions must be (n, 3)")
        if len(charges) != len(pos) or len(pos) == 0:
            raise ValueError("need at least one nucleus with a charge each")
        if np.any(charges < 1):
            raise ValueError("all nuclear charges must be >= 1")
        if not np.all(np.isfinite(pos)):
            raise ValueError("nuclei positions must be finite")
        for i in range(len(pos)):
            for j in range(i + 1, len(pos)):
                if np.array_equal(pos[i], pos[j]):
                    raise ValueError(f"nuclei {i} and {j} coincide")
        if self.n_up < 0 or self.n_down < 0 or self.n_up + self.n_down < 1:
            raise ValueError("need n_up + n_down >= 1 electrons")

    @property
    def n_electrons(self) -> int:
        return self.n_up + self.n_down

    @property
    def n_nuclei(self) -> int:
        return len(self.charges)

    @property
    def spins(self) -> np.ndarray:
        """Per-slot spin tags: first n_up are +1, the rest -1."""
        s = np.concatenate([np.ones(self.n_up, dtype=np.int64),
                            -np.ones(self.n_down, dtype=np.int64)])
        s.flags.writeable = False
        return s

    def configuration(self, positions) -> "ElectronConfiguration":
        return ElectronConfiguration(positions=np.asarray(positions, dtype=np.float64),
                                     spins=self.spins)


@dataclass(frozen=True)
class ElectronConfiguration:
    """One point in R^{3N} with per-electron spin tags."""

    positions: np.ndarray
    spins: np.ndarray

    def __post_init__(self):
        pos = _frozen(np.atleast_2d(self.positions))
        spins = np.array(self.spins, dtype=np.int64)
        spins.flags.writeable = False
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "spins", spins)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError("positions must be (N, 3)")
        if len(spins) != len(pos):
            raise ValueError("spins must have one entry per electron")
        if not np.all(np.isin(spins, (-1, 1))):
            raise ValueError("spins must be +1 or -1")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")

    @property
    def n_electrons(self) -> int:
        return len(self.spins)


def transpose_electrons(c: ElectronConfiguration, i: int, j: int) -> ElectronConfiguration:
    """Swap the positions of electrons i and j; spin tags stay put."""
    n = c.n_electrons
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"electron index out of range: ({i}, {j}) for N={n}")
    pos = c.positions.copy()
    pos[[i, j]] = pos[[j, i]]
    return ElectronConfiguration(positions=pos, spins=c.spins)


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

_TOP_KEYS = {"system", "electrons", "run"}
_SYSTEM_KEYS = {"nuclei"}
_NUCLEUS_KEYS = {"element", "charge", "xyz"}
_ELECTRON_KEYS = {"n_up", "n_down"}
_RUN_KEYS = {"seed", "potential"}
_POTENTIALS = {"coulomb", "harmonic"}


@dataclass(frozen=True)
class RunSettings:
    """Per-run settings from the [run] section."""

    seed: int = 0
    potential: str = "coulomb"


@dataclass(frozen=True)
class LoadedConfig:
    system: SystemSpec
    run: RunSettings = field(default_factory=RunSettings)


def _is_int(v) -> bool:
    # YAML true/false load as bool, a subclass of int; they are not numbers here
    return isinstance(v, int) and not isinstance(v, bool)


def _reject_unknown(mapping: dict, allowed: set, path: str):
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}", f"unknown key (allowed: {sorted(allowed)})")


def _parse_nucleus(entry, idx: int):
    path = f"system.nuclei[{idx}]"
    if not isinstance(entry, dict):
        raise ConfigError(path, "each nucleus must be a mapping with element|charge and xyz")
    _reject_unknown(entry, _NUCLEUS_KEYS, path)
    if ("element" in entry) == ("charge" in entry):
        raise ConfigError(path, "give exactly one of 'element' or 'charge'")
    if "element" in entry:
        symbol = entry["element"]
        if symbol not in ELEMENTS:
            raise ConfigError(f"{path}.element", f"unknown element {symbol!r}")
        charge = ELEMENTS[symbol]
    else:
        charge = entry["charge"]
        if not _is_int(charge) or charge < 1:
            raise ConfigError(f"{path}.charge", "charge must be a positive integer")
    xyz = entry.get("xyz")
    if not (isinstance(xyz, (list, tuple)) and len(xyz) == 3
            and all(_is_int(v) or isinstance(v, float) for v in xyz)):
        raise ConfigError(f"{path}.xyz", "xyz must be a list of 3 numbers (Bohr)")
    return charge, [float(v) for v in xyz]


def parse_config(config_text: str) -> LoadedConfig:
    """Parse and validate the YAML run config; unknown keys are rejected."""
    try:
        doc = yaml.safe_load(config_text)
    except yaml.YAMLError as e:
        raise ConfigError("<document>", f"not valid YAML: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError("<document>", "top level must be a mapping")
    _reject_unknown(doc, _TOP_KEYS, "<document>")
    if "system" not in doc or not isinstance(doc["system"], dict):
        raise ConfigError("system", "required section missing or not a mapping")
    _reject_unknown(doc["system"], _SYSTEM_KEYS, "system")

    nuclei_entries = doc["system"].get("nuclei")
    if not isinstance(nuclei_entries, list) or not nuclei_entries:
        raise ConfigError("system.nuclei", "must be a non-empty list")
    charges, positions = [], []
    for idx, entry in enumerate(nuclei_entries):
        charge, xyz = _parse_nucleus(entry, idx)
        charges.append(charge)
        positions.append(xyz)

    total = sum(charges)
    electrons = doc.get("electrons") or {}
    if not isinstance(electrons, dict):
        raise ConfigError("electrons", "must be a mapping")
    _reject_unknown(electrons, _ELECTRON_KEYS, "electrons")
    for key in ("n_up", "n_down"):
        if key in electrons and (not _is_int(electrons[key]) or electrons[key] < 0):
            raise ConfigError(f"electrons.{key}", "must be a non-negative integer")
    if "n_up" in electrons or "n_down" in electrons:
        if not ("n_up" in electrons and "n_down" in electrons):
            raise ConfigError("electrons", "give both n_up and n_down or neither")
        n_up, n_down = electrons["n_up"], electrons["n_down"]
    else:
        # Neutral aufbau split: N = sum(Z), spin-up gets the extra electron.
        n_up, n_down = (total + 1) // 2, total // 2
    if n_up + n_down < 1:
        raise ConfigError("electrons", "need at least one electron")

    run = doc.get("run") or {}
    if not isinstance(run, dict):
        raise ConfigError("run", "must be a mapping")
    _reject_unknown(run, _RUN_KEYS, "run")
    seed = run.get("seed", 0)
    if not _is_int(seed) or seed < 0:
        raise ConfigError("run.seed", "must be a non-negative integer")
    potential = run.get("potential", "coulomb")
    if potential not in _POTENTIALS:
        raise ConfigError("run.potential", f"must be one of {sorted(_POTENTIALS)}")

    try:
        system = SystemSpec(nuclei_positions=np.array(positions), charges=np.array(charges),
                            n_up=n_up, n_down=n_down)
    except ValueError as e:
        raise ConfigError("system", str(e)) from e
    return LoadedConfig(system=system, run=RunSettings(seed=seed, potential=potential))


def load_system(config_text: str) -> SystemSpec:
    """Parse config text and return the validated SystemSpec."""
    return parse_config(config_text).system
