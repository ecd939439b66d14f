"""Print one SHA-256 per system over the bits the model computes, one per
trained system over the state of a short training run, and one per
evaluated system over a short evaluation's report.

    PYTHONPATH=src python tests/bitdigest.py [NAME ...]
    PYTHONPATH=src python tests/bitdigest.py --write

NAME is a system (li, lih, b, h4_theta90, h_atom, h8), train-li,
train-lih or evaluate-li; with none, all nine lines are printed. A change
that claims to keep every bit prints the same lines before and after.
`--write` records all nine in the ledger, tests/bits.json, under the
running host's key (numpy's version and the BLAS kernel, see `host`),
keeping other hosts' entries; tests/test_bits.py compares a fresh run with
that entry. A change that accepts new bits regenerates it with this one
command. Each model digest covers, at a fixed perturbed θ and fixed
walkers:

- the plain signed_log sign and logmag;
- the Dual logmag's value, tangent lanes and Laplacian (curv);
- the Var gradient of a fixed weighted sum of logmags;
- hamiltonian.local_energy's kinetic, ee and en terms and total.

The walkers come from a fixed seed. The plain pass also runs on a lone
walker, a Fortran-ordered copy and a strided view of a larger batch, so
layout and batch effects show. LiH gets one electron on the midplane of
its two nuclei, an exact tie of the envelope's nearest-nucleus choice.

A train digest runs optimizer.train on the config's system and seed (64
walkers, burn-in 20, 3 iterations) into a temporary directory. It covers
every array of the state Checkpoint.load returns for the final checkpoint,
by key, and the metric records without `seconds`; it reads the run state,
not the archive's bytes, so a field the archive adds or drops does not
move it.

An evaluate digest runs optimizer.evaluate_energy on the config's system
at the fixed perturbed θ (16 walkers, burn-in 10, 4 estimates 3 steps
apart, seed one past the config's, as the CLI's evaluate takes it) and
covers the reported mean, stderr and chain count.

pytest does not collect this file (no test_ prefix). The digests depend
on the numpy build and the BLAS kernel, so compare them on one host.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from sortlet_vmc import ad, hamiltonian, optimizer
from sortlet_vmc.ansatz import SortletWavefunction
from sortlet_vmc.geometry import load_system, parse_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SYSTEMS = ("li", "lih", "b", "h4_theta90", "h_atom", "h8")
TRAINED = ("li", "lih")
EVALUATED = ("li",)
NAMES = (*SYSTEMS, *(f"train-{s}" for s in TRAINED), *(f"evaluate-{s}" for s in EVALUATED))
WALKERS = 7
LEDGER = Path(__file__).resolve().parent / "bits.json"


def host() -> str | None:
    """The ledger key of this process: numpy's version and the kernel its
    bundled OpenBLAS picked at run time (the wheels build it DYNAMIC_ARCH,
    so one wheel runs different kernels on different CPUs). None where
    numpy links another BLAS, whose kernel this cannot read."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return f"numpy {np.__version__}, OpenBLAS {corename().decode()}"
    return None


def h_chain(n: int, spacing: float = 1.8) -> str:
    lines = ["system:", "  nuclei:"]
    for i in range(n):
        lines += ["    - element: H", f"      xyz: [{(i - (n - 1) / 2.0) * spacing!r}, 0.0, 0.0]"]
    return "\n".join(lines) + "\n"


def _walkers(system, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    pos = rng.normal(size=(2 * WALKERS, system.n_electrons, 3)) * 1.5
    if system.n_nuclei == 2:  # an electron on the midplane of the two nuclei
        a, b = system.nuclei_positions
        pos[0, 0] = 0.5 * (a + b) + np.array([0.0, 0.3, 0.0])
    return pos


def _feeder(h):
    def feed(*arrays):
        for a in arrays:
            a = np.asarray(a)
            h.update(repr((a.dtype.str, a.shape)).encode())
            h.update(np.ascontiguousarray(a).tobytes())
    return feed


def _perturbed(wf) -> np.ndarray:
    return wf.theta0 + 0.05 * np.random.default_rng(11).normal(size=wf.theta0.shape)


def digest(name: str) -> str:
    text = h_chain(8) if name == "h8" else (CONFIGS / f"{name}.yaml").read_text()
    system = load_system(text)
    wf = SortletWavefunction(system, seed=0)
    theta = _perturbed(wf)
    params = wf.bind(theta)
    big = _walkers(system, 17)
    pos = big[:WALKERS].copy()
    h = hashlib.sha256()
    feed = _feeder(h)
    for batch in (pos, pos[:1], np.asfortranarray(pos), big[::2]):
        sl = wf.signed_log(params, batch)
        feed(sl.sign, sl.logmag)
    dual = wf.signed_log(params, ad.seed_positions(pos)).logmag
    feed(dual.val, dual.tan, dual.curv)
    tape = ad.GradientTape()
    th = tape.leaf(theta)
    weights = np.linspace(-1.0, 1.0, WALKERS)
    feed(tape.gradient(wf.signed_log(th, pos).logmag, th, seed=weights))
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = hamiltonian.local_energy(lambda p: wf.signed_log(params, p), system, big)
    feed(terms.kinetic, terms.ee, terms.en, terms.total)
    return h.hexdigest()


def train_digest(name: str) -> str:
    cfg = parse_config((CONFIGS / f"{name}.yaml").read_text())
    wf = SortletWavefunction(cfg.system, seed=cfg.run.seed)
    settings = optimizer.TrainSettings(iters=3, walkers=64, burn_in=20, seed=cfg.run.seed)
    with tempfile.TemporaryDirectory() as out:
        out = Path(out)
        optimizer.train(wf, settings, out_dir=out)
        state = optimizer.Checkpoint.load(
            out / "checkpoints" / "step-00000003.npz", wf=wf,
            fingerprint=optimizer.config_fingerprint(cfg.system, wf, settings))
        metrics = (out / "metrics.ndjson").read_text().splitlines()
    h = hashlib.sha256()
    feed = _feeder(h)
    adam = state.pop("adam")
    arrays = dict(state, **{f"adam_{k}": v for k, v in adam.items()})
    for key in sorted(arrays):
        h.update(key.encode())
        feed(arrays[key])
    for line in metrics:
        record = json.loads(line)
        record.pop("seconds")
        h.update(json.dumps(record, sort_keys=True).encode())
    return h.hexdigest()


def evaluate_digest(name: str) -> str:
    cfg = parse_config((CONFIGS / f"{name}.yaml").read_text())
    wf = SortletWavefunction(cfg.system, seed=cfg.run.seed)
    report = optimizer.evaluate_energy(wf, _perturbed(wf), n_walkers=16, burn_in=10,
                                       n_estimates=4, steps_between=3, seed=cfg.run.seed + 1)
    h = hashlib.sha256()
    _feeder(h)(np.float64(report.mean), np.float64(report.stderr), np.int64(report.n_chains))
    return h.hexdigest()


def line_digest(name: str) -> str:
    kind, _, system = name.partition("-")
    if not system:
        return digest(name)
    return {"train": train_digest, "evaluate": evaluate_digest}[kind](system)


def main(argv) -> int:
    if argv == ["--write"]:
        key = host()
        if key is None:
            print("error: numpy links no bundled OpenBLAS; this host has no ledger key",
                  file=sys.stderr)
            return 2
        ledger = json.loads(LEDGER.read_text()) if LEDGER.exists() else {}
        ledger[key] = {name: line_digest(name) for name in NAMES}
        LEDGER.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")
        print(f"wrote {key} to {LEDGER}")
        return 0
    for name in argv or NAMES:
        print(f"{name:<11} {line_digest(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
