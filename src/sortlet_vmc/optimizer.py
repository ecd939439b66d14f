"""Energy statistics, the score-function energy gradient, Adam, training.

The gradient estimator is the covariance form

    g = 2 * sum_i w_i (E_i - Ebar) * d log|Psi(r_i)| / d theta

with w uniform over Monte Carlo walkers (or explicit quadrature weights in
tests). The derivative of the sign factor is dropped: it is piecewise
constant, so it contributes nothing almost everywhere. Local energies are
clipped to a median +/- k*MAD window before centering, which bounds the
variance injected by walkers that wander near a node.

One reverse sweep with the weighted seed produces the whole sum, so the
cost per step is one batched forward plus one backward, regardless of the
number of walkers.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ad
from .ansatz import SortletWavefunction
from .geometry import SystemSpec
from .hamiltonian import local_energy
from .sampler import WalkerEnsemble, init_ensemble, run_sweeps, stream_key


@dataclass
class EnergyStats:
    mean: float
    stderr: float
    variance: float
    n_valid: int
    n_total: int


def estimate_energy(eloc: np.ndarray) -> EnergyStats:
    """Mean/spread over the finite entries of a local-energy batch.

    The stderr here treats walkers as independent, which holds across
    chains but understates error within one chain; the evaluation loop
    aggregates per-chain means instead when it reports final numbers.
    """
    eloc = np.asarray(eloc, dtype=np.float64)
    valid = np.isfinite(eloc)
    n = int(valid.sum())
    if n == 0:
        return EnergyStats(np.nan, np.nan, np.nan, 0, eloc.size)
    e = eloc[valid]
    mean = float(np.mean(e))
    var = float(np.var(e, ddof=1)) if n > 1 else 0.0
    return EnergyStats(mean, float(np.sqrt(var / n)), var, n, eloc.size)


def mad_clip(eloc: np.ndarray, width: float = 5.0) -> np.ndarray:
    """Clip to median +/- width * median-absolute-deviation (finite entries)."""
    valid = np.isfinite(eloc)
    if not np.any(valid):
        return eloc
    center = np.median(eloc[valid])
    mad = np.median(np.abs(eloc[valid] - center))
    if mad == 0.0:
        return eloc
    return np.clip(eloc, center - width * mad, center + width * mad)


def energy_gradient(wf, theta: np.ndarray, positions: np.ndarray, eloc: np.ndarray,
                    weights: np.ndarray | None = None, clip: float | None = 5.0):
    """Covariance-form gradient of the energy w.r.t. the parameter vector.

    weights: optional probability weights over the batch (defaults to
    uniform over valid walkers); they must sum to 1 over finite entries.
    Returns (grad, weighted mean energy used as the baseline).
    """
    eloc = np.asarray(eloc, dtype=np.float64)
    if eloc.size == 0:
        raise ValueError("empty batch")
    valid = np.isfinite(eloc)
    if weights is None:
        if not valid.any():
            raise ValueError("no finite local energies in batch")
        w = valid / valid.sum()
    else:
        w = np.where(valid, np.asarray(weights, dtype=np.float64), 0.0)
        total = w.sum()
        if total <= 0:
            raise ValueError("no weight on finite local energies")
        w = w / total
    e = mad_clip(eloc, clip) if clip is not None else eloc
    e = np.where(valid, e, 0.0)
    ebar = float(np.sum(w * e))
    seeds = 2.0 * w * (e - ebar)
    tape = ad.GradientTape()
    th = tape.leaf(theta)
    sl = wf.signed_log(th, positions)
    grad = tape.gradient(sl.logmag, th, seed=seeds)
    return grad, ebar


class Adam:
    """Flat-vector Adam with optional inverse-time learning-rate decay."""

    def __init__(self, size: int, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, decay: float | None = 1000.0):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.decay = decay
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        lr = self.lr if not self.decay else self.lr / (1.0 + self.t / self.decay)
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        mhat = self.m / (1.0 - self.beta1 ** self.t)
        vhat = self.v / (1.0 - self.beta2 ** self.t)
        return theta - lr * mhat / (np.sqrt(vhat) + self.eps)

    def state(self) -> dict:
        return {"m": self.m, "v": self.v, "t": self.t}

    def load_state(self, state: dict):
        self.m = np.asarray(state["m"], dtype=np.float64)
        self.v = np.asarray(state["v"], dtype=np.float64)
        self.t = int(state["t"])


def format_energy(mean: float, stderr: float, k: float = 3.0) -> str:
    """Value with a k-sigma parenthesis uncertainty, e.g. -7.477(8)."""
    if not np.isfinite(mean):
        return "nan"
    u = k * stderr
    if not np.isfinite(u) or u <= 0:
        return f"{mean:.6f}"
    exponent = int(np.floor(np.log10(u)))
    digit = int(round(u / 10.0 ** exponent))
    if digit == 10:
        digit = 1
        exponent += 1
    decimals = max(0, -exponent)
    return f"{mean:.{decimals}f}({digit})"


@dataclass
class TrainSettings:
    iters: int = 1000
    walkers: int = 512
    burn_in: int = 500
    steps_per_iter: int = 10
    lr: float = 1e-3
    lr_decay: float = 1000.0
    clip: float = 5.0
    checkpoint_every: int = 200
    seed: int = 0
    sigma: float = 1.0
    potential: str = "coulomb"


def config_fingerprint(system: SystemSpec, wf: SortletWavefunction,
                       settings: TrainSettings | None = None) -> str:
    """Short hash of what a checkpoint must agree on.

    With settings it pins the exact run (bitwise-resume contract); without,
    only the model identity, which is what evaluation needs to accept a
    checkpoint trained under any sampler schedule.
    """
    doc = {
        "system": {"nuclei": system.nuclei_positions.tolist(),
                   "charges": system.charges.tolist(),
                   "n_up": system.n_up, "n_down": system.n_down},
        "ansatz": {"n_sortlets": wf.n_sortlets, "hidden": wf.hidden,
                   "layers": wf.layers},
        "layout": wf.store.layout(),
    }
    if settings is not None:
        doc["run"] = {"walkers": settings.walkers, "seed": settings.seed,
                      "potential": settings.potential}
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


class Checkpoint:
    """One .npz holding everything needed to continue a run bit-for-bit."""

    FORMAT = 2

    @staticmethod
    def save(path: Path, *, wf: SortletWavefunction, theta: np.ndarray, adam: Adam,
             ensemble: WalkerEnsemble, next_iter: int, fingerprint: str,
             model_fingerprint: str):
        """Write the checkpoint beside `path` and rename it into place, so a
        run killed mid-write leaves any checkpoint already at `path` intact."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        adam_state = adam.state()
        tmp = path.with_name(path.name + ".tmp")
        try:
            with open(tmp, "wb") as f:
                np.savez(
                    f,
                    format=np.int64(Checkpoint.FORMAT),
                    layout_json=np.str_(json.dumps(wf.store.layout())),
                    fingerprint=np.str_(fingerprint),
                    model_fingerprint=np.str_(model_fingerprint),
                    next_iter=np.int64(next_iter),
                    theta=theta,
                    adam_m=adam_state["m"], adam_v=adam_state["v"],
                    adam_t=np.int64(adam_state["t"]),
                    positions=ensemble.positions,
                    logmag=ensemble.logmag,
                    sign=ensemble.sign,
                    sigma=np.float64(ensemble.sigma),
                    step=np.int64(ensemble.step),
                )
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @staticmethod
    def load(path: Path, *, wf: SortletWavefunction, fingerprint: str | None = None,
             model_fingerprint: str | None = None) -> dict:
        """The run state saved at `path`. FileNotFoundError if it is missing;
        ValueError if it is not a checkpoint or does not fit this run."""
        if fingerprint is None and model_fingerprint is None:
            raise ValueError("a fingerprint to check against is required")
        try:
            # our handle: np.load leaves its own open when the zip is broken
            with open(path, "rb") as fh:
                archive = np.load(fh, allow_pickle=False)
                if not isinstance(archive, np.lib.npyio.NpzFile):
                    raise ValueError("a bare array, not an archive")
                with archive:
                    z = {name: archive[name] for name in archive.files}
        except (zipfile.BadZipFile, EOFError, ValueError) as err:
            raise ValueError(f"not a readable checkpoint: {path} ({err})") from None
        try:
            if int(z["format"]) != Checkpoint.FORMAT:
                raise ValueError(f"unsupported checkpoint format {int(z['format'])}")
            if fingerprint is not None and str(z["fingerprint"]) != fingerprint:
                raise ValueError("checkpoint belongs to a different configuration "
                                 f"({z['fingerprint']} != {fingerprint})")
            if (model_fingerprint is not None
                    and str(z["model_fingerprint"]) != model_fingerprint):
                raise ValueError("checkpoint belongs to a different model "
                                 f"({z['model_fingerprint']} != {model_fingerprint})")
            layout = json.loads(str(z["layout_json"]))
            if not wf.store.matches(layout):
                raise ValueError("checkpoint parameter layout does not match this build")
            return {
                "next_iter": int(z["next_iter"]),
                "theta": z["theta"].copy(),
                "adam": {"m": z["adam_m"].copy(), "v": z["adam_v"].copy(),
                         "t": int(z["adam_t"])},
                "positions": z["positions"].copy(),
                "logmag": z["logmag"].copy(),
                "sign": z["sign"].copy(),
                "sigma": float(z["sigma"]),
                "step": int(z["step"]),
            }
        except KeyError as err:
            raise ValueError(f"not a readable checkpoint: {path} (no field {err})") from None


def _truncate_metrics(path: Path, next_iter: int):
    """Keep the records of iterations before `next_iter`, which a resumed run
    does not write again, and drop a record a killed run left without its
    newline; the file is rewritten beside itself and renamed into place."""
    lines = path.read_text().splitlines(keepends=True)
    kept = [line for line in lines if line.endswith("\n") and json.loads(line)["iter"] < next_iter]
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text("".join(kept))
    os.replace(tmp, path)


@dataclass
class TrainResult:
    theta: np.ndarray
    energies: list
    stats: EnergyStats
    sigma: float


def train(wf: SortletWavefunction, settings: TrainSettings, out_dir: Path | None = None,
          resume_from: Path | None = None, log=None) -> TrainResult:
    """Optimize the parameters by stochastic energy-gradient descent.

    Writes metrics.ndjson and periodic checkpoints under out_dir when given.
    Resuming from a checkpoint continues the exact run: same walkers, same
    random draws, same optimizer state, and no repeated metric records.
    """
    system = wf.system
    fingerprint = config_fingerprint(system, wf, settings)
    model_fp = config_fingerprint(system, wf)
    holder = {"theta": wf.theta0.copy()}
    fn = lambda p: wf.signed_log(holder["theta"], p)

    adam = Adam(wf.store.size, lr=settings.lr, decay=settings.lr_decay)
    if resume_from is not None:
        state = Checkpoint.load(Path(resume_from), wf=wf, fingerprint=fingerprint)
        holder["theta"] = state["theta"]
        adam.load_state(state["adam"])
        ensemble = WalkerEnsemble(positions=state["positions"], logmag=state["logmag"],
                                  sign=state["sign"], key=stream_key(settings.seed),
                                  chains=np.arange(settings.walkers), sigma=state["sigma"],
                                  step=state["step"])
        start = state["next_iter"]
    else:
        ensemble = init_ensemble(system, fn, settings.walkers, settings.seed,
                                 sigma=settings.sigma)
        run_sweeps(ensemble, fn, settings.burn_in, adapt=True)
        start = 0

    metrics_path = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        metrics_path = out_dir / "metrics.ndjson"
        if resume_from is not None and metrics_path.exists():
            _truncate_metrics(metrics_path, start)

    energies = []
    stats = EnergyStats(np.nan, np.nan, np.nan, 0, 0)
    for it in range(start, settings.iters):
        t0 = time.perf_counter()
        rate = run_sweeps(ensemble, fn, settings.steps_per_iter, adapt=False)
        breakdown = local_energy(fn, system, ensemble.positions,
                                 potential=settings.potential)
        eloc = breakdown.total
        stats = estimate_energy(eloc)
        if not np.isfinite(stats.mean) or stats.n_valid < max(1, eloc.size // 2):
            raise RuntimeError(
                f"training diverged at iteration {it}: "
                f"{stats.n_valid}/{stats.n_total} finite local energies")
        grad, _ = energy_gradient(wf, holder["theta"], ensemble.positions, eloc,
                                  clip=settings.clip)
        holder["theta"] = adam.step(holder["theta"], grad)
        energies.append(stats.mean)

        if metrics_path is not None:
            line = {"iter": it, "energy": stats.mean, "stderr": stats.stderr,
                    "variance": stats.variance, "acceptance": rate,
                    "sigma": ensemble.sigma, "grad_norm": float(np.linalg.norm(grad)),
                    "n_valid": stats.n_valid,
                    "seconds": round(time.perf_counter() - t0, 4)}
            with metrics_path.open("a") as fh:
                fh.write(json.dumps(line) + "\n")
        if log is not None and (it % 50 == 0 or it == settings.iters - 1):
            log(f"iter {it:6d}  E = {format_energy(stats.mean, stats.stderr)}  "
                f"acc = {rate:.2f}  sigma = {ensemble.sigma:.3f}")
        is_last = it == settings.iters - 1
        if out_dir is not None and (is_last or (settings.checkpoint_every
                                                and (it + 1) % settings.checkpoint_every == 0)):
            Checkpoint.save(out_dir / "checkpoints" / f"step-{it + 1:08d}.npz",
                            wf=wf, theta=holder["theta"], adam=adam, ensemble=ensemble,
                            next_iter=it + 1, fingerprint=fingerprint,
                            model_fingerprint=model_fp)
    return TrainResult(theta=holder["theta"], energies=energies, stats=stats,
                       sigma=ensemble.sigma)


@dataclass
class EnergyReport:
    mean: float
    stderr: float
    n_chains: int
    n_estimates: int

    def formatted(self) -> str:
        return format_energy(self.mean, self.stderr)


def evaluate_energy(wf, theta: np.ndarray, *, n_walkers: int = 256, burn_in: int = 500,
                    n_estimates: int = 200, steps_between: int = 10, seed: int = 1,
                    potential: str = "coulomb", sigma: float = 1.0) -> EnergyReport:
    """Fixed-parameter energy with an uncertainty from per-chain means.

    Chains are independent, so the spread of their time-averaged energies
    gives an honest standard error even with within-chain autocorrelation.
    """
    system = wf.system
    fn = lambda p: wf.signed_log(theta, p)
    ensemble = init_ensemble(system, fn, n_walkers, seed, sigma=sigma)
    run_sweeps(ensemble, fn, burn_in, adapt=True)
    per_chain = np.zeros(n_walkers)
    per_chain_n = np.zeros(n_walkers)
    for _ in range(n_estimates):
        run_sweeps(ensemble, fn, steps_between, adapt=False)
        eloc = local_energy(fn, system, ensemble.positions, potential=potential).total
        good = np.isfinite(eloc)
        per_chain[good] += eloc[good]
        per_chain_n[good] += 1
    kept = per_chain_n > 0
    means = per_chain[kept] / per_chain_n[kept]
    mean = float(np.mean(means))
    stderr = float(np.std(means, ddof=1) / np.sqrt(len(means))) if len(means) > 1 else np.nan
    return EnergyReport(mean=mean, stderr=stderr, n_chains=int(kept.sum()),
                        n_estimates=n_estimates)
