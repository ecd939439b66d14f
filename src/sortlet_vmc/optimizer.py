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
number of walkers. train and evaluate_energy advance their walkers through
one seam, `walker_phase`; train adds the gradient, Adam and the re-score.
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
from .sampler import WalkerEnsemble, init_ensemble, run_sweeps, score, stream_key


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
    e = eloc[np.isfinite(eloc)]
    mean = float(np.mean(e)) if e.size else np.nan
    var = float(np.var(e, ddof=1)) if e.size > 1 else np.nan  # unknown below two samples
    return EnergyStats(mean, float(np.sqrt(var / max(e.size, 1))), var, e.size, eloc.size)


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

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, size: int, lr: float = 1e-3, decay: float | None = 1000.0):
        self.lr = lr
        self.decay = decay
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        lr = self.lr if not self.decay else self.lr / (1.0 + self.t / self.decay)
        self.m = self.BETA1 * self.m + (1.0 - self.BETA1) * grad
        self.v = self.BETA2 * self.v + (1.0 - self.BETA2) * grad * grad
        mhat = self.m / (1.0 - self.BETA1 ** self.t)
        vhat = self.v / (1.0 - self.BETA2 ** self.t)
        return theta - lr * mhat / (np.sqrt(vhat) + self.EPS)

    def state(self) -> dict:
        return {"m": self.m, "v": self.v, "t": self.t}

    def load_state(self, state: dict):
        self.m = np.asarray(state["m"], dtype=np.float64)
        self.v = np.asarray(state["v"], dtype=np.float64)
        self.t = int(state["t"])


def format_energy(mean: float, stderr: float) -> str:
    """Value with a three-sigma parenthesis uncertainty, e.g. -7.477(8); (?) if unknown."""
    if not np.isfinite(mean):
        return "nan"
    u = 3.0 * stderr
    if not 0 < u < np.inf:
        return f"{mean:.6f}" + ("" if u == 0 else "(?)")
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
    checkpoint_every: int = 200
    seed: int = 0


def config_fingerprint(system: SystemSpec, wf: SortletWavefunction,
                       settings: TrainSettings | None = None) -> str:
    """Short hash of what a checkpoint must agree on.

    With settings it pins the exact run (bitwise-resume contract): theta0 and
    every setting a resume may not change; without, only the model identity,
    which evaluation needs to accept a checkpoint of any sampler schedule.
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
        run = {k: v for k, v in vars(settings).items() if k not in ("iters", "checkpoint_every")}
        doc["run"] = dict(run, theta0=hashlib.sha256(wf.theta0.tobytes()).hexdigest())
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _write_beside(path: Path, write):
    """write(tmp) beside `path`, then rename it into place; a failed write leaves no tmp."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class Checkpoint:
    """One .npz holding everything needed to continue a run bit-for-bit, and
    the one place that decides which fingerprint a checkpoint must match.
    Archives that also hold a `layout_json` field (older ones) still load."""

    FORMAT = 2

    @staticmethod
    def save(path: Path, *, wf: SortletWavefunction, theta: np.ndarray, adam: Adam,
             ensemble: WalkerEnsemble, next_iter: int, fingerprint: str):
        """Write the checkpoint beside `path` and rename it into place, so a
        run killed mid-write leaves any checkpoint already at `path` intact."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        adam_state = adam.state()

        def write(tmp: Path):
            with open(tmp, "wb") as f:
                np.savez(
                    f,
                    format=np.int64(Checkpoint.FORMAT),
                    fingerprint=np.str_(fingerprint),
                    model_fingerprint=np.str_(config_fingerprint(wf.system, wf)),
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
        _write_beside(path, write)

    @staticmethod
    def load(path: Path, *, wf: SortletWavefunction, fingerprint: str | None = None) -> dict:
        """The run state saved at `path`. ValueError if it is missing, is not a
        checkpoint, or does not fit: with `fingerprint` (a resume) the stored
        run fingerprint must equal it, without (an evaluation) the stored
        model fingerprint must equal that of `wf`."""
        try:
            # our handle: np.load leaves its own open when the zip is broken
            with open(path, "rb") as fh:
                archive = np.load(fh, allow_pickle=False)
                if not isinstance(archive, np.lib.npyio.NpzFile):
                    raise ValueError("a bare array, not an archive")
                with archive:
                    z = {name: archive[name] for name in archive.files}
        except (OSError, zipfile.BadZipFile, EOFError, ValueError) as err:
            raise ValueError(f"not a readable checkpoint: {path} ({err})") from None
        try:
            if int(z["format"]) != Checkpoint.FORMAT:
                raise ValueError(f"unsupported checkpoint format {int(z['format'])}")
            field, want, what = (("fingerprint", fingerprint, "configuration")
                                 if fingerprint is not None else
                                 ("model_fingerprint", config_fingerprint(wf.system, wf), "model"))
            if str(z[field]) != want:
                raise ValueError(f"checkpoint belongs to a different {what} "
                                 f"({z[field]} != {want})")
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
        except (KeyError, TypeError) as err:  # a field missing, or not a scalar where one is
            raise ValueError(f"not a readable checkpoint: {path} ({err!r})") from None


def record_json(record: dict) -> str:
    """`record` as strict JSON: numpy values as Python ones, NaN and infinities as null."""
    def plain(value):
        if isinstance(value, (np.generic, np.ndarray)):
            value = value.tolist()
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [plain(v) for v in value]
        return None if isinstance(value, float) and not np.isfinite(value) else value

    return json.dumps(plain(record), allow_nan=False)


def append_record(path: Path, record: dict):
    """Append `record` to `path` as one line of `record_json`. The line is
    serialized before the file is opened, so a record that cannot be raises
    and leaves no trace."""
    line = record_json(record) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as fh:
        fh.write(line)


def walker_phase(signed_log_fn, system, ensemble: WalkerEnsemble, steps: int):
    """`steps` fixed-sigma sweeps at one bound theta, then the local energies
    where the walkers stand: (mean acceptance, E_loc (M,))."""
    rate = run_sweeps(ensemble, signed_log_fn, steps, adapt=False)
    return rate, local_energy(signed_log_fn, system, ensemble.positions).total


@dataclass
class TrainResult:
    theta: np.ndarray
    energies: list
    stats: EnergyStats


def train(wf: SortletWavefunction, settings: TrainSettings, out_dir: Path,
          resume_from: Path | None = None, log=None) -> TrainResult:
    """Optimize the parameters by stochastic energy-gradient descent.

    Writes metrics.ndjson and periodic checkpoints under out_dir. Resuming
    from a checkpoint continues the exact run: same walkers, same random
    draws, same optimizer state; a fresh run starts metrics.ndjson over, so
    out_dir holds one record per iteration either way. A checkpoint with no
    iteration left to run raises ValueError before out_dir is touched.
    """
    system = wf.system
    fingerprint = config_fingerprint(system, wf, settings)
    adam = Adam(wf.store.size, lr=settings.lr, decay=settings.lr_decay)
    state = (None if resume_from is None
             else Checkpoint.load(Path(resume_from), wf=wf, fingerprint=fingerprint))
    theta = wf.theta0.copy() if state is None else state["theta"]
    bound = wf.bind(theta)
    fn = lambda p: wf.signed_log(bound, p)
    if state is not None:
        adam.load_state(state["adam"])
        ensemble = WalkerEnsemble(positions=state["positions"], logmag=state["logmag"],
                                  sign=state["sign"], key=stream_key(settings.seed),
                                  chains=np.arange(settings.walkers), sigma=state["sigma"],
                                  step=state["step"])
        start = state["next_iter"]
        if start >= settings.iters:
            raise ValueError(f"{resume_from} has run {start} iterations, the run asks for "
                             f"{settings.iters}: nothing left to run")
    else:
        ensemble = init_ensemble(system, fn, settings.walkers, settings.seed)
        run_sweeps(ensemble, fn, settings.burn_in, adapt=True)
        start = 0

    out_dir = Path(out_dir)
    metrics = out_dir / "metrics.ndjson"
    if metrics.exists():  # keep the whole records of iterations before start; the
        # file is rewritten beside itself and renamed, so a kill leaves it whole
        kept = [line for line in metrics.read_text().splitlines(keepends=True)
                if line.endswith("\n") and json.loads(line)["iter"] < start]
        _write_beside(metrics, lambda tmp: tmp.write_text("".join(kept)))

    energies = []
    stats = EnergyStats(np.nan, np.nan, np.nan, 0, 0)
    # an update that overflows is caught by the next iteration's divergence check
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(start, settings.iters):
            t0 = time.perf_counter()
            rate, eloc = walker_phase(fn, system, ensemble, settings.steps_per_iter)
            stats = estimate_energy(eloc)
            if not np.isfinite(stats.mean) or stats.n_valid < max(1, eloc.size // 2):
                raise RuntimeError(
                    f"training diverged at iteration {it}: "
                    f"{stats.n_valid}/{stats.n_total} finite local energies")
            grad, _ = energy_gradient(wf, theta, ensemble.positions, eloc)
            theta = adam.step(theta, grad)
            bound = wf.bind(theta)
            # the chain samples |psi_theta|^2 only if its cached values are psi_theta's
            ensemble.logmag, ensemble.sign = score(fn, ensemble.positions)
            energies.append(stats.mean)

            append_record(metrics, {
                "iter": it, "energy": stats.mean, "stderr": stats.stderr,
                "variance": stats.variance, "acceptance": rate, "sigma": ensemble.sigma,
                "grad_norm": float(np.linalg.norm(grad)), "n_valid": stats.n_valid,
                "seconds": round(time.perf_counter() - t0, 4)})
            if log is not None and (it % 50 == 0 or it == settings.iters - 1):
                log(f"iter {it:6d}  E = {format_energy(stats.mean, stats.stderr)}  "
                    f"acc = {rate:.2f}  sigma = {ensemble.sigma:.3f}")
            if it == settings.iters - 1 or (settings.checkpoint_every
                                            and (it + 1) % settings.checkpoint_every == 0):
                Checkpoint.save(out_dir / "checkpoints" / f"step-{it + 1:08d}.npz",
                                wf=wf, theta=theta, adam=adam, ensemble=ensemble,
                                next_iter=it + 1, fingerprint=fingerprint)
    return TrainResult(theta=theta, energies=energies, stats=stats)


@dataclass
class EnergyReport:
    mean: float
    stderr: float
    n_chains: int
    n_estimates: int

    def formatted(self) -> str:
        return format_energy(self.mean, self.stderr)


def evaluate_energy(wf, theta: np.ndarray, *, n_walkers: int = 256, burn_in: int = 500,
                    n_estimates: int = 200, steps_between: int = 10,
                    seed: int = 1) -> EnergyReport:
    """Fixed-parameter energy with an uncertainty from per-chain means.

    Chains are independent, so the spread of their time-averaged energies
    gives an honest standard error even with within-chain autocorrelation.
    """
    system = wf.system
    fn = lambda p: wf.signed_log(bound, p)
    # a θ with no finite ψ, as a NaN one, ends in init_ensemble's RuntimeError
    with np.errstate(over="ignore", invalid="ignore"):
        bound = wf.bind(theta)
        ensemble = init_ensemble(system, fn, n_walkers, seed)
    run_sweeps(ensemble, fn, burn_in, adapt=True)
    per_chain = np.zeros(n_walkers)
    per_chain_n = np.zeros(n_walkers)
    for _ in range(n_estimates):
        _, eloc = walker_phase(fn, system, ensemble, steps_between)
        good = np.isfinite(eloc)
        per_chain[good] += eloc[good]
        per_chain_n[good] += 1
    kept = per_chain_n > 0
    means = per_chain[kept] / per_chain_n[kept]
    mean = float(np.mean(means))
    stderr = float(np.std(means, ddof=1) / np.sqrt(len(means))) if len(means) > 1 else np.nan
    return EnergyReport(mean=mean, stderr=stderr, n_chains=int(kept.sum()),
                        n_estimates=n_estimates)
