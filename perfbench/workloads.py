"""The three benchmark workloads, each a closed loop of identical episodes.

An episode is one complete, user-shaped job built from the workload seed:
parse a generated config, build the wavefunction, start and burn in the
walkers (the set-up), then run a pinned number of timed units. Every
episode of a run repeats exactly the same work, so a faster program runs
more episodes of the same shape instead of reaching walker states it would
not otherwise reach (the cost per unit drifts by ~10% while walkers
equilibrate, which is why the counts are pinned rather than open-ended).

Unit boundaries come from the phase-clock spans: in every workload the
first sampler.run_sweeps call of an episode is the burn-in and each later
call starts one timed unit; the last unit ends at `main_end`.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from sortlet_vmc import ansatz, geometry, hamiltonian, optimizer, sampler

# ansatz shape shared by all workloads (the ROADMAP headline shape)
SORTLETS, HIDDEN, LAYERS = 16, 32, 2
STEPS_PER_UNIT = 10

LI_YAML = """\
system:
  nuclei:
    - element: Li
      xyz: [0.0, 0.0, 0.0]
"""

LIH_YAML = """\
system:
  nuclei:
    - element: Li
      xyz: [0.0, 0.0, 0.0]
    - element: H
      xyz: [3.015, 0.0, 0.0]
"""

LI_REFERENCE_HA = -7.478


def h_chain_yaml(n: int, spacing: float = 1.8) -> str:
    """Linear H_n along x, centred on the origin, spacing in Bohr."""
    lines = ["system:", "  nuclei:"]
    for i in range(n):
        x = (i - (n - 1) / 2.0) * spacing
        lines += ["    - element: H", f"      xyz: [{x!r}, 0.0, 0.0]"]
    return "\n".join(lines) + "\n"


@dataclass
class Seeds:
    """Wavefunction and walker seeds derived from the workload seed; the
    program only ever sees these, never the workload seed itself."""

    wavefunction: int
    walkers: int

    @classmethod
    def derive(cls, seed: int) -> "Seeds":
        wf, walkers = np.random.SeedSequence(seed).generate_state(2, dtype=np.uint32)
        return cls(int(wf), int(walkers))


@dataclass
class Outcome:
    """What one episode leaves for the output checks."""

    main_end: float
    system: object
    wf: object
    theta: np.ndarray
    extra: dict = field(default_factory=dict)


def build_wavefunction(system, seeds: Seeds):
    return ansatz.SortletWavefunction(system, n_sortlets=SORTLETS, hidden=HIDDEN,
                                      layers=LAYERS, seed=seeds.wavefunction)


class TrainLi:
    """optimizer.train on Li (2 up, 1 down): the only workload that runs the
    reverse tape, Adam and checkpoint I/O."""

    name = "train-li"
    min_episodes = 3
    walkers = 512
    burn_in = 40
    iters = 7

    def episode(self, seeds: Seeds, workdir: Path) -> Outcome:
        system = geometry.load_system(LI_YAML)
        wf = build_wavefunction(system, seeds)
        settings = optimizer.TrainSettings(iters=self.iters, walkers=self.walkers,
                                           burn_in=self.burn_in,
                                           steps_per_iter=STEPS_PER_UNIT, seed=seeds.walkers)
        out_dir = Path(tempfile.mkdtemp(prefix="train-", dir=workdir))
        result = optimizer.train(wf, settings, out_dir=out_dir)
        main_end = perf_counter()
        # reloading the final checkpoint is the last step of the job (and an
        # output check); it is outside the timed units
        ckpt = out_dir / "checkpoints" / f"step-{settings.iters:08d}.npz"
        state = optimizer.Checkpoint.load(
            ckpt, wf=wf, fingerprint=optimizer.config_fingerprint(system, wf, settings))
        shutil.rmtree(out_dir)
        return Outcome(main_end, system, wf, result.theta,
                       {"settings": settings, "result": result, "reloaded": state})

    def checks(self, out: Outcome, ensemble) -> dict:
        settings, result, state = (out.extra[k] for k in ("settings", "result", "reloaded"))
        stats = result.stats
        return {
            "li_energy_not_below_reference":
                bool(np.isfinite(stats.mean)
                     and stats.mean >= LI_REFERENCE_HA - 5.0 * stats.stderr),
            "checkpoint_reloads":
                bool(state["next_iter"] == settings.iters
                     and np.array_equal(state["theta"], result.theta)),
        }


class SampleLiH:
    """init_ensemble plus adaptive run_sweeps on LiH at fixed parameters:
    the burn-in every train and evaluate pays, on the plain engine only.
    Local-energy passes over the equilibrated walkers, one per chunk of 128,
    follow the timed sweeps; they are the output check and the eloc_per_s
    samples, and they are not part of any timed unit."""

    name = "sample-lih"
    min_episodes = 3
    walkers = 512
    burn_in = 40
    blocks = 12
    energy_batch = 128

    def episode(self, seeds: Seeds, workdir: Path) -> Outcome:
        system = geometry.load_system(LIH_YAML)
        wf = build_wavefunction(system, seeds)
        theta = wf.theta0
        fn = lambda p: wf.signed_log(theta, p)  # noqa: E731
        ensemble = sampler.init_ensemble(system, fn, self.walkers, seeds.walkers)
        sampler.run_sweeps(ensemble, fn, self.burn_in, adapt=True)
        for _ in range(self.blocks):
            sampler.run_sweeps(ensemble, fn, STEPS_PER_UNIT, adapt=True)
        main_end = perf_counter()
        for start in range(0, self.walkers, self.energy_batch):
            hamiltonian.local_energy(fn, system,
                                     ensemble.positions[start:start + self.energy_batch])
        return Outcome(main_end, system, wf, theta)

    def checks(self, out: Outcome, ensemble) -> dict:
        return {}


class EvaluateH8:
    """optimizer.evaluate_energy on a linear H8 chain (spacing 1.8 Bohr):
    the dual pass over 3N=24 lanes dominates and its arrays are far larger
    than L2. No gradient, nothing written to disk."""

    name = "evaluate-h8"
    # 9 units (3 episodes) left the run medians spreading by 5-16%: each
    # unit is long, so few of them fit in a run to average the host's swings
    min_episodes = 5
    walkers = 256
    burn_in = 20
    estimates = 3
    relabel_walkers = 4

    def episode(self, seeds: Seeds, workdir: Path) -> Outcome:
        system = geometry.load_system(h_chain_yaml(8))
        wf = build_wavefunction(system, seeds)
        report = optimizer.evaluate_energy(wf, wf.theta0, n_walkers=self.walkers,
                                           burn_in=self.burn_in, n_estimates=self.estimates,
                                           steps_between=STEPS_PER_UNIT, seed=seeds.walkers)
        main_end = perf_counter()
        return Outcome(main_end, system, wf, wf.theta0, {"report": report})

    def checks(self, out: Outcome, ensemble) -> dict:
        system, wf, theta = out.system, out.wf, out.theta
        fn = lambda p: wf.signed_log(theta, p)  # noqa: E731
        pos = ensemble.positions[:self.relabel_walkers]
        # reverse the order inside each spin sector: a pure relabeling. The
        # copy is C-contiguous like every batch the sampler hands over; a
        # strided view of the same values changes the last bits of E_loc
        perm = np.r_[np.arange(system.n_up)[::-1],
                     system.n_up + np.arange(system.n_down)[::-1]]
        before = hamiltonian.local_energy(fn, system, pos).total
        after = hamiltonian.local_energy(fn, system, np.ascontiguousarray(pos[:, perm])).total
        return {
            "energy_finite": bool(np.isfinite(out.extra["report"].mean)),
            "local_energy_relabel_bitwise":
                bool(np.all(np.isfinite(before)) and np.array_equal(before, after)),
        }


WORKLOADS = {w.name: w for w in (TrainLi(), SampleLiH(), EvaluateH8())}


def antisymmetry_check(out: Outcome, ensemble, n: int = 8) -> bool:
    """Swapping electrons 0 and 1 (both spin up in every workload) on final
    walkers keeps logmag bitwise and flips a nonzero sign."""
    pos = ensemble.positions[:n]
    swapped = pos.copy()
    swapped[:, [0, 1]] = pos[:, [1, 0]]
    a = out.wf.signed_log(out.theta, pos)
    b = out.wf.signed_log(out.theta, swapped)
    return bool(np.all(a.sign != 0) and np.array_equal(b.sign, -a.sign)
                and np.array_equal(a.logmag, b.logmag))
