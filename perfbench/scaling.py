"""Per-layer cost against electron count on hydrogen chains (report only).

    python3 perfbench/scaling.py

For linear H_n chains (n = 2, 4, 8, 16; spacing 1.8 Bohr) at a fixed number
of walkers, times one sampler.mh_step and one hamiltonian.local_energy pass
with every layer traced, and fits a log-log slope of each layer's self time
against n. It shows whether the O(N log N) sortlet or the O(N^2)-per-lane
attention over 3N dual lanes sets the cost. It gates nothing and is not part
of the benchmark's command.
"""

from __future__ import annotations

import json
import math
import sys

from run import SRC, environment  # importing run pins the BLAS threads first

SIZES = (2, 4, 8, 16)
WALKERS = 16
WARM_SWEEPS = 5
REPEATS = 3  # each cell is the minimum over this many identical calls
SEED = 0  # workload seed of the wavefunction and walkers


def slope(xs, ys):
    """Least-squares slope of log y against log x."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def measure(n: int, seeds) -> dict:
    """{phase: {(span, engine): self_s}} for one H_n chain."""
    from spans import Tracer, install_layers, install_phase_clocks, summarize
    from workloads import build_wavefunction, h_chain_yaml
    from sortlet_vmc import geometry, hamiltonian, sampler

    system = geometry.load_system(h_chain_yaml(n))
    wf = build_wavefunction(system, seeds)
    fn = lambda p: wf.signed_log(wf.theta0, p)  # noqa: E731
    ensemble = sampler.init_ensemble(system, fn, WALKERS, seeds.walkers)
    sampler.run_sweeps(ensemble, fn, WARM_SWEEPS, adapt=True)
    phases = {
        "sampler.mh_step": lambda: sampler.mh_step(ensemble, fn),
        "hamiltonian.local_energy":
            lambda: hamiltonian.local_energy(fn, system, ensemble.positions),
    }
    out = {}
    for phase, call in phases.items():
        best = {}
        for _ in range(REPEATS):
            tracer = Tracer()
            install_phase_clocks(tracer)
            install_layers(tracer)
            try:
                call()
            finally:
                tracer.uninstall()
            for key, row in summarize(tracer.spans).items():
                best[key] = min(best.get(key, math.inf), row["self_s"])
        out[phase] = best
    return out


def main() -> int:
    sys.path.insert(0, str(SRC))
    from workloads import Seeds

    print("env " + json.dumps(environment(SEED), sort_keys=True))
    seeds = Seeds.derive(SEED)
    results = {n: measure(n, seeds) for n in SIZES}
    for phase in ("sampler.mh_step", "hamiltonian.local_energy"):
        keys = sorted({k for n in SIZES for k in results[n][phase]},
                      key=lambda k: -results[SIZES[-1]][phase].get(k, 0.0))
        print(f"\n{phase}: self time per call in ms, {WALKERS} walkers "
              f"(min of {REPEATS}); slope = d log t / d log N")
        print(f"  {'span':40s} {'engine':6s}" + "".join(f"{'H' + str(n):>10s}" for n in SIZES)
              + f"{'slope':>8s}")
        for key in keys:
            times = [results[n][phase].get(key, 0.0) for n in SIZES]
            fit = f"{slope(SIZES, times):8.2f}" if all(t > 0 for t in times) else f"{'-':>8s}"
            print(f"  {key[0]:40s} {key[1]:6s}" + "".join(f"{t * 1e3:10.3f}" for t in times)
                  + fit)
        totals = [sum(results[n][phase].values()) for n in SIZES]
        print(f"  {'total':47s}" + "".join(f"{t * 1e3:10.3f}" for t in totals)
              + f"{slope(SIZES, totals):8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
