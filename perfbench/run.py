"""Benchmark for sortlet-vmc: one workload per process, single-threaded BLAS.

    python3 perfbench/run.py --workload train-li --seed 1 --seconds 20 --trace 0

Runs episodes of the named workload (see workloads.py) until --seconds have
passed and at least the workload's min_episodes have run, checks the
outputs, and prints a report whose last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics with only the phase clocks
installed (spans around sweeps and local-energy passes; the host-speed
calibration of calibration.py runs before each sweep call). --trace 1
alternates untraced and traced episodes of the same work and reports
per-layer metrics per traced episode, plus the tracing overhead (traced
minus untraced episode wall time).

The program is imported from src/ of the checkout this file sits in; in a
directory without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads, so the BLAS pool starts at 1
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

# numpy loads here, after the pin
from calibration import REFERENCE_S, Calibrator  # noqa: E402
from spans import (CALIBRATION, Tracer, install_layers, install_phase_clocks,  # noqa: E402
                   summarize)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train-li", "sample-lih", "evaluate-h8")
# below this many samples beyond a percentile, the percentile is not reported
TAIL_SAMPLES = 10

END_TO_END = (
    ("setup_s", "s"),
    ("iter_s", "s"),
    ("walker_steps_per_s", "1/s"),
    ("eloc_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
RATES = ("walker_steps_per_s", "eloc_per_s")

ENGINES = ("np", "dual")
# (metric, unit, span name, engine, field); values are per traced episode
PER_LAYER = [
    ("geometry.parse_config.busy_s", "s", "geometry.parse_config", "np", "busy_s"),
    ("sampler.init_ensemble.busy_s", "s", "sampler.init_ensemble", "np", "busy_s"),
    ("sampler.mh_step.busy_s", "s", "sampler.mh_step", "np", "busy_s"),
    ("sampler.mh_step.self_s", "s", "sampler.mh_step", "np", "self_s"),
    ("sampler.mh_step.calls", "count", "sampler.mh_step", "np", "calls"),
]
for _e in ENGINES:
    PER_LAYER += [
        (f"ansatz.signed_log.{_e}.busy_s", "s", "ansatz.signed_log", _e, "busy_s"),
        (f"ansatz.signed_log.{_e}.walkers", "count", "ansatz.signed_log", _e, "walkers"),
    ]
for _fn in ("ansatz.sortlet_logs", "ansatz.envelope_distance_sum", "ansatz.pair_log_factor",
            "ansatz.mix_signed_logs", "backbone.featurize", "backbone.scores"):
    PER_LAYER += [(f"{_fn}.{_e}.self_s", "s", _fn, _e, "self_s") for _e in ENGINES]
for _op in ("einsum", "symsum", "symsum_abs", "take_along"):
    for _e in ENGINES:
        PER_LAYER += [(f"ad.{_op}.{_e}.calls", "count", f"ad.{_op}", _e, "calls"),
                      (f"ad.{_op}.{_e}.self_s", "s", f"ad.{_op}", _e, "self_s")]
PER_LAYER += [(f"ad.other.{_e}.self_s", "s", "ad.other", _e, "self_s") for _e in ENGINES]
PER_LAYER += [
    ("hamiltonian.local_energy.busy_s", "s", "hamiltonian.local_energy", "np", "busy_s"),
    ("hamiltonian.local_energy.self_s", "s", "hamiltonian.local_energy", "np", "self_s"),
    ("hamiltonian.electron_potentials.busy_s", "s", "hamiltonian.electron_potentials", "np",
     "busy_s"),
]
# spans whose self time belongs to no reported layer: the benchmark's own
# loop and the orchestration code in train / evaluate_energy / run_sweeps
GLUE = ("bench.episode", "optimizer.train", "optimizer.evaluate_energy", "sampler.run_sweeps")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


# -- environment -------------------------------------------------------------

def _cache_sizes() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _revision() -> str:
    """HEAD of the checkout's git repository (never of one above it), or a
    digest of src/sortlet_vmc where the checkout is not a repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    import hashlib
    h = hashlib.sha256()
    for path in sorted((SRC / "sortlet_vmc").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def environment(seed: int) -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "caches_per_cpu0": _cache_sizes(),
        "revision": _revision(),
        "workload_seed": seed,
    }


# -- episodes ----------------------------------------------------------------

def episode_record(spans, lo: int, hi: int, main_end: float) -> dict:
    """Set-up time, timed units, phase rates and failure counts of one
    episode, raw and scaled by the episode's calibration.

    A calibration span directly precedes every sampler.run_sweeps span.
    Unit i runs from the start of timed sweep i to the calibration before
    sweep i+1 (the last to main_end); a sweep rate covers one run_sweeps
    span, an eloc rate one local_energy pass. Every interval is timed less
    the calibrations inside it. All of them are scaled by REFERENCE_S over
    the median calibration of the episode: host speed moves faster than a
    unit lasts, so the run of the kernel next to a unit does not predict
    that unit, while the episode's median follows the slower drift.
    """
    root = spans[lo]
    cals = [(s[2], s[3] - s[2]) for s in spans[lo:hi] if s[0] == CALIBRATION]

    def interval(a, b):
        return (b - a) - sum(d for t0, d in cals if a <= t0 < b)

    sweeps = [i for i in range(lo, hi) if spans[i][0] == "sampler.run_sweeps"]
    energies = [i for i in range(lo, hi) if spans[i][0] == "hamiltonian.local_energy"]
    timed = sweeps[1:]  # the first sweep call is the burn-in
    ends = [spans[i - 1][2] for i in timed[1:]] + [main_end]
    raw = {
        "setup_s": [interval(root[2], spans[timed[0] - 1][2])],
        "iter_s": [interval(spans[i][2], b) for i, b in zip(timed, ends)],
        "walker_steps_per_s": [spans[i][5]["walkers"] * spans[i][5]["steps"]
                               / (spans[i][3] - spans[i][2]) for i in timed],
        "eloc_per_s": [spans[i][5]["walkers"] / (spans[i][3] - spans[i][2]) for i in energies],
    }
    scale = REFERENCE_S / statistics.median(d for _, d in cals)
    return {
        "wall_s": interval(root[2], root[3]),
        "scale": scale,
        "calibration_s": [d for _, d in cals],
        "raw": raw,
        "scaled": {name: [x / scale if name in RATES else x * scale for x in values]
                   for name, values in raw.items()},
        "attempted": sum(spans[i][5]["walkers"] for i in timed + energies),
        "failed": (sum(spans[i][5]["sign0"] for i in timed)
                   + sum(spans[i][5]["nonfinite"] for i in energies)),
    }


def run_episodes(workload, seeds, workdir, seconds: float, trace: bool):
    """Closed loop of identical episodes. With trace, odd episodes run with
    every layer wrapped and even ones with the phase clocks only."""
    tracer = Tracer()
    calibrator = Calibrator()

    def calibrate():
        with tracer.span(CALIBRATION):
            calibrator.run()

    install_phase_clocks(tracer, calibrate)
    clocks = tracer.patch_count()
    records, traced_ranges, outcome = [], [], None
    t0 = perf_counter()
    while (len(records) < workload.min_episodes or perf_counter() - t0 < seconds
           or (trace and len(records) % 2)):
        traced = trace and len(records) % 2 == 1
        if traced:
            install_layers(tracer)
        lo = len(tracer.spans)
        try:
            with tracer.span("bench.episode"):
                outcome = workload.episode(seeds, workdir)
        finally:
            tracer.uninstall(keep=clocks)
        hi = len(tracer.spans)
        rec = episode_record(tracer.spans, lo, hi, outcome.main_end)
        rec["traced"] = traced
        records.append(rec)
        if traced:
            traced_ranges.append((lo, hi, rec["scale"]))
    return tracer, records, traced_ranges, outcome


def run_checks(workload, outcome, ensemble) -> dict:
    from workloads import antisymmetry_check
    checks = {"antisymmetry_bitwise": antisymmetry_check(outcome, ensemble)}
    checks.update(workload.checks(outcome, ensemble))
    return checks


# -- reporting ---------------------------------------------------------------

def tail_percentile(n: int):
    """Highest of the usual percentiles with at least TAIL_SAMPLES beyond it."""
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100.0 >= TAIL_SAMPLES:
            return p
    return None


def pooled(records, kind: str, name: str) -> list:
    return [x for r in records for x in r[kind][name]]


def end_to_end_metrics(records) -> dict:
    """Medians of the calibrated phase times and rates; peak RSS as read."""
    values = {name: statistics.median(pooled(records, "scaled", name))
              for name, _ in END_TO_END if name != "peak_rss_mb"}
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def layer_rows(tracer, traced_ranges) -> dict:
    """(name, engine) -> per-episode means over the traced episodes, times
    scaled by each episode's median calibration."""
    total = {}
    for lo, hi, scale in traced_ranges:
        for key, row in summarize(tracer.spans, lo, hi).items():
            acc = total.setdefault(key, {})
            for field, value in row.items():
                if field == "lanes":
                    acc[field] = max(acc.get(field, 0), value)
                else:
                    acc[field] = acc.get(field, 0) + (value * scale if field.endswith("_s")
                                                      else value)
    n = len(traced_ranges)
    return {key: {f: (v if f == "lanes" else v / n) for f, v in row.items()}
            for key, row in total.items()}


def per_layer_metrics(rows, records) -> dict:
    def get(name, engine, field):
        return rows.get((name, engine), {}).get(field, 0.0)

    out = {m: {"value": get(n, e, f), "unit": u} for m, u, n, e, f in PER_LAYER}
    out["ad.forward.lanes"] = {
        "value": max((r.get("lanes", 0) for (_, e), r in rows.items() if e == "dual"),
                     default=0), "unit": "count"}
    out["ad.forward.bytes_computed"] = {
        "value": sum(r.get("bytes", 0.0) for (_, e), r in rows.items() if e == "dual"),
        "unit": "B"}
    traced = [r["wall_s"] * r["scale"] for r in records if r["traced"]]
    untraced = [r["wall_s"] * r["scale"] for r in records if not r["traced"]]
    out["trace.episode_s"] = {"value": statistics.fmean(traced), "unit": "s"}
    out["trace.untraced_episode_s"] = {"value": statistics.fmean(untraced), "unit": "s"}
    out["trace.unattributed_s"] = {
        "value": sum(r["self_s"] for (n, _), r in rows.items() if n in GLUE), "unit": "s"}
    return out


def tracing_overhead(records) -> float:
    """Median over (untraced, traced) episode pairs of the calibrated wall
    difference; near zero, and below it when the host speeds up mid-pair."""
    walls = [r["wall_s"] * r["scale"] for r in records]
    return statistics.median(t - u for u, t in zip(walls[0::2], walls[1::2]))


def print_layer_table(rows, metrics, records):
    wall = metrics["trace.episode_s"]["value"]
    untraced = metrics["trace.untraced_episode_s"]["value"]
    overhead = tracing_overhead(records)
    print(f"per-layer, per traced episode, calibrated seconds (traced wall {wall:.4f} s; untraced "
          f"{untraced:.4f} s; tracing overhead {overhead:+.4f} s, median over pairs)")
    print(f"  {'span':44s} {'engine':6s} {'calls':>9s} {'busy_s':>10s} {'self_s':>10s} "
          f"{'self%':>6s}")
    for (name, engine), r in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:44s} {engine:6s} {r['calls']:9.1f} {r['busy_s']:10.4f} "
              f"{r['self_s']:10.4f} {100 * r['self_s'] / wall:6.2f}")
    glue = metrics["trace.unattributed_s"]["value"]
    layers = sum(r["self_s"] for (n, _), r in rows.items() if n not in GLUE + (CALIBRATION,))
    print(f"  layers {layers:.4f} s ({100 * layers / untraced:.1f}% of the untraced wall) + "
          f"unattributed glue {glue:.4f} s = {layers + glue:.4f} s against the untraced wall "
          f"{untraced:.4f} s: {layers + glue - untraced:+.4f} s, tracing overhead "
          f"{overhead:+.4f} s (calibration runs excluded throughout)")
    steps = rows.get(("sampler.mh_step", "np"), {})
    energies = rows.get(("hamiltonian.local_energy", "np"), {})
    if steps.get("proposed"):
        print(f"  sampler acceptance {steps['accepted'] / steps['proposed']:.3f} "
              f"({steps['proposed']:.0f} proposed moves per episode)")
    print(f"  non-finite local energies {energies.get('nonfinite', 0.0):.0f} of "
          f"{energies.get('walkers', 0.0):.0f} per episode")
    print("  operators on Dual/Var (+, -, *, /, indexing) are not spans: their cost is "
          "in the calling span's self time")
    print("  `ad.other` folds the remaining ad ops (exp, log, where, sum, concat, ...)")

    def busy(name, engine="np"):
        return rows.get((name, engine), {}).get("busy_s", 0.0)

    grad = sum(busy("ad.reverse.GradientTape.gradient", e) for e in ("np", "var"))
    save = busy("optimizer.Checkpoint.save")
    if grad or save:
        size = rows.get(("optimizer.Checkpoint.save", "np"), {}).get("bytes", 0.0)
        print(f"  reverse sweep {grad:.4f} s = {100 * grad / wall:.1f}% and checkpoint "
              f"write {save * 1e3:.1f} ms for {size / 1e3:.0f} kB = {100 * save / wall:.2f}% "
              "of the episode: changes to either are visible per layer only, not end to end")
    print("  cli and probes are off the hot path and not measured")


def print_end_to_end(records, metrics):
    units = pooled(records, "scaled", "iter_s")
    p = tail_percentile(len(units))
    tail = (f"p{p} {statistics.quantiles(units, n=100, method='inclusive')[p - 1]:.4f} s"
            if p is not None
            else f"no percentile has {TAIL_SAMPLES} samples beyond it")
    print(f"iter_s median {metrics['iter_s']['value']:.4f} s over {len(units)} units in "
          f"{len(records)} episodes; {tail}")
    cal = [c for r in records for c in r["calibration_s"]]
    print(f"calibration kernel: median {statistics.median(cal) * 1e3:.2f} ms over {len(cal)} "
          f"runs (reference {REFERENCE_S * 1e3:.2f} ms); quartiles "
          + " ".join(f"{q * 1e3:.2f}" for q in statistics.quantiles(cal, n=4)))
    print(f"  {'metric':22s} {'calibrated':>12s} {'raw median':>12s}  unit  (n)")
    for name, unit in END_TO_END:
        if name == "peak_rss_mb":
            raw, n = metrics[name]["value"], 1
        else:
            raw_values = pooled(records, "raw", name)
            raw, n = statistics.median(raw_values), len(raw_values)
        print(f"  {name:22s} {metrics[name]['value']:12.6g} {raw:12.6g}  {unit}  ({n})")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sortlet_vmc" / "__init__.py").is_file():
        print(f"error: {SRC / 'sortlet_vmc'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    attempted = failed = 0
    correct = False
    metrics = {}
    try:
        from workloads import WORKLOADS, Seeds
        workload = WORKLOADS[args.workload]
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
              f"trace {args.trace}")
        print("env " + json.dumps(environment(args.seed), sort_keys=True))
        # the checkpoints and metrics train writes stay inside the checkout:
        # the benchmark reads and writes nowhere else
        with tempfile.TemporaryDirectory(prefix=".perfbench-run-", dir=ROOT,
                                         ignore_cleanup_errors=True) as workdir:
            tracer, records, traced_ranges, outcome = run_episodes(
                workload, Seeds.derive(args.seed), Path(workdir), args.seconds, bool(args.trace))
        checks = run_checks(workload, outcome, tracer.last_ensemble)
        attempted = sum(r["attempted"] for r in records) + len(checks)
        failed = sum(r["failed"] for r in records) + sum(not ok for ok in checks.values())
        correct = failed == 0
        print("checks " + ", ".join(f"{k}={'ok' if ok else 'FAIL'}" for k, ok in checks.items()))
        print(f"failed_frac {failed}/{attempted} = {failed / attempted:.3g}")
        if args.trace:
            rows = layer_rows(tracer, traced_ranges)
            metrics = per_layer_metrics(rows, records)
            print_layer_table(rows, metrics, records)
            print("episode walls " + " ".join(
                f"{'T' if r['traced'] else 'U'}{r['wall_s']:.3f}/{r['wall_s'] * r['scale']:.3f}"
                for r in records) + "  (raw/calibrated s)")
        else:
            metrics = end_to_end_metrics(records)
            print_end_to_end(records, metrics)
    except Exception:  # the run fails as a whole; report it, do not hide it
        traceback.print_exc()
        attempted = max(attempted, 1)
        failed = attempted
        correct = False
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
