"""Command-line front end: train, evaluate, probe.

Everything heavy is imported inside the command handlers; the module
itself stays numpy-free so that --threads can pin the BLAS pools through
the environment before the first array library loads.

Output layout, stable: <out>/run-<hash>/metrics.ndjson, checkpoints/
step-%08d.npz and report-<kind>.txt, where <hash> fingerprints the
configuration actually run. `evaluate` appends its report to the run
directory that holds the checkpoint. Reports and metrics are append-only,
one JSON record per line. The output root comes from --out, else
$SORTLET_VMC_OUT, else ./runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

OUT_ENV = "SORTLET_VMC_OUT"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
PROBE_KINDS = ("antisymmetry", "nodes", "smoothness", "variational", "gradcheck")


def _at_least(low: int, name: str):
    """argparse type of an integer flag of at least `low`, called `name` in
    argparse's message for text that is not an integer."""
    def parse(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)
    parse.__name__ = name
    return parse


count = _at_least(1, "count")  # walkers, iterations, sortlets, trials
natural = _at_least(0, "natural")  # seeds and step counts


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sortlet-vmc",
        description="variational Monte Carlo with a sorting-based ansatz")
    p.add_argument("--threads", type=int, metavar="N",
                   help="pin BLAS/OpenMP pools to N threads (default: machine)")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="optimize wavefunction parameters")
    t.add_argument("config", type=Path, help="YAML system/run description")
    t.add_argument("--iters", type=count, default=1000)
    t.add_argument("--walkers", type=count, default=512)
    t.add_argument("--sortlets", type=count, default=16)
    t.add_argument("--seed", type=natural, help="override the config seed")
    t.add_argument("--lr", type=float, default=1e-3)
    t.add_argument("--burn-in", type=natural, default=500)
    t.add_argument("--checkpoint-every", type=natural, default=200)
    t.add_argument("--out", type=Path, help="output root (else $%s)" % OUT_ENV)
    t.add_argument("--resume", type=Path, metavar="CKPT",
                   help="continue bitwise from a checkpoint")

    e = sub.add_parser("evaluate", help="energy of a trained checkpoint")
    e.add_argument("config", type=Path)
    e.add_argument("checkpoint", type=Path)
    e.add_argument("--estimates", type=count, default=200)
    e.add_argument("--equilibration", type=natural, default=500)
    e.add_argument("--walkers", type=count, default=256)
    e.add_argument("--sortlets", type=count, default=16)
    e.add_argument("--seed", type=natural)
    e.add_argument("--out", type=Path)

    r = sub.add_parser("probe", help="run one structural validation")
    r.add_argument("kind", choices=PROBE_KINDS)
    r.add_argument("config", type=Path)
    r.add_argument("--seed", type=natural)
    r.add_argument("--trials", type=count, default=1000,
                   help="trials or paths, depending on the probe")
    r.add_argument("--sortlets", type=count, default=16)
    group = r.add_mutually_exclusive_group()
    group.add_argument("--single-sortlet", action="store_true",
                       help="nodes: assert a crossing on every exchange path")
    group.add_argument("--vandermonde", action="store_true",
                       help="nodes: same protocol on the pairwise-product comparator")
    r.add_argument("--out", type=Path)
    return p


def _out_root(args) -> Path:
    if args.out is not None:
        return args.out
    return Path(os.environ.get(OUT_ENV, "runs"))


def _load_config(path: Path):
    from .geometry import ConfigError, parse_config

    try:
        return parse_config(path.read_text())
    except FileNotFoundError:
        raise SystemExit(f"error: no such config: {path}")
    except ConfigError as err:
        raise SystemExit(f"error: bad config {path}: {err}")


def _wavefunction(system, args, seed: int):
    """The ansatz --sortlets asks for. A width past backbone.MAX_SORTLETS
    is a one-line usage error; cli checks only the lower bound itself, so
    that it stays numpy-free."""
    from .ansatz import SortletWavefunction

    try:
        return SortletWavefunction(system, n_sortlets=args.sortlets, seed=seed)
    except ValueError as err:
        print(f"error: --sortlets {args.sortlets}: {err}", file=sys.stderr)
        raise SystemExit(2) from None


def _config_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:12]


def _append_report(run_dir: Path, kind: str, record: dict):
    run_dir.mkdir(parents=True, exist_ok=True)
    with (run_dir / f"report-{kind}.txt").open("a") as fh:
        fh.write(json.dumps(record) + "\n")


def cmd_train(args) -> int:
    from .optimizer import TrainSettings, config_fingerprint, format_energy, train

    cfg = _load_config(args.config)
    seed = cfg.run.seed if args.seed is None else args.seed
    wf = _wavefunction(cfg.system, args, seed)
    settings = TrainSettings(iters=args.iters, walkers=args.walkers, seed=seed,
                             lr=args.lr, burn_in=args.burn_in,
                             checkpoint_every=args.checkpoint_every,
                             potential=cfg.run.potential)
    run_dir = _out_root(args) / f"run-{config_fingerprint(cfg.system, wf, settings)}"
    print(f"writing to {run_dir}")
    try:
        result = train(wf, settings, out_dir=run_dir, resume_from=args.resume,
                       log=print)
    except FileNotFoundError:
        print(f"error: no such checkpoint: {args.resume}", file=sys.stderr)
        return 1
    except (RuntimeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        if run_dir.exists():  # a refused --resume fails before anything is written
            print(f"partial artifacts kept in {run_dir}", file=sys.stderr)
        return 1
    print(f"final energy {format_energy(result.stats.mean, result.stats.stderr)} Ha "
          f"({settings.iters} iterations)")
    return 0


def cmd_evaluate(args) -> int:
    from .optimizer import Checkpoint, config_fingerprint, evaluate_energy

    cfg = _load_config(args.config)
    seed = cfg.run.seed if args.seed is None else args.seed
    wf = _wavefunction(cfg.system, args, seed)
    try:
        state = Checkpoint.load(args.checkpoint, wf=wf,
                                model_fingerprint=config_fingerprint(cfg.system, wf))
    except FileNotFoundError:
        print(f"error: no such checkpoint: {args.checkpoint}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    report = evaluate_energy(wf, state["theta"], n_walkers=args.walkers,
                             burn_in=args.equilibration, n_estimates=args.estimates,
                             seed=seed + 1, potential=cfg.run.potential)
    print(f"energy {report.formatted()} Ha  "
          f"({report.n_chains} chains x {report.n_estimates} estimates)")
    # the run that wrote <run>/checkpoints/<step>.npz; else keyed by the config
    ckpt_dir = args.checkpoint.resolve().parent
    run_dir = (ckpt_dir.parent if ckpt_dir.name == "checkpoints"
               else _out_root(args) / f"run-{_config_digest(args.config)}")
    _append_report(run_dir, "evaluate",
                   {"checkpoint": str(args.checkpoint), "energy": report.mean,
                    "stderr": report.stderr, "formatted": report.formatted()})
    return 0


def cmd_probe(args) -> int:
    from . import probes

    cfg = _load_config(args.config)
    seed = cfg.run.seed if args.seed is None else args.seed
    try:
        if args.kind == "antisymmetry":
            report = probes.antisymmetry_suite(_wavefunction(cfg.system, args, seed),
                                               trials=args.trials, seed=seed)
        elif args.kind == "nodes":
            kind = ("sortlet" if args.single_sortlet
                    else "vandermonde" if args.vandermonde else "sum")
            report = probes.node_crossing_suite(cfg.system, kind=kind,
                                                n_paths=min(args.trials, 100), seed=seed)
        elif args.kind == "smoothness":
            report = probes.smoothness_probe(cfg.system, trials=min(args.trials, 10),
                                             seed=seed)
        elif args.kind == "variational":
            report = probes.variational_floor_check(trials=args.trials, seed=seed)
        else:
            report = probes.toy_gradient_check()
    except ValueError as err:  # e.g. an exchange probe on a system with no same-spin pair
        print(f"error: probe {args.kind}: {err}", file=sys.stderr)
        return 2
    _append_report(_out_root(args) / f"run-{_config_digest(args.config)}",
                   args.kind, report)
    passed = bool(report.get("passed", False))
    summary = {k: v for k, v in report.items()
               if isinstance(v, (int, float, str, bool))}
    print(json.dumps(summary))
    print(f"probe {args.kind}: {'pass' if passed else 'FAIL'}")
    return 0 if passed else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads is not None:
        if args.threads < 1:
            print("error: --threads must be positive", file=sys.stderr)
            return 2
        for var in THREAD_VARS:
            os.environ[var] = str(args.threads)
    handler = {"train": cmd_train, "evaluate": cmd_evaluate,
               "probe": cmd_probe}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
