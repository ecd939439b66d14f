"""Command-line front end: train, evaluate, probe.

Everything heavy is imported inside the command handlers; the module
itself stays numpy-free so that --threads can pin the BLAS pools through
the environment before the first array library loads.

Output layout, stable: <out>/run-<hash>/metrics.ndjson, checkpoints/
step-%08d.npz and report-<kind>.txt. <hash> is `optimizer.config_fingerprint`:
for `train` the run's (system, ansatz, theta0 and every flag but --iters and
--checkpoint-every), else the model's (system and ansatz): a probe's is the
one it evaluates, --sortlets heads where it reads that flag, else one. A fresh
`train` into a directory with a checkpoint is refused (use --resume); one
killed before its first checkpoint is simply run again. `evaluate` reports
into the run directory of its checkpoint. Reports and metrics hold one strict
JSON record per line. The output root is --out, else $SORTLET_VMC_OUT, else ./runs.

Each probe kind is a subcommand of `probe` with exactly the flags it reads,
so argparse refuses any other. Every other refusal of input raises UsageError,
which `main` alone prints as one `error:` line before it exits 2, with nothing
written; argparse's refusals exit 2 too. A run that fails (a checkpoint that
cannot be loaded or does not fit, a diverged training, an evaluation with no
walker of nonzero ψ to start from, a probe short of paths) prints one
`error:` line and exits 1.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

OUT_ENV = "SORTLET_VMC_OUT"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
PROBE_KINDS = ("antisymmetry", "nodes", "smoothness")  # probe's subcommands


class UsageError(Exception):
    """Input refused; `main` prints it as one `error:` line and exits 2."""


def _bounded(name: str, cast, ok, bound: str):
    """argparse type: the text read by `cast`, refused unless ok(value) with
    "must be <bound>"; argparse calls text `cast` cannot read an invalid `name`."""
    def parse(text: str):
        if not ok(cast(text)):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return cast(text)
    parse.__name__ = name
    return parse


count = _bounded("count", int, lambda v: v >= 1, "at least 1")  # walkers, iters, sortlets, trials
natural = _bounded("natural", int, lambda v: v >= 0, "at least 0")  # seeds and step counts
rate = _bounded("rate", float, lambda v: 0.0 < v < float("inf"), "finite and greater than 0")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sortlet-vmc",
        description="variational Monte Carlo with a sorting-based ansatz")
    p.add_argument("--threads", type=count, metavar="N",
                   help="pin BLAS/OpenMP pools to N threads (default: machine)")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="optimize wavefunction parameters")
    t.add_argument("config", type=Path, help="YAML system/run description")
    t.add_argument("--iters", type=count, default=1000)
    t.add_argument("--walkers", type=count, default=512)
    t.add_argument("--sortlets", type=count)
    t.add_argument("--seed", type=natural, help="override the config seed")
    t.add_argument("--lr", type=rate, default=1e-3)
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
    e.add_argument("--sortlets", type=count)
    e.add_argument("--seed", type=natural)
    e.add_argument("--out", type=Path)

    # what every probe reads: its config, the seed of its draws and model, the output root
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("config", type=Path, help="YAML system/run description")
    shared.add_argument("--seed", type=natural, help="override the config seed")
    shared.add_argument("--out", type=Path, help="output root (else $%s)" % OUT_ENV)
    kinds = sub.add_parser("probe", help="run one structural validation").add_subparsers(
        dest="kind", required=True)
    antisymmetry, nodes, smoothness = (kinds.add_parser(kind, parents=[shared])
                                       for kind in PROBE_KINDS)
    antisymmetry.add_argument("--trials", type=count, default=1000,
                              help="same-spin exchanges (default: %(default)s)")
    antisymmetry.add_argument("--sortlets", type=count, help="mixture heads")
    nodes.add_argument("--trials", type=count, default=100,
                       help="exchange paths (default: %(default)s)")
    model = nodes.add_mutually_exclusive_group()
    model.add_argument("--sortlets", type=count, help="mixture heads")
    model.add_argument("--vandermonde", action="store_true",
                       help="one head's Vandermonde comparator in place of the mixture")
    smoothness.add_argument("--trials", type=count, default=10,
                            help="single score ties (default: %(default)s)")
    return p


def _out_root(args) -> Path:
    """--out, else $SORTLET_VMC_OUT, else ./runs. Refused if it is, or lies under, a file."""
    root = args.out if args.out is not None else Path(os.environ.get(OUT_ENV, "runs"))
    if not next(p for p in (root, *root.parents) if p.exists()).is_dir():
        raise UsageError(f"output root {root} is not a directory")
    return root


def _load_config(path: Path):
    from .geometry import ConfigError, parse_config

    try:
        return parse_config(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, ConfigError) as err:  # OSError: missing, a directory
        raise UsageError(f"bad config {path}: {err.strerror if isinstance(err, OSError) else err}")


def _model(args, n_sortlets: int):
    """(seed, model of n_sortlets heads) of args.config; --seed overrides its seed."""
    from .ansatz import SortletWavefunction

    cfg = _load_config(args.config)
    seed = cfg.run.seed if args.seed is None else args.seed
    return seed, SortletWavefunction(cfg.system, n_sortlets=n_sortlets, seed=seed)


def _sortlets(args) -> int:
    """The --sortlets a command reads, refused past backbone.MAX_SORTLETS; the
    parser checks only the lower bound, so that cli stays numpy-free."""
    from .backbone import DEFAULT_SORTLETS, MAX_SORTLETS

    if (args.sortlets or 0) > MAX_SORTLETS:
        raise UsageError(f"--sortlets {args.sortlets}: at most {MAX_SORTLETS} heads")
    return args.sortlets or DEFAULT_SORTLETS


def cmd_train(args) -> int:
    from .optimizer import TrainSettings, config_fingerprint, format_energy, train

    seed, wf = _model(args, _sortlets(args))
    settings = TrainSettings(iters=args.iters, walkers=args.walkers, seed=seed,
                             lr=args.lr, burn_in=args.burn_in,
                             checkpoint_every=args.checkpoint_every)
    run_dir = _out_root(args) / f"run-{config_fingerprint(wf.system, wf, settings)}"
    done = sorted(run_dir.glob("checkpoints/step-*.npz"))
    if args.resume is None and done:
        raise UsageError(f"{run_dir} holds this run already; continue it with --resume {done[-1]}")
    print(f"writing to {run_dir}")
    try:
        result = train(wf, settings, out_dir=run_dir, resume_from=args.resume,
                       log=print)
    except (RuntimeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(f"final energy {format_energy(result.stats.mean, result.stats.stderr)} Ha "
          f"({settings.iters} iterations)")
    return 0


def cmd_evaluate(args) -> int:
    from .optimizer import Checkpoint, append_record, config_fingerprint, evaluate_energy

    seed, wf = _model(args, _sortlets(args))
    # the run that wrote <run>/checkpoints/<step>.npz; else keyed by the model
    ckpt_dir = args.checkpoint.resolve().parent
    run_dir = (ckpt_dir.parent if ckpt_dir.name == "checkpoints"
               else _out_root(args) / f"run-{config_fingerprint(wf.system, wf)}")
    try:
        state = Checkpoint.load(args.checkpoint, wf=wf)
        report = evaluate_energy(wf, state["theta"], n_walkers=args.walkers,
                                 burn_in=args.equilibration, n_estimates=args.estimates,
                                 seed=seed + 1)
    except (RuntimeError, ValueError) as err:  # RuntimeError: no walker to start from
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(f"energy {report.formatted()} Ha  "
          f"({report.n_chains} chains x {report.n_estimates} estimates)")
    append_record(run_dir / "report-evaluate.txt",
                  {"checkpoint": str(args.checkpoint), "energy": report.mean,
                   "stderr": report.stderr, "formatted": report.formatted()})
    return 0


def cmd_probe(args) -> int:
    from . import probes
    from .optimizer import append_record, config_fingerprint, record_json

    vandermonde = getattr(args, "vandermonde", False)  # nodes' alone
    seed, wf = _model(args, 1 if vandermonde or "sortlets" not in args else _sortlets(args))
    run_dir = _out_root(args) / f"run-{config_fingerprint(wf.system, wf)}"
    try:
        if args.kind == "antisymmetry":
            report = probes.antisymmetry_suite(wf, trials=args.trials, seed=seed)
        elif args.kind == "nodes":
            report = probes.node_crossing_suite(wf, vandermonde=vandermonde,
                                                trials=args.trials, seed=seed)
        else:
            report = probes.smoothness_probe(wf, trials=args.trials, seed=seed)
    except ValueError as err:  # an exchange probe on a system with no same-spin pair
        raise UsageError(f"probe {args.kind}: {err}")
    except RuntimeError as err:  # a run failure: too few off-node paths
        print(f"error: probe {args.kind}: {err}", file=sys.stderr)
        return 1
    append_record(run_dir / f"report-{args.kind}.txt", report)
    passed = bool(report.get("passed", False))
    summary = {k: v for k, v in report.items()
               if isinstance(v, (int, float, str, bool))}
    print(record_json(summary))
    print(f"probe {args.kind}: {'pass' if passed else 'FAIL'}")
    return 0 if passed else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"train": cmd_train, "evaluate": cmd_evaluate,
               "probe": cmd_probe}[args.command]
    try:
        if args.threads is not None:
            os.environ.update(dict.fromkeys(THREAD_VARS, str(args.threads)))
        return handler(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        raise SystemExit(2)


if __name__ == "__main__":
    sys.exit(main())
