"""Alternating pairs of the benchmark's end-to-end metrics for two checkouts.

    python tests/abpairs.py A B [--pairs 10] [--seed 1] [--workload NAME ...]

A and B are checkout directories, typically the parent commit and the
change. For each workload (by default every one in A's BENCHMARK.json) it
runs `perfbench/run.py --workload NAME --seed S --seconds T --trace 0` in
each checkout, T being A's BENCHMARK.json `run_seconds`, one process at a
time, in N pairs; the side that runs first swaps every pair (A B, B A,
A B, ...), so a host that drifts during a pair favours neither side. It
then prints one line per workload in the form CHANGES.md uses,

    train-li `iter_s` 0.0725 -> 0.0720 s (A 0.0718-0.0731, B 0.0712-0.0726; B better 6/10;
    A IQR 0.0006, gap within it), ...

the median of each end-to-end metric per side, each side's range, the
pairs in which B did better (by the metric's `better` in BENCHMARK.json),
A's interquartile range (statistics.quantiles, exclusive, as the BENCH
files give quartiles) and whether the gap between the medians is beyond
it: the two numbers ROADMAP's gain rule and its "beyond noise" read. It
also names every run that failed or reported an incorrect result. It writes
no BENCH file and nothing under perfbench/; each run makes and removes its
own `.perfbench-run-*` directory inside its checkout. A workload that A's
BENCHMARK.json does not list is refused with exit 2 before any run.

SIGTERM or Ctrl-C stops the comparison: the running child, in a session of
its own, gets one SIGINT, so perfbench removes its run directory, and is
killed if it is still alive 5 seconds later; the script then names the
stopped run and exits 1. Not a pytest module.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("a", type=Path, help="first checkout (the reference)")
    p.add_argument("b", type=Path, help="second checkout (the change)")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workload", action="append", help="repeatable; default: every workload")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    return args


def run_once(checkout: Path, workload: str, seed: int, seconds: float):
    """(metrics, problem): the run's end-to-end values by name, and None or
    why the run does not count."""
    child = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)  # a terminal's Ctrl-C reaches only this script
    try:
        stdout, stderr = child.communicate()
    except KeyboardInterrupt:
        try:
            child.send_signal(signal.SIGINT)  # perfbench's TemporaryDirectory cleans up
            child.communicate(timeout=5)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        raise
    lines = stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = (stderr.strip().splitlines() or ["no output"])[-1]
        return {}, f"exit {child.returncode}: {tail}"
    if child.returncode or not report["correct"] or report["failed"]:
        return {}, (f"exit {child.returncode}, correct {report['correct']}, "
                    f"failed {report['failed']}/{report['attempted']}")
    return {name: m["value"] for name, m in report["metrics"].items()}, None


def fmt(value: float) -> str:
    # thousands grouped by spaces, as CHANGES.md writes rates
    return f"{value:,.0f}".replace(",", " ") if abs(value) >= 1000 else f"{value:.4g}"


def iqr(values: list) -> float | None:
    """Q3 - Q1 by statistics.quantiles (exclusive); None below two values."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4, method="exclusive")
    return q3 - q1


def summary(workload: str, metrics: list, pairs: list) -> str:
    """One line: each metric's medians A -> B, ranges, pairs B won, A's IQR
    and whether the medians differ by more than it."""
    parts = []
    for m in metrics:
        name = m["name"]
        a = [p["a"][name] for p in pairs if name in p.get("a", {})]
        b = [p["b"][name] for p in pairs if name in p.get("b", {})]
        both = [(p["a"][name], p["b"][name]) for p in pairs
                if name in p.get("a", {}) and name in p.get("b", {})]
        if not a or not b:
            parts.append(f"`{name}` missing")
            continue
        lower = m["better"] == "lower"
        wins = sum((y < x) if lower else (y > x) for x, y in both)
        mid_a, mid_b, spread = statistics.median(a), statistics.median(b), iqr(a)
        noise = "A IQR n/a" if spread is None else (
            f"A IQR {fmt(spread)}, gap {'beyond' if abs(mid_b - mid_a) > spread else 'within'} it")
        parts.append(f"`{name}` {fmt(mid_a)} -> {fmt(mid_b)} "
                     f"{m['unit']} (A {fmt(min(a))}-{fmt(max(a))}, B {fmt(min(b))}-{fmt(max(b))}; "
                     f"B better {wins}/{len(both)}; {noise})")
    return f"{workload} " + ", ".join(parts)


def _interrupt(signum, frame):
    raise KeyboardInterrupt(signal.Signals(signum).name)  # SIGTERM stops as Ctrl-C does


def main(argv=None) -> int:
    args = parse_args(argv)
    sides = {"a": args.a.resolve(), "b": args.b.resolve()}
    for side in sides.values():
        if not (side / "perfbench" / "run.py").is_file():
            print(f"error: {side} holds no perfbench/run.py", file=sys.stderr)
            return 2
    bench = json.loads((sides["a"] / "BENCHMARK.json").read_text())
    listed = [w["name"] for w in bench["workloads"]]
    unknown = sorted(set(args.workload or ()) - set(listed))
    if unknown:
        print(f"error: BENCHMARK.json lists no workload {', '.join(unknown)}; "
              f"it lists {', '.join(listed)}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _interrupt)
    problems, run = [], None
    try:
        for workload in args.workload or listed:
            pairs = []
            for pair in range(args.pairs):
                pairs.append({})
                for key in ("ab" if pair % 2 == 0 else "ba"):
                    run = f"{workload} pair {pair + 1} {key.upper()}"
                    values, problem = run_once(sides[key], workload, args.seed,
                                               bench["run_seconds"])
                    print(f"# {run}: "
                          + (problem or " ".join(f"{k}={fmt(v)}" for k, v in values.items())),
                          flush=True)
                    if problem is None:
                        pairs[-1][key] = values
                    else:
                        problems.append(f"{run}: {problem}")
            print(summary(workload, bench["end_to_end"], pairs), flush=True)
    except KeyboardInterrupt:
        print(f"stopped: {run}", file=sys.stderr)
        return 1
    for problem in problems:
        print(f"not counted: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
