"""Print what of src/ no command runs: the functions never entered and the
lines never run, over a fixed list of `sortlet-vmc` commands.

    PYTHONPATH=src python tests/prodcov.py

The commands run through `cli.main` in this one process, under
`sys.settrace`, at tiny sizes and one BLAS thread, each into its own
output root under a temporary directory:

- `train` on every config in configs/ (2 iterations of 4 walkers; lih's
  at `--lr 2e-3`, so the rate parser runs);
- one `train --resume` of the Li run from its first checkpoint, and one
  `evaluate` of its last;
- every kind in `cli.PROBE_KINDS`, and `nodes` at one head
  (`--sortlets 1`) and with `--vandermonde`, on li, b and h4_theta90
  (2 trials).

The report has four parts: the commands with their exit codes; each
function of src/sortlet_vmc never entered, by file, first line and
qualified name (code nested in it is not listed again); the lines never
run inside the functions that were entered, as ranges; and the keep list,
the code that stays although no command runs it, each entry with its
reason. Lambdas, comprehensions and class bodies count as functions.

The trace keys every frame by its code object's `co_filename`, resolved
to a real path, and compares it with each file's code objects as
`compile` builds them. The stdlib `trace` module is not used: over the
same commands it recorded no line of ad/__init__.py.

pytest does not collect this file (no test_ prefix). It takes a few
seconds; the output is stable for one source tree.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import os
import sys
import tempfile
import types
from pathlib import Path

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
PROBE_CONFIGS = ("li", "b", "h4_theta90")

# what stays in src/ although no command runs it, and why
KEEP = (
    ("ad._sort_parity's argsort fallback and _ranked_index",
     "NaN, infinite and longer-than-16 rows need it"),
    ("input refusals and error paths, ConfigError and Dual and Var __array__ among them",
     "they answer inputs and failures no command here makes"),
    ("Dual.__truediv__ (Dual / Dual), Var - Var, Var.__rtruediv__ and both branches of where",
     "they keep Dual and Var arithmetic complete"),
    ("Dual.__mul__'s Dual x Dual branch", "it keeps Dual arithmetic complete, like Dual / Dual"),
    ("Dual and Var __repr__, Var.shape", "a Dual or Var prints, and tells its shape, as an array does"),
    ("norm's single-eps form", "two lines, and seven test and oracle sites call it"),
    ("energy_gradient's weights=", "criterion 5 checks the covariance estimator against exact "
     "quadrature through it (oracles.toy_gradient_check)"),
    ("symsum, symsum_abs, stack, the Dual and Var engines of maximum and minimum (_select's "
     "pick), the log1p and sqrt rows", "only perfbench/spans.py's lists of patched names hold "
     "them; they go with a change to the benchmark that refreshes those lists"),
    ("geometry.load_system", "perfbench's workloads, tests/bitdigest.py and the tests load "
     "their systems through it"),
)


def commands(out: Path, probe_kinds):
    """The argv lists, in order; each resolved only when it is due, since the
    resume and the evaluate name a checkpoint an earlier train wrote."""
    tiny = ["--walkers", "4", "--burn-in", "2", "--checkpoint-every", "1"]
    for config in sorted(CONFIGS.glob("*.yaml")):
        rate = ["--lr", "2e-3"] if config.stem == "lih" else []
        yield ["train", str(config), "--iters", "2", *tiny, *rate, "--out", str(out / config.stem)]
    li = str(CONFIGS / "li.yaml")
    checkpoints = sorted((out / "li").glob("run-*/checkpoints/step-*.npz"))
    yield ["train", li, "--iters", "3", *tiny, "--resume", str(checkpoints[0]),
           "--out", str(out / "li")]
    yield ["evaluate", li, str(checkpoints[-1]), "--walkers", "4", "--estimates", "2",
           "--equilibration", "2", "--out", str(out / "li")]
    probes = [[kind] for kind in probe_kinds]
    probes += [["nodes", "--sortlets", "1"], ["nodes", "--vandermonde"]]
    for name in PROBE_CONFIGS:
        for probe in probes:
            yield ["probe", probe[0], str(CONFIGS / f"{name}.yaml"), *probe[1:], "--trials", "2",
                   "--out", str(out / "probes")]


def own_lines(code: types.CodeType) -> set:
    """The lines that hold instructions of `code` itself. Neither a module's
    line 0 nor a function's first line (its def, or its first decorator)
    raises a line event."""
    lines = {line for *_, line in code.co_lines() if line}
    return lines if code.co_name == "<module>" else lines - {code.co_firstlineno}


def ranges(lines) -> str:
    """Sorted line numbers as `a-b` runs: [1, 2, 3, 7] -> "1-3, 7"."""
    runs = []
    for line in sorted(lines):
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(f"{a}-{b}" if a != b else f"{a}" for a, b in runs)


def trace(run, package: Path):
    """(entered, hit): the (file, first line, qualname) of each code object of
    `package` that ran, and each (file, line) that raised a line event."""
    entered, hit, in_package = set(), set(), {}

    def local(frame, event, arg):
        if event == "line":
            hit.add((in_package[frame.f_code.co_filename], frame.f_lineno))
        return local

    def call(frame, event, arg):
        code = frame.f_code
        name = code.co_filename
        if name not in in_package:
            real = os.path.realpath(name)
            in_package[name] = real if real.startswith(str(package) + os.sep) else None
        if in_package[name] is None:
            return None
        entered.add((in_package[name], code.co_firstlineno, code.co_qualname))
        return local

    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(None)
    return entered, hit


def main() -> int:
    package = Path(importlib.util.find_spec("sortlet_vmc").origin).resolve().parent
    ran = []

    def run():
        from sortlet_vmc import cli  # imported under the trace, so module bodies count

        with tempfile.TemporaryDirectory() as tmp:
            for argv in commands(Path(tmp), cli.PROBE_KINDS):
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    try:
                        code = cli.main(["--threads", "1", *argv])
                    except SystemExit as exit_:
                        code = exit_.code
                shown = [a.replace(tmp, "$TMP").replace(str(CONFIGS), "configs") for a in argv]
                ran.append((code, " ".join(shown)))

    entered, hit = trace(run, package)
    never, unrun = [], []
    for path in sorted(package.rglob("*.py")):
        real = os.path.realpath(path)
        rel = path.relative_to(package.parent)
        stack = [compile(path.read_text(encoding="utf-8"), real, "exec")]
        while stack:
            code = stack.pop()
            if (real, code.co_firstlineno, code.co_qualname) not in entered:
                never.append(f"{rel}:{code.co_firstlineno} {code.co_qualname}")
                continue  # nothing nested in it ran either
            missed = {line for line in own_lines(code) if (real, line) not in hit}
            if missed:
                unrun.append(f"{rel} {code.co_qualname}: {ranges(missed)}")
            stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))

    print(f"commands run ({len(ran)}), exit code first:")
    for code, shown in ran:
        print(f"  {code} sortlet-vmc --threads 1 {shown}")
    print(f"\nfunctions never entered ({len(never)}):")
    print("\n".join(f"  {entry}" for entry in sorted(never, key=_file_line)))
    print(f"\nlines never run in functions entered ({len(unrun)} functions):")
    print("\n".join(f"  {entry}" for entry in sorted(unrun)))
    print("\nkept although no command runs it:")
    for what, why in KEEP:
        print(f"  {what}: {why}")
    return 0


def _file_line(entry: str):
    where = entry.split(" ", 1)[0]
    path, line = where.rsplit(":", 1)
    return path, int(line)


if __name__ == "__main__":
    sys.exit(main())
