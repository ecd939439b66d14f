"""Property test of the command line's input rule.

`cli.main` runs in-process on generated flags and configs, each example in
a fresh temporary output root. Every example must end in one of three ways:

- exit 0;
- exit 2 (an input refused, by argparse or by cli.UsageError) with exactly
  one stderr line containing `error:` and no run directory;
- exit 1 for a run failure (a checkpoint that cannot be loaded or does not
  fit, a resume with nothing left to run, a diverged training) with one
  stderr line containing `error:`, or a probe that ran and printed FAIL.
  The H-atom checkpoint has run the one iteration every train example
  asks for, so a train resume that fits ends in the nothing-left failure;
  test_cli.py covers resumes that run on.

No example may raise anything else, and none may warn: the suite turns
warnings into errors. An example holds at most one fault, so that valid
runs are common enough to reach the code behind the checks. Sizes stay
small so that the test is quick: at most 4 walkers, 1 iteration, 2 probe
trials, 2 nuclei, 8 electrons, nuclear coordinates within ±20 Bohr, and
--threads at most os.cpu_count().
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import event, given, settings
from hypothesis import strategies as st

from sortlet_vmc.cli import OUT_ENV, main

H_ATOM = {"system": {"nuclei": [{"element": "H", "xyz": [0.0, 0.0, 0.0]}]}}
CORES = os.cpu_count() or 1
# the faults an example of each command may hold; a count fault is one
# of the command's count flags below its bound
FAULTS = {
    "train": ("config_value", "config_file", "count", "rate", "sortlets", "threads", "root",
              "checkpoint"),
    "evaluate": ("config_value", "config_file", "count", "sortlets", "threads", "root",
                 "checkpoint"),
    "probe": ("config_value", "config_file", "count", "sortlets", "probe_flag", "threads",
              "root"),
}
# the optional flags each probe reads besides --out, the spec its subcommand is
# checked against; nodes reads --vandermonde in place of --sortlets
PROBE_READS = {"antisymmetry": ("--seed", "--trials", "--sortlets"),
               "nodes": ("--seed", "--trials", "--sortlets"),
               "nodes --vandermonde": ("--seed", "--trials", "--vandermonde"),
               "smoothness": ("--seed", "--trials")}
COUNTED = {"train": ("--iters", "--walkers", "--burn-in", "--seed"),
           "evaluate": ("--estimates", "--equilibration", "--walkers", "--seed"),
           "probe": ("--trials", "--seed")}
NOT_CONFIGS = (b"\xff\xfe system", b"system:\n  nuclei: [", b"", b"[]",
               b"system:\n  nuclei: []\n", "directory", "missing")
NOT_NUMBERS = [True, False, "x", [1], {"a": 1}, None]
WRONG = st.sampled_from([*NOT_NUMBERS, 1.5, -2])
COORDINATE = st.one_of(st.floats(-20, 20, allow_nan=False), st.integers(-20, 20))


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    """Checkpoints of every kind a flag may name, by kind: a real one of an
    H-atom run at the default 16 heads (it fits an evaluate of the H atom
    and no other system), in its run directory and a copy outside any run,
    its first 300 bytes, an archive of unrelated arrays, a bare array, a
    directory and a path that does not exist."""
    root = tmp_path_factory.mktemp("checkpoints")
    config = root / "h.yaml"
    config.write_text(yaml.safe_dump(H_ATOM))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", str(config), "--iters", "1", "--walkers", "2", "--burn-in", "1",
                     "--out", str(root / "runs")]) == 0
    (real,) = root.glob("runs/run-*/checkpoints/step-00000001.npz")
    (root / "loose.npz").write_bytes(real.read_bytes())
    (root / "truncated.npz").write_bytes(real.read_bytes()[:300])
    with (root / "alien.npz").open("wb") as fh:
        np.savez(fh, format=np.arange(3), theta=np.zeros(2))
    with (root / "bare.npz").open("wb") as fh:
        np.save(fh, np.zeros(4))
    (root / "directory.npz").mkdir()
    return {"h_atom": real, "loose": root / "loose.npz", "truncated": root / "truncated.npz",
            "alien": root / "alien.npz", "bare": root / "bare.npz",
            "directory": root / "directory.npz", "missing": root / "missing.npz"}


@st.composite
def config_docs(draw, faulty: bool):
    """A valid config of one or two nuclei from H to Be (at most 8
    electrons); if `faulty`, with one wrong type or boolean, a missing or
    unknown key, charge 0 or coincident nuclei."""
    if not faulty and draw(st.booleans()):
        return H_ATOM
    nuclei = []
    for _ in range(draw(st.integers(1, 2))):
        nucleus = draw(st.one_of(
            st.fixed_dictionaries({"element": st.sampled_from(["H", "He", "Li", "Be"])}),
            st.fixed_dictionaries({"charge": st.integers(1, 4)})))
        nucleus["xyz"] = draw(st.lists(COORDINATE, min_size=3, max_size=3))
        if nuclei and nucleus["xyz"] == nuclei[0]["xyz"]:  # no coincident nuclei here
            nucleus["xyz"][0] += -1 if nucleus["xyz"][0] > 0 else 1
        nuclei.append(nucleus)
    doc = {"system": {"nuclei": nuclei}}
    if draw(st.booleans()):
        n_up = draw(st.integers(0, 4))
        doc["electrons"] = {"n_up": n_up, "n_down": draw(st.integers(int(n_up == 0), 4))}
    if draw(st.booleans()):
        doc["run"] = {"seed": draw(st.integers(0, 3))}
    if not faulty:
        return doc
    nucleus = nuclei[-1]
    fault = draw(st.sampled_from(["type", "missing", "unknown", "charge_0", "coincident"]))
    if fault == "type":
        where = draw(st.sampled_from(["element", "charge", "xyz", "coordinate", "n_up",
                                      "seed", "nuclei", "system", "electrons"]))
        value = draw(WRONG)
        if where in ("element", "charge"):
            nucleus.pop("element", None), nucleus.pop("charge", None)
            nucleus[where] = value
        elif where == "xyz":
            nucleus["xyz"] = value
        elif where == "coordinate":
            nucleus["xyz"][draw(st.integers(0, 2))] = draw(st.sampled_from(NOT_NUMBERS))
        elif where == "n_up":
            doc["electrons"] = {"n_up": value, "n_down": 1}
        elif where == "seed":
            doc["run"] = {"seed": value}
        elif where == "nuclei":
            doc["system"]["nuclei"] = value
        else:  # a blank (null) electrons section stands for none
            doc[where] = value if value is not None else "x"
    elif fault == "missing":
        where = draw(st.sampled_from(["system", "nuclei", "xyz", "element", "n_down"]))
        if where == "system":
            del doc["system"]
        elif where == "nuclei":
            del doc["system"]["nuclei"]
        elif where == "n_down":
            doc["electrons"] = {"n_up": 1}
        else:
            nucleus.pop(where, None), nucleus.pop("charge", None)
    elif fault == "unknown":
        draw(st.sampled_from([doc, doc["system"], nucleus]))["bogus"] = 1
    elif fault == "charge_0":
        nucleus.pop("element", None)
        nucleus["charge"] = 0
    else:
        nuclei.append(dict(nucleus))
    return doc


@st.composite
def invocations(draw):
    """(config, checkpoint kind, fault, argv) with {cfg} and {ckpt} to fill in."""
    command = draw(st.sampled_from(sorted(FAULTS)))
    fault = draw(st.sampled_from([None, None, None, *FAULTS[command]]))
    config = draw(st.sampled_from(NOT_CONFIGS) if fault == "config_file" else
                  config_docs(fault == "config_value").map(lambda d: yaml.safe_dump(d).encode()))
    ckpt = draw(st.sampled_from(["truncated", "alien", "bare", "directory", "missing"]
                                if fault == "checkpoint" else
                                ["loose"] if fault == "root" else ["h_atom", "loose"]))
    counted = draw(st.sampled_from(COUNTED[command])) if fault == "count" else None

    def count(flag, low=1, high=2):
        """The flag and its text: in [low, high], or below low if it is the fault."""
        return [flag, draw(st.sampled_from([str(low - 1), "-1"] if flag == counted
                                           else [str(v) for v in range(low, high + 1)]))]

    sortlets = (["--sortlets", draw(st.sampled_from(["0", "33", "40"]))] if fault == "sortlets"
                else draw(st.sampled_from([[], ["--sortlets", "2"]])))
    if command == "train":
        argv = ["train", "{cfg}", *count("--iters", 1, 1), *count("--walkers", 1, 4),
                *count("--burn-in", 0, 2), *count("--seed", 0, 3), *sortlets]
        if fault == "rate":
            argv += ["--lr", draw(st.sampled_from(["nan", "inf", "-inf", "0", "-1e-3"]))]
        elif draw(st.booleans()):  # finite rates up to 1e300 are valid
            argv += ["--lr", repr(draw(st.floats(1e-6, 1e300)))]
        if fault == "checkpoint" or draw(st.booleans()):
            argv += ["--resume", "{ckpt}"]
    elif command == "evaluate":
        argv = ["evaluate", "{cfg}", "{ckpt}", *count("--estimates"),
                *count("--equilibration", 0, 2), *count("--walkers", 1, 4),
                *count("--seed", 0, 3), *sortlets]
    else:
        probe = draw(st.sampled_from(sorted(PROBE_READS)))
        reads = PROBE_READS[probe]
        argv = ["probe", *probe.split(), "{cfg}"]
        if "--trials" in reads:
            argv += count("--trials")
        if "--seed" in reads:
            argv += count("--seed", 0, 3)
        if "--sortlets" in reads or fault == "sortlets":
            argv += sortlets
        comparators = ("--vandermonde",)
        # plain nodes takes a comparator in place of --sortlets, so only with it is one a fault
        unread = [f for f in ("--seed", "--trials", "--sortlets", *comparators) if f not in reads
                  and not (probe == "nodes" and f in comparators and "--sortlets" not in argv)]
        if fault == "probe_flag" and unread:
            flag = draw(st.sampled_from(unread))
            argv += [flag] if flag in comparators else [flag, "1"]
        elif fault == "probe_flag":
            fault = None
    if fault == "threads":
        argv = ["--threads", draw(st.sampled_from(["0", "-1"])), *argv]
    elif draw(st.booleans()):
        argv = ["--threads", draw(st.sampled_from(sorted({"1", str(CORES)}))), *argv]
    return config, ckpt, fault, argv


def run(argv):
    """(exit code, stdout, stderr) of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(invocation=invocations(), by_environment=st.booleans())
def test_every_input_exits_0_or_is_refused_in_one_line(checkpoints, invocation,
                                                       by_environment):
    config, ckpt, fault, argv = invocation
    environ = dict(os.environ)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = tmp / "config.yaml"
        if config == "directory":
            cfg.mkdir()
        elif config != "missing":
            cfg.write_bytes(config)
        out = tmp / "runs"
        if fault == "root":
            (tmp / "blocker").write_text("a file\n")
            out = tmp / "blocker" / "runs"
        argv = [a.format(cfg=cfg, ckpt=checkpoints[ckpt]) for a in argv]
        if by_environment:
            os.environ[OUT_ENV] = str(out)
        else:
            argv += ["--out", str(out)]
        try:
            code, stdout, stderr = run(argv)
        finally:
            os.environ.clear()
            os.environ.update(environ)
        run_dirs = list(out.glob("run-*")) if out.is_dir() else []
    event(f"{fault or 'no fault'}: exit {code}")
    errors = [line for line in stderr.splitlines() if "error:" in line]
    assert code in (0, 1, 2), (argv, code, stderr)
    if fault is not None:  # a bad checkpoint fails the run; any other fault is refused
        assert code == (1 if fault == "checkpoint" else 2), (argv, code, stderr)
    if code == 2:
        assert len(errors) == 1 and not run_dirs, (argv, stderr, run_dirs)
    elif code == 1:
        assert len(errors) == 1 or (not stderr and stdout.endswith(": FAIL\n")), (argv, stderr)
    else:
        assert not stderr, (argv, stderr)
