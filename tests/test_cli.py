import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from sortlet_vmc import cli
from sortlet_vmc.ansatz import SortletWavefunction
from sortlet_vmc.cli import OUT_ENV, THREAD_VARS, main
from sortlet_vmc.geometry import parse_config
from sortlet_vmc.optimizer import config_fingerprint

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

H_CFG = """
system:
  nuclei:
    - element: H
      xyz: [0.0, 0.0, 0.0]
run:
  seed: 0
"""


@pytest.fixture
def h_config(tmp_path):
    p = tmp_path / "h.yaml"
    p.write_text(H_CFG)
    return p


def refused(argv, capsys) -> str:
    """main(argv) refuses its input: SystemExit(2) and one stderr line,
    starting `error:`, which is returned."""
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    return err


def train_args(h_config, out, extra=()):
    return ["train", str(h_config), "--iters", "4", "--walkers", "8",
            "--burn-in", "10", "--sortlets", "1", "--checkpoint-every", "2",
            "--out", str(out), *extra]


def test_train_writes_run_directory(h_config, tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(train_args(h_config, out)) == 0
    run_dirs = list(out.glob("run-*"))
    assert len(run_dirs) == 1
    lines = (run_dirs[0] / "metrics.ndjson").read_text().splitlines()
    assert len(lines) == 4
    assert (run_dirs[0] / "checkpoints" / "step-00000004.npz").exists()
    assert "final energy" in capsys.readouterr().out


def test_train_with_an_empty_spin_sector_at_the_default_walkers(tmp_path):
    """He with both electrons up trains at the default 512 walkers: the
    empty down sector is never handed to canonical_order's network."""
    config = tmp_path / "he.yaml"
    config.write_text(H_CFG.replace("element: H", "element: He")
                      + "electrons: {n_up: 2, n_down: 0}\n")
    out = tmp_path / "runs"
    assert main(["train", str(config), "--iters", "1", "--burn-in", "1", "--out", str(out)]) == 0
    assert len(list(out.glob("run-*/checkpoints/step-00000001.npz"))) == 1


def test_evaluate_roundtrip_and_hash_refusal(h_config, tmp_path, capsys):
    out = tmp_path / "runs"
    main(train_args(h_config, out))
    ckpt = next(out.glob("run-*/checkpoints/step-00000004.npz"))
    ok = main(["evaluate", str(h_config), str(ckpt), "--sortlets", "1",
               "--estimates", "3", "--equilibration", "5", "--walkers", "8",
               "--out", str(out)])
    assert ok == 0
    assert "energy" in capsys.readouterr().out
    # a different ansatz width must be refused by the stored model hash
    bad = main(["evaluate", str(h_config), str(ckpt), "--sortlets", "2",
                "--estimates", "3", "--equilibration", "5", "--walkers", "8",
                "--out", str(out)])
    assert bad == 1
    assert "different model" in capsys.readouterr().err


def test_evaluate_reports_into_the_run_directory_of_its_checkpoint(h_config, tmp_path):
    out = tmp_path / "runs"
    assert main(train_args(h_config, out)) == 0
    ckpt = next(out.glob("run-*/checkpoints/step-00000004.npz"))
    assert main(["evaluate", str(h_config), str(ckpt), "--sortlets", "1",
                 "--estimates", "3", "--equilibration", "5", "--walkers", "8",
                 "--out", str(out)]) == 0
    run_dir = ckpt.parent.parent
    assert (run_dir / "metrics.ndjson").exists()
    record = json.loads((run_dir / "report-evaluate.txt").read_text().splitlines()[0])
    assert record["checkpoint"] == str(ckpt)
    assert [p.parent for p in out.glob("run-*/report-evaluate.txt")] == [run_dir]
    # a checkpoint outside a run reports into the directory of its model fingerprint
    loose = shutil.copy(ckpt, tmp_path / "loose.npz")
    assert main(["evaluate", str(h_config), str(loose), "--sortlets", "1",
                 "--estimates", "3", "--equilibration", "5", "--walkers", "8",
                 "--out", str(out)]) == 0
    wf = SortletWavefunction(parse_config(H_CFG).system, n_sortlets=1, seed=0)
    assert (out / f"run-{config_fingerprint(wf.system, wf)}" / "report-evaluate.txt").exists()


def test_evaluate_of_a_checkpoint_with_a_nan_theta_is_a_one_line_error(h_config, tmp_path,
                                                                       capsys):
    """No walker has a nonzero ψ at a NaN θ, so the evaluation cannot start:
    one error line, exit 1, no energy line and no report."""
    out = tmp_path / "runs"
    assert main(train_args(h_config, out)) == 0
    with np.load(next(out.glob("run-*/checkpoints/step-00000004.npz"))) as z:
        arrays = dict(z)
    arrays["theta"] = np.full_like(arrays["theta"], np.nan)
    ckpt = tmp_path / "nan.npz"
    np.savez(ckpt, **arrays)
    capsys.readouterr()
    assert main(["evaluate", str(h_config), str(ckpt), "--sortlets", "1", "--walkers", "8",
                 "--estimates", "3", "--equilibration", "5", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: could not find nonzero wavefunction values to start from\n"
    assert captured.out == ""
    assert not list(tmp_path.rglob("report-evaluate.txt"))


# a probe run that passes
PROBE_LI = ["probe", "antisymmetry", str(CONFIGS / "li.yaml"), "--trials", "5"]


def test_probe_reports_append(tmp_path):
    out = tmp_path / "runs"
    for _ in range(2):
        assert main([*PROBE_LI, "--out", str(out)]) == 0
    report = next(out.glob("run-*/report-antisymmetry.txt"))
    assert len(report.read_text().splitlines()) == 2


def test_configs_that_differ_in_a_comment_share_one_probe_directory(tmp_path):
    """A probe's run directory is named by the model fingerprint of the
    system and the ansatz the flags give, not by the config's bytes."""
    out = tmp_path / "runs"
    text = (CONFIGS / "li.yaml").read_text()
    for name, body in (("a.yaml", text), ("b.yaml", "# the same atom\n" + text)):
        (tmp_path / name).write_text(body)
        assert main(["probe", "antisymmetry", str(tmp_path / name), "--trials", "5",
                     "--out", str(out)]) == 0
    wf = SortletWavefunction(parse_config(text).system, seed=0)
    (run_dir,) = out.glob("run-*")
    assert run_dir.name == f"run-{config_fingerprint(wf.system, wf)}"
    assert len((run_dir / "report-antisymmetry.txt").read_text().splitlines()) == 2


def test_output_root_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv(OUT_ENV, str(tmp_path / "envruns"))
    assert main(PROBE_LI) == 0
    assert list((tmp_path / "envruns").glob("run-*/report-antisymmetry.txt"))


def test_threads_flag_pins_blas_pools(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "environ", os.environ.copy())
    main(["--threads", "3", *PROBE_LI, "--out", str(tmp_path / "runs")])
    for var in THREAD_VARS:
        assert os.environ[var] == "3"


def test_importing_the_cli_loads_no_numpy():
    """--threads pins BLAS through the environment, which works only if
    numpy loads after it: importing the package and the CLI must not load it."""
    code = "import sys, sortlet_vmc, sortlet_vmc.cli; print('numpy' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=cli_env(), check=True,
                         capture_output=True, text=True, timeout=60)
    assert run.stdout == "False\n"


def cli_env():
    """The environment of a `python -m sortlet_vmc.cli` child: this package first."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def records(metrics: Path):
    """The metric records of a run, less their wall-clock `seconds`."""
    lines = [json.loads(line) for line in metrics.read_text().splitlines()]
    for line in lines:
        line.pop("seconds")
    return lines


def tree(root: Path):
    """Every path under `root`, with the bytes of each file."""
    return {p: p.is_file() and p.read_bytes() for p in sorted(root.rglob("*"))}


def test_training_is_bitwise_independent_of_blas_threads(tmp_path):
    """Training under --threads 1 and --threads 2 gives the same bits.

    The pin only takes effect before numpy loads, so each run is its own
    process. With 640 Li walkers the reductions over all walkers in the
    parameter gradient are large enough for OpenBLAS to spread them over
    both threads.
    """
    config = tmp_path / "li.yaml"
    config.write_text(H_CFG.replace("element: H", "element: Li"))
    env = cli_env()
    runs = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-m", "sortlet_vmc.cli", "--threads", str(threads),
                        "train", str(config), "--iters", "3", "--walkers", "640",
                        "--burn-in", "5", "--checkpoint-every", "3", "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        (run_dir,) = out.glob("run-*")
        with np.load(run_dir / "checkpoints" / "step-00000003.npz") as z:
            runs.append((z["theta"], z["positions"], records(run_dir / "metrics.ndjson")))
    (theta1, pos1, rec1), (theta2, pos2, rec2) = runs
    assert np.array_equal(theta1, theta2)
    assert np.array_equal(pos1, pos2)
    assert len(rec1) == 3 and rec1 == rec2


def test_missing_config_is_a_usage_error(tmp_path, capsys):
    config = tmp_path / "absent.yaml"
    err = refused(["probe", "antisymmetry", str(config), "--out", str(tmp_path / "runs")],
                  capsys)
    assert f"bad config {config}: No such file or directory" in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("kind", ["directory", "not_utf8"])
def test_a_config_that_cannot_be_read_is_a_usage_error(tmp_path, capsys, kind):
    config = tmp_path / "config.yaml"
    if kind == "directory":
        config.mkdir()
    else:
        config.write_bytes(H_CFG.encode().replace(b"element: H", b"element: \xff"))
    err = refused(["probe", "antisymmetry", str(config), "--out", str(tmp_path / "runs")],
                  capsys)
    assert str(config) in err
    assert not (tmp_path / "runs").exists()


def test_malformed_config_is_a_usage_error(tmp_path, capsys):
    p = tmp_path / "bad.yaml"
    p.write_text("system:\n  nuclei: []\n")
    err = refused(["probe", "antisymmetry", str(p), "--out", str(tmp_path / "runs")], capsys)
    assert f"bad config {p}: system.nuclei:" in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("xyz, reason", [
    ("[" + "9" * 401 + ", 0, 0]", "system.nuclei[1].xyz: coordinates must fit a float"),
    ("[1.0e+200, 0, 0]", "system: nuclei 0 and 1 are too far apart"),
], ids=["integer-past-the-float-range", "squared-distance-past-the-float-range"])
@pytest.mark.parametrize("command", ["train", "probe"])
def test_coordinates_past_the_float_range_are_a_bad_config(tmp_path, capsys, xyz, reason,
                                                           command):
    """A coordinate no float holds, or two nuclei whose squared distance
    overflows, is refused as a bad config before any work: one error line,
    exit 2, no run directory and no warning (warnings are errors here)."""
    p = tmp_path / "far.yaml"
    p.write_text(H_CFG.replace("run:", f"    - element: H\n      xyz: {xyz}\nrun:"))
    out = tmp_path / "runs"
    argv = (train_args(p, out) if command == "train"
            else ["probe", "antisymmetry", str(p), "--trials", "10", "--out", str(out)])
    err = refused(argv, capsys)
    assert err.startswith(f"error: bad config {p}: {reason}")
    assert not out.exists()


def test_unknown_probe_kind_rejected_by_parser(h_config, tmp_path, capsys):
    """An unknown kind, or one of the config-blind kinds the CLI once had,
    is argparse's invalid choice, and --single-sortlet (now --sortlets 1) an
    unrecognized argument: exit 2, nothing written."""
    out = tmp_path / "runs"
    for kind in ("slater", "variational", "gradcheck"):
        with pytest.raises(SystemExit) as exit_:
            main(["probe", kind, str(h_config), "--out", str(out)])
        assert exit_.value.code == 2
        assert f"argument kind: invalid choice: '{kind}'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exit_:
        main(["probe", "nodes", str(h_config), "--single-sortlet", "--out", str(out)])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --single-sortlet" in capsys.readouterr().err
    assert not out.exists()


def test_train_resume_from_cli_checkpoint(h_config, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    main(train_args(h_config, out_a))
    full = next(out_a.glob("run-*/checkpoints/step-00000004.npz"))
    mid = next(out_a.glob("run-*/checkpoints/step-00000002.npz"))
    assert main(train_args(h_config, out_b, extra=["--resume", str(mid)])) == 0
    resumed = next(out_b.glob("run-*/checkpoints/step-00000004.npz"))
    with np.load(full) as za, np.load(resumed) as zb:
        assert np.array_equal(za["theta"], zb["theta"])
        assert np.array_equal(za["positions"], zb["positions"])


@pytest.mark.parametrize("damage", ["missing", "truncated"])
@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_unreadable_checkpoint_is_a_one_line_error(h_config, tmp_path, capsys, command, damage):
    ckpt = tmp_path / "bad.npz"
    if damage == "truncated":
        main(train_args(h_config, tmp_path / "good"))
        good = next((tmp_path / "good").glob("run-*/checkpoints/step-00000004.npz"))
        ckpt.write_bytes(good.read_bytes()[:300])
    capsys.readouterr()
    if command == "train":
        argv = train_args(h_config, tmp_path / "runs", extra=["--resume", str(ckpt)])
    else:
        argv = ["evaluate", str(h_config), str(ckpt), "--sortlets", "1",
                "--out", str(tmp_path / "runs")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(ckpt) in err.splitlines()[0]
    assert "Traceback" not in err


def test_refused_resume_names_no_missing_directory(h_config, tmp_path, capsys):
    """A truncated --resume checkpoint fails before the run directory is
    made, so the error names no partial artifacts."""
    main(train_args(h_config, tmp_path / "good"))
    good = next((tmp_path / "good").glob("run-*/checkpoints/step-00000004.npz"))
    ckpt = tmp_path / "bad.npz"
    ckpt.write_bytes(good.read_bytes()[:300])
    capsys.readouterr()
    runs = tmp_path / "runs"
    assert main(train_args(h_config, runs, extra=["--resume", str(ckpt)])) == 1
    err = capsys.readouterr().err
    assert not runs.exists()
    assert "partial artifacts" not in err and str(runs) not in err


@pytest.mark.parametrize("argv", [
    ["train", "{cfg}", "--iters", "0"],
    ["train", "{cfg}", "--walkers", "0"],
    ["evaluate", "{cfg}", "ckpt.npz", "--estimates", "0"],
    ["evaluate", "{cfg}", "ckpt.npz", "--walkers", "-1"],
    ["probe", "nodes", "{cfg}", "--trials", "0"],
    ["probe", "antisymmetry", "{cfg}", "--trials", "0"],
    ["--threads", "0", "probe", "antisymmetry", "{cfg}"],
], ids=["iters", "train_walkers", "estimates", "evaluate_walkers", "nodes_trials",
        "antisymmetry_trials", "threads"])
def test_count_flags_below_one_are_usage_errors(h_config, capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main([a.format(cfg=h_config) for a in argv])
    assert exit_.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["train", "{cfg}", "--sortlets", "0"],
    ["evaluate", "{cfg}", "ckpt.npz", "--sortlets", "0"],
    ["probe", "antisymmetry", "{cfg}", "--sortlets", "0"],
    ["train", "{cfg}", "--seed", "-1"],
    ["evaluate", "{cfg}", "ckpt.npz", "--seed", "-1"],
    ["probe", "antisymmetry", "{cfg}", "--seed", "-1"],
    ["train", "{cfg}", "--burn-in", "-1"],
    ["train", "{cfg}", "--checkpoint-every", "-1"],
    ["evaluate", "{cfg}", "ckpt.npz", "--equilibration", "-1"],
    ["train", "{cfg}", "--lr", "nan"],
    ["train", "{cfg}", "--lr", "inf"],
    ["train", "{cfg}", "--lr", "0"],
    ["train", "{cfg}", "--lr", "-1"],
], ids=["train_sortlets", "evaluate_sortlets", "probe_sortlets", "train_seed",
        "evaluate_seed", "probe_seed", "burn_in", "checkpoint_every", "equilibration",
        "lr_nan", "lr_inf", "lr_zero", "lr_negative"])
def test_numeric_flags_below_their_bound_are_usage_errors(h_config, tmp_path, capsys, argv):
    out = tmp_path / "runs"
    with pytest.raises(SystemExit) as exit_:
        main([a.format(cfg=h_config) for a in argv] + ["--out", str(out)])
    assert exit_.value.code == 2
    bound = "must be finite and greater than 0" if "--lr" in argv else "must be at least"
    assert bound in capsys.readouterr().err
    assert not out.exists()


PAST_THE_MAXIMUM = "error: --sortlets 40: at most 32 heads"


@pytest.mark.parametrize("argv, error", [
    (["train", "{cfg}", "--iters", "1", "--walkers", "4"], PAST_THE_MAXIMUM),
    (["evaluate", "{cfg}", "ckpt.npz"], PAST_THE_MAXIMUM),
    (["probe", "antisymmetry", "{cfg}", "--trials", "4"], PAST_THE_MAXIMUM),
    (["probe", "nodes", "{cfg}", "--trials", "1"], PAST_THE_MAXIMUM),
    (["probe", "nodes", "{cfg}", "--trials", "1", "--vandermonde"],
     "sortlet-vmc probe nodes: error: argument --sortlets: not allowed with argument "
     "--vandermonde"),
    (["probe", "smoothness", "{cfg}", "--trials", "1"],
     "sortlet-vmc: error: unrecognized arguments: --sortlets 40"),
], ids=["train", "evaluate", "probe", "nodes", "nodes_vandermonde", "smoothness"])
def test_sortlets_past_the_maximum_is_a_one_line_error(h_config, tmp_path, capsys, argv, error):
    """--sortlets past backbone.MAX_SORTLETS is refused in one `error:` line;
    a probe that evaluates one head does not read the flag, and argparse
    refuses it after its usage lines."""
    out = tmp_path / "runs"
    with pytest.raises(SystemExit) as exit_:
        main([a.format(cfg=h_config) for a in argv] + ["--sortlets", "40", "--out", str(out)])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [error]
    assert err.endswith(error + "\n")
    assert not out.exists()


def test_probe_nodes_hands_sortlets_to_its_mixture(h_config, tmp_path, monkeypatch):
    from sortlet_vmc import probes

    seen = []
    monkeypatch.setattr(probes, "node_crossing_suite", lambda wf, **kw: seen.append(
        (wf.n_sortlets, kw["trials"])) or {"passed": True})
    argv = ["probe", "nodes", str(h_config), "--out", str(tmp_path / "runs")]
    assert main(argv) == 0 and main(argv + ["--sortlets", "3", "--trials", "500"]) == 0
    assert seen == [(16, 100), (3, 500)]


@pytest.mark.parametrize("argv, heads", [
    (["smoothness"], 1),
    (["nodes", "--vandermonde"], 1),
    (["nodes", "--sortlets", "3"], 3),
    (["antisymmetry"], 16),
], ids=["smoothness", "nodes_vandermonde", "nodes_sortlets_3", "antisymmetry"])
def test_a_probe_reports_into_the_directory_of_the_model_it_evaluates(tmp_path, monkeypatch,
                                                                     argv, heads):
    """The run directory of a probe is named by the fingerprint of the very
    wavefunction the probe is handed: --sortlets heads where it reads that
    flag, else one."""
    from sortlet_vmc import probes

    seen = []
    suite = {"antisymmetry": "antisymmetry_suite", "nodes": "node_crossing_suite",
             "smoothness": "smoothness_probe"}[argv[0]]
    monkeypatch.setattr(probes, suite, lambda wf, **kw: seen.append(wf) or {"passed": True})
    out = tmp_path / "runs"
    assert main(["probe", argv[0], str(CONFIGS / "li.yaml"), *argv[1:], "--out", str(out)]) == 0
    cfg = parse_config((CONFIGS / "li.yaml").read_text())
    model = SortletWavefunction(cfg.system, n_sortlets=heads, seed=cfg.run.seed)
    (report,) = out.glob(f"run-*/report-{argv[0]}.txt")
    assert report.parent.name == f"run-{config_fingerprint(cfg.system, model)}"
    (wf,) = seen
    assert config_fingerprint(wf.system, wf) == config_fingerprint(cfg.system, model)


NODES_ONLY = [kind for kind in cli.PROBE_KINDS if kind != "nodes"]


@pytest.mark.parametrize("argv, error", [
    (("nodes", "--vandermonde", "--sortlets", "3"),
     "error: argument --sortlets: not allowed with argument --vandermonde"),
    (("smoothness", "--sortlets", "3"), "error: unrecognized arguments: --sortlets 3"),
    *(((kind, "--vandermonde"), "error: unrecognized arguments: --vandermonde")
      for kind in NODES_ONLY),
], ids=["nodes_vandermonde", "smoothness", *(kind + "_vandermonde" for kind in NODES_ONLY)])
def test_probes_without_a_mixture_refuse_sortlets(tmp_path, capsys, argv, error):
    """A probe kind's subcommand has only the flags the probe reads, so
    argparse refuses any other instead of ignoring it: one that evaluates
    one head refuses even an in-range --sortlets, and every probe but nodes
    refuses nodes' --vandermonde. One error line and exit 2 before the
    config is read (it does not exist here), no report."""
    out = tmp_path / "runs"
    with pytest.raises(SystemExit) as exit_:
        main(["probe", argv[0], str(tmp_path / "absent.yaml"), *argv[1:], "--out", str(out)])
    assert exit_.value.code == 2
    (line,) = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert line.endswith(error)
    assert not out.exists()


@pytest.mark.parametrize("kind", ["antisymmetry", "nodes", "smoothness"])
def test_exchange_probes_refuse_a_system_without_a_same_spin_pair(h_config, tmp_path, capsys,
                                                                 kind):
    out = tmp_path / "runs"
    err = refused(["probe", kind, str(h_config), "--trials", "4", "--out", str(out)], capsys)
    assert err.startswith(f"error: probe {kind}:")
    assert "same spin" in err or "spin sector" in err
    assert not out.exists()


@pytest.mark.parametrize("kind", cli.PROBE_KINDS)
def test_every_probe_kind_reports_one_json_line_on_a_shipped_config(tmp_path, capsys, kind):
    out = tmp_path / "runs"
    assert main(["probe", kind, str(CONFIGS / "li.yaml"), "--trials", "5", "--out", str(out)]) == 0
    (report,) = out.glob(f"run-*/report-{kind}.txt")
    (line,) = report.read_text().splitlines()
    assert json.loads(line)["passed"] is True
    summary = json.loads(capsys.readouterr().out.splitlines()[0])
    assert summary["passed"] is True
    if kind == "antisymmetry":
        assert summary["dead_points"] == 0


def test_runs_that_differ_in_lr_get_their_own_run_directories(h_config, tmp_path):
    out = tmp_path / "runs"
    for lr in ("1e-3", "5e-2"):
        assert main(train_args(h_config, out, extra=["--lr", lr])) == 0
    run_dirs = sorted(out.glob("run-*"))
    assert len(run_dirs) == 2
    for run_dir in run_dirs:
        assert [r["iter"] for r in records(run_dir / "metrics.ndjson")] == [0, 1, 2, 3]


def test_a_fresh_run_into_a_directory_with_a_checkpoint_is_refused(h_config, tmp_path,
                                                                   capsys):
    out = tmp_path / "runs"
    assert main(train_args(h_config, out)) == 0
    (run_dir,) = out.glob("run-*")
    before = tree(run_dir)
    capsys.readouterr()
    err = refused(train_args(h_config, out), capsys)
    assert f"--resume {run_dir / 'checkpoints' / 'step-00000004.npz'}" in err
    assert tree(run_dir) == before


@pytest.mark.parametrize("target", ["new", "existing"])
def test_resume_under_another_lr_is_refused(h_config, tmp_path, capsys, target):
    """Whether or not the run directory of the other --lr exists, the
    refusal is one error line and writes nothing."""
    out = tmp_path / "runs"
    main(train_args(h_config, out))
    (mid,) = out.glob("run-*/checkpoints/step-00000002.npz")
    if target == "existing":
        main(train_args(h_config, out, extra=["--lr", "5e-2"]))
    before = tree(out)
    capsys.readouterr()
    assert main(train_args(h_config, out, extra=["--resume", str(mid), "--lr", "5e-2"])) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "different configuration" in err
    assert tree(out) == before


@pytest.mark.parametrize("iters", ["2", "1"])
def test_resume_with_nothing_left_to_run_fails(h_config, tmp_path, capsys, iters):
    """A checkpoint that has run every iteration asked for (--iters 2 from
    step 2) or more (--iters 1) fails the run: exit 1, one error line, no
    energy line, and the run directory as it was, every metric record kept."""
    out = tmp_path / "runs"
    main(train_args(h_config, out))
    (mid,) = out.glob("run-*/checkpoints/step-00000002.npz")
    before = tree(out)
    capsys.readouterr()
    assert main(train_args(h_config, out, extra=["--resume", str(mid), "--iters", iters])) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    assert "nothing left to run" in captured.err and str(mid) in captured.err
    assert "final energy" not in captured.out
    assert tree(out) == before


def test_a_killed_run_ends_as_an_uninterrupted_one(tmp_path):
    """A Li run is SIGKILLed after its first metric record but before its
    first checkpoint and run again from scratch, and SIGKILLed after a
    checkpoint and continued with --resume from the newest one. Either way
    it ends with the final checkpoint of an uninterrupted run, and one
    metric record per iteration equal to that run's but for `seconds`."""
    argv = [sys.executable, "-m", "sortlet_vmc.cli", "--threads", "1", "train",
            str(CONFIGS / "li.yaml"), "--iters", "6", "--walkers", "8", "--burn-in", "20",
            "--checkpoint-every", "2"]
    env = cli_env()

    def run(out, *extra):
        subprocess.run([*argv, "--out", str(out), *extra], env=env, check=True,
                       capture_output=True, timeout=300)

    run(tmp_path / "full")
    (full,) = (tmp_path / "full").glob("run-*")

    def killed(out, stage):
        """Start the run under `out` and SIGKILL it as soon as stage(run_dir)
        holds. A run that outpaced the poll is started again."""
        run_dir = out / full.name
        for _ in range(20):
            shutil.rmtree(out, ignore_errors=True)
            proc = subprocess.Popen([*argv, "--out", str(out)], env=env,
                                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            try:
                deadline = time.monotonic() + 300
                while proc.poll() is None and not stage(run_dir) and time.monotonic() < deadline:
                    time.sleep(0.0005)
                proc.send_signal(signal.SIGKILL)
            finally:
                proc.wait(timeout=60)
            if proc.returncode == -signal.SIGKILL and stage(run_dir):
                return run_dir
        pytest.fail(f"no run was caught at {stage.__name__}")

    def checkpoints(run_dir):
        return sorted(run_dir.glob("checkpoints/step-*.npz"))

    def before_the_first_checkpoint(run_dir):
        metrics = run_dir / "metrics.ndjson"
        return (not checkpoints(run_dir) and metrics.exists()
                and "\n" in metrics.read_text())

    def between_checkpoints(run_dir):
        done = checkpoints(run_dir)
        return bool(done) and done[-1].name != "step-00000006.npz"

    fresh = killed(tmp_path / "fresh", before_the_first_checkpoint)
    run(tmp_path / "fresh")
    resumed = killed(tmp_path / "resumed", between_checkpoints)
    run(tmp_path / "resumed", "--resume", str(checkpoints(resumed)[-1]))
    for rerun in (fresh, resumed):
        assert records(rerun / "metrics.ndjson") == records(full / "metrics.ndjson")
        final = "checkpoints/step-00000006.npz"
        with np.load(full / final) as want, np.load(rerun / final) as got:
            assert want.files == got.files
            for name in want.files:
                assert np.array_equal(want[name], got[name]), name


def strict_json(line: str):
    """json.loads that refuses NaN and infinities, which JSON cannot hold."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(line, parse_constant=refuse)


def test_an_evaluate_of_one_walker_reports_its_stderr_as_null(h_config, tmp_path):
    out = tmp_path / "runs"
    assert main(train_args(h_config, out)) == 0
    ckpt = next(out.glob("run-*/checkpoints/step-00000004.npz"))
    assert main(["evaluate", str(h_config), str(ckpt), "--sortlets", "1", "--walkers", "1",
                 "--estimates", "3", "--equilibration", "5", "--out", str(out)]) == 0
    (line,) = (ckpt.parent.parent / "report-evaluate.txt").read_text().splitlines()
    record = strict_json(line)
    assert record["stderr"] is None and np.isfinite(record["energy"])


def test_one_walker_reports_its_uncertainty_as_unknown(h_config, tmp_path, capsys):
    """One sample has no spread: a one-walker train records stderr and
    variance as null and logs the energy with (?), and a one-chain evaluate
    prints and records it with (?)."""
    out = tmp_path / "runs"
    assert main(train_args(h_config, out, extra=["--walkers", "1"])) == 0
    (run_dir,) = out.glob("run-*")
    for record in map(strict_json, (run_dir / "metrics.ndjson").read_text().splitlines()):
        assert record["stderr"] is None and record["variance"] is None
    assert "(?)  acc" in capsys.readouterr().out
    ckpt = run_dir / "checkpoints" / "step-00000004.npz"
    assert main(["evaluate", str(h_config), str(ckpt), "--sortlets", "1", "--walkers", "1",
                 "--estimates", "3", "--equilibration", "5", "--out", str(out)]) == 0
    assert "(?) Ha  (1 chains x 3 estimates)" in capsys.readouterr().out
    (line,) = (run_dir / "report-evaluate.txt").read_text().splitlines()
    assert strict_json(line)["formatted"].endswith("(?)")


@pytest.mark.parametrize("iters, code", [(1, 0), (3, 1)])
def test_an_overflowing_update_ends_without_a_warning(tmp_path, capsys, iters, code):
    """At --lr 1e300 the first Adam step overflows θ. The run ends as it
    would without the overflow (one iteration: exit 0; three: the second
    diverges, one error line, exit 1), and numpy warns of nothing on the
    way (warnings are errors under this suite)."""
    argv = ["train", str(CONFIGS / "li.yaml"), "--lr", "1e300", "--iters", str(iters),
            "--walkers", "4", "--burn-in", "1", "--out", str(tmp_path / "runs")]
    assert main(argv) == code
    err = capsys.readouterr().err
    if code:
        assert err == "error: training diverged at iteration 1: 0/4 finite local energies\n"


def test_a_smoothness_probe_without_single_ties_reports_null(tmp_path, capsys, monkeypatch):
    """With no exchange path found, worst_one_sided_rel is infinite; the
    report line and the printed summary carry it as null."""
    from sortlet_vmc import probes

    monkeypatch.setattr(probes, "_exchange_paths", lambda *args, **kwargs: iter(()))
    out = tmp_path / "runs"
    assert main(["probe", "smoothness", str(CONFIGS / "li.yaml"), "--trials", "1",
                 "--out", str(out)]) == 1
    (report,) = out.glob("run-*/report-smoothness.txt")
    (line,) = report.read_text().splitlines()
    summary = capsys.readouterr().out.splitlines()[0]
    for record in (strict_json(line), strict_json(summary)):
        assert record["single_tie_trials"] == 0 and record["worst_one_sided_rel"] is None


def test_a_nodes_probe_without_enough_paths_is_a_run_failure(tmp_path, capsys, monkeypatch):
    """With no off-node exchange path drawn, probe nodes prints one error
    line and exits 1, and writes no report."""
    from sortlet_vmc import probes

    monkeypatch.setattr(probes, "_exchange_paths", lambda *args, **kwargs: iter(()))
    out = tmp_path / "runs"
    assert main(["probe", "nodes", str(CONFIGS / "li.yaml"), "--trials", "1",
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: probe nodes: could not draw enough off-node paths\n"
    assert captured.out == "" and not list(out.glob("run-*/report-*"))


@pytest.mark.parametrize("argv", [
    train_args("{cfg}", "{out}"),
    ["probe", "antisymmetry", "{cfg}", "--trials", "10", "--out", "{out}"],
], ids=["train", "probe"])
@pytest.mark.parametrize("where", ["flag", "environment", "under_a_file"])
def test_an_output_root_that_is_a_file_is_a_usage_error(h_config, tmp_path, capsys,
                                                        monkeypatch, argv, where):
    """Refused before any work: one error line naming the root, exit 2,
    nothing written."""
    blocker = tmp_path / "blocker"
    blocker.write_text("a file\n")
    root = blocker / "runs" if where == "under_a_file" else blocker
    argv = [a.format(cfg=h_config, out=root) for a in argv]
    if where == "environment":
        i = argv.index("--out")
        del argv[i:i + 2]
        monkeypatch.setenv(OUT_ENV, str(root))
    before = tree(tmp_path)
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: output root {root} is not a directory\n"
    assert captured.out == ""
    assert tree(tmp_path) == before


def test_a_checkpoint_holding_the_older_layout_field_still_loads(h_config, tmp_path, capsys):
    """A checkpoint as older builds wrote it, with a layout_json field that
    is no longer written or read, resumes to the same final arrays and
    evaluates to the same energy line as the checkpoint without it, and a
    mismatched model is still refused."""
    from sortlet_vmc.ansatz import SortletWavefunction
    from sortlet_vmc.geometry import parse_config

    main(train_args(h_config, tmp_path / "a"))
    (mid,) = (tmp_path / "a").glob("run-*/checkpoints/step-00000002.npz")
    with np.load(mid) as z:
        arrays = dict(z)
    assert "layout_json" not in arrays
    store = SortletWavefunction(parse_config(H_CFG).system, n_sortlets=1, seed=0).store
    legacy = tmp_path / "legacy.npz"
    with legacy.open("wb") as fh:
        np.savez(fh, format=arrays.pop("format"),
                 layout_json=np.str_(json.dumps(store.layout())), **arrays)

    finals, lines = [], []
    for name, ckpt in (("new", mid), ("old", legacy)):
        assert main(train_args(h_config, tmp_path / name, extra=["--resume", str(ckpt)])) == 0
        (final,) = (tmp_path / name).glob("run-*/checkpoints/step-00000004.npz")
        with np.load(final) as z:
            finals.append(dict(z))
        capsys.readouterr()
        assert main(["evaluate", str(h_config), str(ckpt), "--sortlets", "1", "--walkers", "8",
                     "--estimates", "3", "--equilibration", "5",
                     "--out", str(tmp_path / name)]) == 0
        lines.append(capsys.readouterr().out)
    assert finals[0].keys() == finals[1].keys()
    for key in finals[0]:
        assert np.array_equal(finals[0][key], finals[1][key]), key
    assert lines[0] == lines[1] and lines[0].startswith("energy ")

    assert main(["evaluate", str(h_config), str(legacy), "--sortlets", "2",
                 "--out", str(tmp_path / "old")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "different model" in err
