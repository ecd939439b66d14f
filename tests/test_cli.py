import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sortlet_vmc import cli
from sortlet_vmc.cli import OUT_ENV, THREAD_VARS, build_parser, main

H_CFG = """
system:
  nuclei:
    - element: H
      xyz: [0.0, 0.0, 0.0]
run:
  seed: 0
  potential: coulomb
"""


@pytest.fixture
def h_config(tmp_path):
    p = tmp_path / "h.yaml"
    p.write_text(H_CFG)
    return p


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


def test_probe_variational_report(h_config, tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["probe", "variational", str(h_config), "--trials", "500",
                 "--out", str(out)]) == 0
    report_files = list(out.glob("run-*/report-variational.txt"))
    assert len(report_files) == 1
    record = json.loads(report_files[0].read_text().splitlines()[0])
    assert record["passed"] is True
    assert "pass" in capsys.readouterr().out


def test_probe_reports_append(h_config, tmp_path):
    out = tmp_path / "runs"
    for _ in range(2):
        main(["probe", "variational", str(h_config), "--trials", "200",
              "--out", str(out)])
    report = next(out.glob("run-*/report-variational.txt"))
    assert len(report.read_text().splitlines()) == 2


def test_probe_gradcheck_ignores_system_details(h_config, tmp_path):
    assert main(["probe", "gradcheck", str(h_config),
                 "--out", str(tmp_path / "runs")]) == 0


def test_output_root_from_environment(h_config, tmp_path, monkeypatch):
    monkeypatch.setenv(OUT_ENV, str(tmp_path / "envruns"))
    assert main(["probe", "variational", str(h_config), "--trials", "200"]) == 0
    assert list((tmp_path / "envruns").glob("run-*/report-variational.txt"))


def test_threads_flag_pins_blas_pools(h_config, tmp_path, monkeypatch):
    monkeypatch.setattr(os, "environ", os.environ.copy())
    main(["--threads", "3", "probe", "variational", str(h_config),
          "--trials", "200", "--out", str(tmp_path / "runs")])
    for var in THREAD_VARS:
        assert os.environ[var] == "3"


def test_training_is_bitwise_independent_of_blas_threads(tmp_path):
    """Training under --threads 1 and --threads 2 gives the same bits.

    The pin only takes effect before numpy loads, so each run is its own
    process. With 640 Li walkers the reductions over all walkers in the
    parameter gradient are large enough for OpenBLAS to spread them over
    both threads.
    """
    config = tmp_path / "li.yaml"
    config.write_text(H_CFG.replace("element: H", "element: Li"))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    runs = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-m", "sortlet_vmc.cli", "--threads", str(threads),
                        "train", str(config), "--iters", "3", "--walkers", "640",
                        "--burn-in", "5", "--checkpoint-every", "3", "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        (run_dir,) = out.glob("run-*")
        records = [json.loads(line) for line in
                   (run_dir / "metrics.ndjson").read_text().splitlines()]
        for rec in records:
            rec.pop("seconds")
        with np.load(run_dir / "checkpoints" / "step-00000003.npz") as z:
            runs.append((z["theta"], z["positions"], records))
    (theta1, pos1, rec1), (theta2, pos2, rec2) = runs
    assert np.array_equal(theta1, theta2)
    assert np.array_equal(pos1, pos2)
    assert len(rec1) == 3 and rec1 == rec2


def test_threads_flag_rejects_nonpositive(h_config, tmp_path):
    assert main(["--threads", "0", "probe", "variational", str(h_config),
                 "--out", str(tmp_path / "runs")]) == 2


def test_missing_config_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit, match="no such config"):
        main(["probe", "variational", str(tmp_path / "absent.yaml")])


def test_malformed_config_is_a_usage_error(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("system:\n  nuclei: []\n")
    with pytest.raises(SystemExit, match="bad config"):
        main(["probe", "variational", str(p)])


def test_unknown_probe_kind_rejected_by_parser(h_config):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["probe", "slater", str(h_config)])


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
], ids=["iters", "train_walkers", "estimates", "evaluate_walkers", "nodes_trials",
        "antisymmetry_trials"])
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
    ["probe", "variational", "{cfg}", "--seed", "-1"],
    ["train", "{cfg}", "--burn-in", "-1"],
    ["train", "{cfg}", "--checkpoint-every", "-1"],
    ["evaluate", "{cfg}", "ckpt.npz", "--equilibration", "-1"],
], ids=["train_sortlets", "evaluate_sortlets", "probe_sortlets", "train_seed",
        "evaluate_seed", "probe_seed", "burn_in", "checkpoint_every", "equilibration"])
def test_numeric_flags_below_their_bound_are_usage_errors(h_config, tmp_path, capsys, argv):
    out = tmp_path / "runs"
    with pytest.raises(SystemExit) as exit_:
        main([a.format(cfg=h_config) for a in argv] + ["--out", str(out)])
    assert exit_.value.code == 2
    assert "must be at least" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["train", "{cfg}", "--iters", "1", "--walkers", "4"],
    ["evaluate", "{cfg}", "ckpt.npz"],
    ["probe", "antisymmetry", "{cfg}", "--trials", "4"],
], ids=["train", "evaluate", "probe"])
def test_sortlets_past_the_maximum_is_a_one_line_error(h_config, tmp_path, capsys, argv):
    out = tmp_path / "runs"
    with pytest.raises(SystemExit) as exit_:
        main([a.format(cfg=h_config) for a in argv] + ["--sortlets", "40", "--out", str(out)])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --sortlets 40") and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("kind", ["antisymmetry", "nodes", "smoothness"])
def test_exchange_probes_refuse_a_system_without_a_same_spin_pair(h_config, tmp_path, capsys,
                                                                 kind):
    out = tmp_path / "runs"
    assert main(["probe", kind, str(h_config), "--trials", "4", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: probe {kind}:") and len(err.splitlines()) == 1
    assert "same spin" in err or "spin sector" in err
    assert not out.exists()
