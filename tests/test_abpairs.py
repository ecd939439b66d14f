"""tests/abpairs.py stops what it started: a SIGTERM while a benchmark run
is going ends that run, lets it remove its `.perfbench-run-*` directory,
and exits 1 naming it. A stub checkout stands in for the benchmark. Its
summary line is checked on fixed pair data."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from abpairs import summary

ABPAIRS = Path(__file__).resolve().parent / "abpairs.py"

# sleeps inside its run directory, as perfbench/run.py runs inside one
STUB_RUN = """\
import os, pathlib, tempfile, time
root = pathlib.Path(__file__).resolve().parent.parent
with tempfile.TemporaryDirectory(prefix=".perfbench-run-", dir=root):
    (root / "pid.part").write_text(str(os.getpid()))
    os.replace(root / "pid.part", root / "pid")  # the test never reads a half-written pid
    time.sleep({seconds})
"""


def stub_checkout(root: Path, seconds: float) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(STUB_RUN.format(seconds=seconds))
    (root / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "workloads": [{"name": "nap"}], "end_to_end": []}))
    return root


def alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_sigterm_stops_the_running_benchmark_and_its_directory(tmp_path):
    stub = stub_checkout(tmp_path / "stub", 120)
    script = subprocess.Popen([sys.executable, str(ABPAIRS), str(stub), str(stub), "--pairs", "1"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    pid = None
    try:
        deadline = time.monotonic() + 30
        while not (stub / "pid").is_file() and time.monotonic() < deadline:
            time.sleep(0.05)
        pid = int((stub / "pid").read_text())
        script.send_signal(signal.SIGTERM)
        _, err = script.communicate(timeout=30)
        assert script.returncode == 1
        assert "stopped: nap pair 1 A" in err
        assert not alive(pid)
        assert not list(stub.glob(".perfbench-run-*"))
    finally:
        if script.poll() is None:
            script.kill()
            script.wait()
        if pid is not None and alive(pid):
            os.kill(pid, signal.SIGKILL)


def test_an_unlisted_workload_is_refused_before_any_run(tmp_path):
    stub = stub_checkout(tmp_path / "stub", 0)
    done = subprocess.run([sys.executable, str(ABPAIRS), str(stub), str(stub),
                           "--workload", "nap", "--workload", "nope"],
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 2
    assert "no workload nope" in done.stderr
    assert not (stub / "pid").exists()


def test_summary_gives_the_medians_the_parent_iqr_and_the_claim_rule():
    """summary on fixed pairs: A's interquartile range is statistics.quantiles'
    (exclusive), and the gap between the medians is beyond it or within it."""
    metrics = [{"name": "iter_s", "unit": "s", "better": "lower"},
               {"name": "rate", "unit": "1/s", "better": "higher"},
               {"name": "rss", "unit": "MB", "better": "lower"}]
    a_iter, b_iter = [0.10, 0.11, 0.12, 0.13], [0.09, 0.095, 0.085, 0.08]
    a_rate, b_rate = [1000, 1100, 1200, 1300], [1150, 1050, 1250, 1100]
    pairs = [{"a": {"iter_s": ai, "rate": ar, "rss": 50.0}, "b": {"iter_s": bi, "rate": br}}
             for ai, bi, ar, br in zip(a_iter, b_iter, a_rate, b_rate)]
    line = summary("w", metrics, pairs)
    # exclusive quartiles of 0.10..0.13: 0.1025 and 0.1275
    assert line == ("w `iter_s` 0.115 -> 0.0875 s (A 0.1-0.13, B 0.08-0.095; B better 4/4; "
                    "A IQR 0.025, gap beyond it), "
                    "`rate` 1 150 -> 1 125 1/s (A 1 000-1 300, B 1 050-1 250; B better 2/4; "
                    "A IQR 250, gap within it), `rss` missing")
    one = summary("w", metrics[:1], pairs[:1])
    assert one.endswith("B better 1/1; A IQR n/a)")
