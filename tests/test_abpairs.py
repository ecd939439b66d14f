"""tests/abpairs.py stops what it started: a SIGTERM while a benchmark run
is going ends that run, lets it remove its `.perfbench-run-*` directory,
and exits 1 naming it. A stub checkout stands in for the benchmark."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

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
