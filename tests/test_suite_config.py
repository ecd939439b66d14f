"""The suite's own pytest configuration (pyproject.toml) reports every
failure and keeps every other warning an error."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

TESTS = '''
import warnings

import pytest
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, database=None)
@given(st.integers(0, 9))
def test_fails(x):
    assert x < 0


def test_another_deprecation_is_still_an_error():
    with pytest.raises(DeprecationWarning):
        warnings.warn("typing_extensions.TypedDict is deprecated", DeprecationWarning)
'''


def test_a_failing_given_test_ends_no_session(tmp_path):
    """A failing @given test makes hypothesis's report hook import libcst,
    whose import warns; as an error in that hook it stopped the session
    with INTERNALERROR and exit 3, so no later test ran."""
    (tmp_path / "test_given.py").write_text(TESTS, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_given.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1, run.stdout[-2000:]
    assert "1 failed, 1 passed" in run.stdout
