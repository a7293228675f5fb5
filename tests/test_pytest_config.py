"""The repository's pytest configuration reports a failing hypothesis test as a failure.

On a failure the hypothesis plugin imports ``hypothesis.extra._patching``,
which imports libcst, and libcst's import of ``mypy_extensions.TypedDict``
raises a ``DeprecationWarning``. ``pyproject.toml`` turns every
DeprecationWarning into an error, so without its filter for that one
warning the report itself ends in ``INTERNALERROR``: the run stops at the
first failing hypothesis test and never prints its falsifying example.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
"""


def test_a_failing_hypothesis_test_is_reported_not_an_internal_error(tmp_path):
    (tmp_path / "test_child.py").write_text(FAILING, encoding="utf-8")
    config = ["-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "-p", "no:cacheprovider"]
    cmd = [sys.executable, "-m", "pytest", "-q", *config, "test_child.py"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "FAILED test_child.py::test_fails" in proc.stdout
    assert "Falsifying example" in proc.stdout
    assert proc.returncode == 1
