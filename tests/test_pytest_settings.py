"""The repository's pytest settings keep hypothesis failures readable.

``pyproject.toml`` turns every DeprecationWarning into an error.  On a
failure hypothesis imports libcst, which warns about
``mypy_extensions.TypedDict``; as an error, that warning used to turn
the failure report into an INTERNALERROR and hide the falsifying
example.  This test runs pytest, with the repository's settings, on a
deliberately failing ``@given`` test in a subprocess.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_TESTS = '''
import warnings

from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_falsified(x):
    assert x < 0


def test_other_deprecation_is_still_an_error():
    warnings.warn("some other API is deprecated", DeprecationWarning)
'''


def test_hypothesis_failure_reports_its_example(tmp_path):
    (tmp_path / "test_deliberately_failing.py").write_text(FAILING_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         "test_deliberately_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "Falsifying example" in out, out
    assert "2 failed" in out, out
