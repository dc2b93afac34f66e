"""The repo's pytest settings still report a failing hypothesis test.

``filterwarnings = ["error"]`` turns every warning into an error, and a
warning that hypothesis's report hook raises then stops the run with an
INTERNALERROR and no failure report.  This runs pytest under the repo's own
ini options on one failing ``@given`` test and one passing test.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_MODULE = '''
from hypothesis import given
import hypothesis.strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    assert True
'''


def test_failing_hypothesis_test_is_reported(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING_MODULE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_failing.py"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output
    assert "Falsifying example" in output
    assert "1 failed, 1 passed" in output
    assert proc.returncode == 1
