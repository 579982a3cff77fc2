"""The repository's pytest settings report a failing property test as an
ordinary failure, not as an internal error that ends the run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = """
from hypothesis import given, settings
from hypothesis import strategies as st


def test_passes():
    pass


@settings(max_examples=5, database=None, deadline=None)
@given(st.integers(min_value=0, max_value=3))
def test_fails(n):
    assert n < 0
"""


def test_failing_property_test_is_reported_as_failure(tmp_path):
    # hypothesis imports libcst to report the failing example; under
    # filterwarnings = ["error"] alone, libcst's deprecation warning would
    # abort the session with an INTERNALERROR and exit code 3.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
            "test_property.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "1 failed, 1 passed" in result.stdout
    assert "INTERNALERROR" not in output
