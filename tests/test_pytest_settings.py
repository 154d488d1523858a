"""The suite's own pytest settings, checked in a separate pytest process."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY_THEN_PLAIN = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, max_examples=3)
@given(st.integers())
def test_a_failing_property(x):
    assert False


def test_a_plain_test_after_it():
    pass
'''


def test_a_failing_property_test_leaves_the_run_going(tmp_path):
    # Hypothesis's report hook for a failing @given test warns through a
    # deprecated import; with filterwarnings = "error" alone that warning
    # ends the session as an INTERNALERROR, and no later test runs.
    (tmp_path / "test_case.py").write_text(FAILING_PROPERTY_THEN_PLAIN)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_case.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout, done.stdout + done.stderr
