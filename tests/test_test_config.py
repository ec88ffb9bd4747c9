"""The pytest configuration in ``pyproject.toml`` lets a failing test report itself.

``filterwarnings`` turns every warning into an error.  The hypothesis plugin raises a ``DeprecationWarning`` in its
own report hook after a ``@given`` test fails; as an error it ended the pytest run in ``INTERNALERROR`` and hid which
test had failed.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_GIVEN_TEST = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers(0, 10))
def test_five_or_more_fails(n):
    assert n < 5
'''


def test_a_failing_hypothesis_test_is_reported_by_name(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING_GIVEN_TEST, encoding="utf-8")
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
                           "--rootdir", str(tmp_path), "test_failing.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "FAILED test_failing.py::test_five_or_more_fails - assert 5 < 5" in output
