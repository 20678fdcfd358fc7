"""The test suite's own set-up, run the way the suite runs."""

import pathlib
import shutil
import subprocess
import sys

TESTS = pathlib.Path(__file__).resolve().parent

FAILING_GIVEN_TEST = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails_from_ten_on(x):
    assert x < 10
'''


def test_a_failing_given_test_reports_its_example(tmp_path):
    # the suite's conftest and pyproject.toml's warning policy, over one failing @given test
    shutil.copy(TESTS / "conftest.py", tmp_path)
    (tmp_path / "test_failing.py").write_text(FAILING_GIVEN_TEST)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(TESTS.parent / "pyproject.toml"),
         "--rootdir", str(tmp_path), str(tmp_path / "test_failing.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out and "x=10" in out, out
    assert "INTERNALERROR" not in out, out
