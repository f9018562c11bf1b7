"""The repository's pytest configuration, run on a test file of its own."""

from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

TWO_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_property_test_is_one_failure_and_the_next_test_still_runs(pytester):
    # Under filterwarnings = error, the warning hypothesis raises while it
    # reports a failing example once became an INTERNALERROR that skipped
    # every later test; pyproject.toml ignores it.  The path is passed, since
    # testpaths finds nothing under this test's directory.
    path = pytester.makepyfile(test_two=TWO_TESTS)
    result = pytester.runpytest_subprocess(
        "-c", str(PYPROJECT), "--rootdir", str(pytester.path), "-p", "no:cacheprovider", str(path)
    )
    result.assert_outcomes(failed=1, passed=1)
    assert result.ret == 1
