"""The repository's pytest settings report a falsified property test normally."""

from __future__ import annotations

from pathlib import Path

import pytest

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# One property test that hypothesis falsifies, then two tests that must still run.
FALSIFIED = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_falsified(n):
    assert n < 0


def test_after_one():
    pass


def test_after_two():
    pass
"""


def test_falsified_property_test_is_reported(pytester):
    pytester.makepyprojecttoml(PYPROJECT.read_text(encoding="utf-8"))
    pytester.makepyfile(test_property=FALSIFIED)
    result = pytester.runpytest_subprocess("test_property.py")
    assert result.ret == pytest.ExitCode.TESTS_FAILED
    result.assert_outcomes(failed=1, passed=2)
    result.stdout.fnmatch_lines(["*Falsifying example: test_falsified(*"])
