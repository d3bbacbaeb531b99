"""Checks that apply to every test."""

import pytest

from forks import no_child_left


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test after which a child process it started is left, running
    or unreaped."""
    yield
    if not no_child_left():
        pytest.fail("a child process was left behind")
