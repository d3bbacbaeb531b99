"""Checks that apply to every test, and fixtures for the tests of forked workers."""

import os

import pytest

from forks import no_child_left


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test after which a child process it started is left, running
    or unreaped."""
    yield
    if not no_child_left():
        pytest.fail("a child process was left behind")


@pytest.fixture
def handoff():
    """(wait, post) over a fresh pipe: wait() blocks until some process,
    this one or a forked child, has called post(); post(n) lets n waits
    through."""
    read_end, write_end = os.pipe()
    yield (lambda: os.read(read_end, 1), lambda n=1: os.write(write_end, b"x" * n))
    os.close(read_end)
    os.close(write_end)
