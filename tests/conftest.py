"""Checks that apply to every test."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test after which a child process it started still runs."""
    yield
    children = multiprocessing.active_children()
    if children:
        pytest.fail("processes left running: %r" % (children,))
