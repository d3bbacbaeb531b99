"""Helpers for tests of the forked worker pool (ultralocal.pool)."""

import multiprocessing
import os
import threading
from contextlib import contextmanager

import pytest

needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="no fork on this platform")


def count_forks(monkeypatch) -> list:
    """A list that gains one entry per os.fork from now on."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(None)
        return real_fork()
    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def no_child_left() -> bool:
    """Whether this process has no child process, running or unreaped.

    Unlike multiprocessing.active_children, this also sees children made
    with a plain os.fork."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def forbid_processes(monkeypatch) -> None:
    """Make starting a process from now on fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("a process was started")
    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)


@contextmanager
def another_thread_running():
    """Keep a second thread alive for the duration of the block."""
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(30.0,))
    waiter.start()
    try:
        yield
    finally:
        release.set()
        waiter.join(30.0)
    assert not waiter.is_alive()
