"""pool.run_jobs: contiguous shares, job order, errors and reaping."""

import functools
import itertools
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from forks import another_thread_running, count_forks, forbid_processes, needs_fork, no_child_left
from ultralocal import pool
from ultralocal.pool import WorkerLost, run_jobs


class JobFailure(RuntimeError):
    pass


class NeedsTwoArguments(RuntimeError):
    """Pickles, but does not unpickle: its args hold one value of two."""

    def __init__(self, first, second):
        super().__init__(first)


def _raise_needs_two():
    raise NeedsTwoArguments(1, 2)


def _fail_at(failing, index):
    if index in failing:
        raise JobFailure(index)
    return index


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs over 30 s, rather than let a hung run_jobs
    hang the suite."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError("over 30 s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def cores(monkeypatch):
    """Set the usable core count run_jobs sees."""
    return lambda n: monkeypatch.setattr(pool, "usable_cores", lambda: n)


@needs_fork
@pytest.mark.parametrize("n_cores,n_jobs,shares", [
    (2, 2, [1, 1]),
    (2, 5, [2, 3]),
    (3, 7, [2, 2, 3]),
    (4, 3, [1, 1, 1]),
])
def test_shares_are_contiguous_and_the_caller_runs_the_last(monkeypatch, cores, n_cores,
                                                            n_jobs, shares):
    cores(n_cores)
    forks = count_forks(monkeypatch)
    pids = run_jobs([os.getpid] * n_jobs)
    assert len(forks) == len(shares) - 1
    assert [len(list(run)) for _, run in itertools.groupby(pids)] == shares
    assert len(set(pids)) == len(shares)
    assert pids[-1] == os.getpid()
    assert no_child_left()


@needs_fork
def test_results_come_back_in_job_order(cores):
    cores(3)
    jobs = [functools.partial(pow, i, 2) for i in range(10)]
    assert run_jobs(jobs) == [i * i for i in range(10)]
    assert no_child_left()


@needs_fork
@pytest.mark.parametrize("failing", [{1}, {4}, {1, 4}, {0, 3}, {3, 4}])
def test_the_first_exception_in_job_order_reaches_the_caller(cores, failing):
    # five jobs on two cores: the child runs jobs 0-1, this process 2-4
    cores(2)
    with pytest.raises(JobFailure) as info:
        run_jobs([functools.partial(_fail_at, failing, i) for i in range(5)])
    assert info.value.args == (min(failing),)
    assert no_child_left()


@needs_fork
def test_an_exception_here_waits_for_the_child_and_reaps_it(cores):
    cores(2)
    with pytest.raises(JobFailure):
        run_jobs([functools.partial(time.sleep, 0.3), functools.partial(_fail_at, {1}, 1)])
    assert no_child_left()


@needs_fork
@pytest.mark.parametrize("death,how", [
    (lambda: os._exit(3), "with status 3"),
    (lambda: os._exit(0), "with status 0"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "by signal %d" % signal.SIGKILL),
], ids=["exit-3", "exit-0", "sigkill"])
def test_a_child_that_dies_raises_worker_lost(cores, death, how):
    test_pid = os.getpid()

    def die_in_the_child():
        if os.getpid() != test_pid:
            death()
        return "here"
    cores(2)
    with pytest.raises(WorkerLost, match="jobs 0-1 ended %s" % how):
        # the child runs jobs 0-1, this process jobs 2-3
        run_jobs([die_in_the_child] * 4)
    assert no_child_left()


@needs_fork
def test_a_lost_child_comes_before_a_later_exception(cores):
    test_pid = os.getpid()

    def job():
        if os.getpid() != test_pid:
            os._exit(3)
        raise JobFailure("here")
    cores(2)
    with pytest.raises(WorkerLost):
        run_jobs([job, job])
    assert no_child_left()


@needs_fork
@pytest.mark.parametrize("job,message", [
    (lambda: (lambda: 0), "job 3 returned a function"),
    (lambda: threading.Lock(), "job 3 returned a lock"),
    (_raise_needs_two, "job 3 raised a NeedsTwoArguments"),
], ids=["lambda", "lock", "exception-that-does-not-unpickle"])
def test_a_value_pickle_cannot_send_raises_naming_its_job(cores, job, message):
    # seven jobs on three cores: jobs 2-3 run in the second child
    cores(3)
    jobs = [os.getpid] * 7
    jobs[3] = job
    with pytest.raises(RuntimeError, match=message):
        run_jobs(jobs)
    assert no_child_left()


@pytest.mark.parametrize("n_cores,n_jobs", [(1, 4), (2, 1), (3, 0)])
def test_one_share_runs_here(monkeypatch, cores, n_cores, n_jobs):
    cores(n_cores)
    forbid_processes(monkeypatch)
    assert run_jobs([os.getpid] * n_jobs) == [os.getpid()] * n_jobs


def test_without_fork_the_jobs_run_here(monkeypatch, cores):
    cores(2)
    monkeypatch.delattr(os, "fork")
    assert run_jobs([os.getpid] * 3) == [os.getpid()] * 3


def test_with_other_threads_running_the_jobs_run_here(monkeypatch, cores):
    cores(2)
    forbid_processes(monkeypatch)
    with another_thread_running():
        assert run_jobs([os.getpid] * 3) == [os.getpid()] * 3


@needs_fork
def test_forking_jobs_loads_no_multiprocessing():
    code = ("import os, sys; import ultralocal.pool as pool; "
            "pool.usable_cores = lambda: 2; "
            "assert len(set(pool.run_jobs([os.getpid] * 2))) == 2; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
            "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.strip() == "[]"
