"""pool.run_jobs: contiguous shares, job order, errors and reaping."""

import functools
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


@needs_fork
@pytest.mark.parametrize("n_cores", [2, 3])
def test_each_share_runs_in_one_process_and_the_last_here(monkeypatch, cores, n_cores):
    # ten jobs are cut as part_bounds cuts them: each contiguous share runs
    # in one process, a forked child for every share but the last
    cores(n_cores)
    forks = count_forks(monkeypatch)
    bounds = {2: [0, 5, 10], 3: [0, 3, 6, 10]}[n_cores]
    results = run_jobs([functools.partial(lambda i: (i, os.getpid()), i) for i in range(10)])
    assert [index for index, _ in results] == list(range(10))
    shares = [{pid for _, pid in results[start:stop]}
              for start, stop in zip(bounds, bounds[1:])]
    assert all(len(pids) == 1 for pids in shares)
    assert len(set.union(*shares)) == n_cores
    assert shares[-1] == {os.getpid()}
    assert len(forks) == n_cores - 1
    assert no_child_left()


@needs_fork
def test_thousands_of_jobs_come_back_in_order(monkeypatch, cores):
    # 5,000 jobs in two shares of 2,500, each sent back as one list
    cores(2)
    forks = count_forks(monkeypatch)
    assert run_jobs([functools.partial(int, i) for i in range(5000)]) == list(range(5000))
    assert len(forks) == 1
    assert no_child_left()


@needs_fork
def test_more_workers_than_cores_run_every_job_exactly_once(monkeypatch, cores):
    # seven shares on this machine's cores; each job logs its index to a
    # pipe, so a job run twice or never shows as an index logged twice or
    # never
    read_end, write_end = os.pipe()

    def job(index):
        os.write(write_end, index.to_bytes(2, "little"))
        return index
    cores(7)
    forks = count_forks(monkeypatch)
    try:
        assert run_jobs([functools.partial(job, i) for i in range(600)]) == list(range(600))
        logged = os.read(read_end, 4096)
    finally:
        os.close(read_end)
        os.close(write_end)
    assert len(forks) == 6
    assert sorted(int.from_bytes(logged[k:k + 2], "little")
                  for k in range(0, len(logged), 2)) == list(range(600))
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
    cores(2)
    with pytest.raises(JobFailure) as info:
        run_jobs([functools.partial(_fail_at, failing, i) for i in range(5)])
    assert info.value.args == (min(failing),)
    assert no_child_left()


@needs_fork
@pytest.mark.parametrize("failing", [{2501, 2502}, {4999}], ids=["one-share", "last-job"])
def test_the_first_exception_in_a_long_list_reaches_the_caller(cores, failing):
    # 5,000 jobs: a share stops at its first job that raises
    cores(2)
    with pytest.raises(JobFailure) as info:
        run_jobs([functools.partial(_fail_at, failing, i) for i in range(5000)])
    assert info.value.args == (min(failing),)
    assert no_child_left()


@needs_fork
def test_an_exception_here_waits_for_the_child_and_reaps_it(cores, handoff):
    # the child's job (job 0) waits until this process has started job 1,
    # which raises, so the child is still running when it does
    wait, post = handoff
    test_pid = os.getpid()

    def job():
        if os.getpid() != test_pid:
            wait()
            time.sleep(0.2)
            return "child"
        post()
        raise JobFailure("here")
    cores(2)
    with pytest.raises(JobFailure, match="here"):
        run_jobs([job, job])
    assert no_child_left()


@needs_fork
@pytest.mark.parametrize("death,how", [
    (lambda: os._exit(3), "with status 3"),
    (lambda: os._exit(0), "with status 0"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "by signal %d" % signal.SIGKILL),
], ids=["exit-3", "exit-0", "sigkill"])
def test_a_child_that_dies_raises_worker_lost(cores, death, how):
    # the child runs the first share (jobs 0 and 1) and dies in job 1; the
    # message names the first job of that share
    test_pid = os.getpid()

    def die_in_the_child(index):
        if index == 1 and os.getpid() != test_pid:
            death()
        return "here"
    cores(2)
    with pytest.raises(WorkerLost) as info:
        run_jobs([functools.partial(die_in_the_child, i) for i in range(4)])
    assert str(info.value) == ("job 0: the worker process that ran it ended %s before "
                               "sending its results" % how)
    assert no_child_left()


@needs_fork
def test_a_lost_child_comes_before_a_later_exception(cores):
    # the child's share (job 0) dies; this process's share (jobs 1 and 2)
    # raises at job 1. The lost share comes first in share order.
    test_pid = os.getpid()

    def job(index):
        if os.getpid() != test_pid:
            os._exit(3)
        raise JobFailure(index)
    cores(2)
    with pytest.raises(WorkerLost, match="^job 0: .* ended with status 3"):
        run_jobs([functools.partial(job, i) for i in range(3)])
    assert no_child_left()


@needs_fork
def test_an_exception_comes_before_a_later_lost_child(cores):
    # three shares, jobs 0, 1 and 2-3: the first child's share raises, the
    # second child dies, and the first fault in share order is raised
    test_pid = os.getpid()

    def job(index):
        if index == 1 and os.getpid() != test_pid:
            os._exit(3)
        raise JobFailure(index)
    cores(3)
    with pytest.raises(JobFailure) as info:
        run_jobs([functools.partial(job, i) for i in range(4)])
    assert info.value.args == (0,)
    assert no_child_left()


@needs_fork
@pytest.mark.parametrize("job,message", [
    (lambda: (lambda: 0), "job 3 returned a function"),
    (lambda: threading.Lock(), "job 3 returned a lock"),
    (_raise_needs_two, "job 3 raised a NeedsTwoArguments"),
], ids=["lambda", "lock", "exception-that-does-not-unpickle"])
def test_a_value_pickle_cannot_send_raises_naming_its_job(cores, job, message):
    # seven jobs; job 3 fails alike in this process's share (two cores,
    # shares 0-2 and 3-6) and in a child's (three cores, shares 0-1, 2-3
    # and 4-6)
    jobs = [os.getpid] * 7
    jobs[3] = job
    for n_cores in (2, 3):
        cores(n_cores)
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
    # two shares of one job each: one in a forked child, one here
    code = ("import os, sys; import ultralocal.pool as pool; "
            "pool.usable_cores = lambda: 2; "
            "pids = pool.run_jobs([os.getpid, os.getpid]); "
            "assert len(set(pids)) == 2; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
            "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.strip() == "[]"


@needs_fork
def test_run_jobs_inside_a_job_of_a_forked_call_forks_nothing(monkeypatch, cores):
    # each job runs a run_jobs call of its own and counts the forks its
    # process made meanwhile; the child runs jobs 0 and 1, this process
    # jobs 2 and 3, so both processes run nested calls
    cores(2)
    forks = count_forks(monkeypatch)

    def nested():
        before = len(forks)
        pids = run_jobs([os.getpid] * 3)
        return len(forks) - before, pids == [os.getpid()] * 3, os.getpid()
    results = run_jobs([nested] * 4)
    assert len(forks) == 1
    assert [result[:2] for result in results] == [(0, True)] * 4
    assert [result[2] == os.getpid() for result in results] == [False, False, True, True]
    assert no_child_left()


@needs_fork
def test_processes_is_one_only_inside_a_forked_call(cores):
    cores(3)
    assert pool.processes() == 3
    assert run_jobs([pool.processes] * 4) == [1] * 4
    assert run_jobs([pool.processes]) == [3]        # one job runs here, unforked
    with pytest.raises(JobFailure):
        run_jobs([pool.processes, functools.partial(_fail_at, {1}, 1)])
    assert pool.processes() == 3
    assert no_child_left()


def test_processes_is_one_where_run_jobs_runs_here(monkeypatch, cores):
    cores(1)
    assert pool.processes() == 1
    cores(2)
    with another_thread_running():
        assert pool.processes() == 1
    assert pool.processes() == 2
    monkeypatch.delattr(os, "fork")
    assert pool.processes() == 1


@pytest.mark.parametrize("n_cores,size,floor,bounds", [
    (1, 20001, 4096, [0, 20001]),
    (2, 20001, 4096, [0, 10000, 20001]),
    (3, 20001, 4096, [0, 6667, 13334, 20001]),
    (8, 20001, 4096, [0, 5000, 10000, 15000, 20001]),
    (3, 8191, 4096, [0, 8191]),
    (3, 0, 4096, [0, 0]),
])
def test_part_bounds_give_each_process_one_part_of_at_least_the_floor(
        cores, n_cores, size, floor, bounds):
    cores(n_cores)
    assert pool.part_bounds(size, floor) == bounds
