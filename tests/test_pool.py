"""pool.run_jobs: jobs claimed on demand, job order, errors and reaping."""

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
def test_a_waiting_job_holds_its_worker_while_another_claims_every_other_job(
        monkeypatch, cores, handoff, n_cores):
    # the first n_cores - 1 jobs each hold the worker that claimed them
    # until the last job has run, so one worker runs every other job
    wait, post = handoff
    held = n_cores - 1
    cores(n_cores)
    forks = count_forks(monkeypatch)

    def waiting():
        wait()
        return os.getpid()

    def last():
        post(held)
        return os.getpid()
    pids = run_jobs([waiting] * held + [os.getpid] * 20 + [last])
    assert len(forks) == n_cores - 1
    assert len(set(pids[held:])) == 1
    assert len(set(pids)) == n_cores and os.getpid() in pids
    assert no_child_left()


@needs_fork
def test_thousands_of_jobs_are_claimed_in_chunks_and_come_back_in_order(monkeypatch, cores):
    # 5,000 jobs are more than there are tokens: each token names a
    # contiguous chunk of two or three jobs
    cores(2)
    forks = count_forks(monkeypatch)
    assert run_jobs([functools.partial(int, i) for i in range(5000)]) == list(range(5000))
    assert len(forks) == 1
    assert no_child_left()


@needs_fork
def test_more_workers_than_cores_run_every_job_exactly_once(monkeypatch, cores):
    # seven workers on this machine's cores share one token pipe; each job
    # logs its index to another pipe, so a token claimed twice or lost
    # shows as an index logged twice or never
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
@pytest.mark.parametrize("failing", [{2501, 2502}, {4999}], ids=["one-chunk", "last-job"])
def test_the_first_exception_in_a_chunk_reaches_the_caller(cores, failing):
    # 5,000 jobs: a token's chunk stops at its first job that raises
    cores(2)
    with pytest.raises(JobFailure) as info:
        run_jobs([functools.partial(_fail_at, failing, i) for i in range(5000)])
    assert info.value.args == (min(failing),)
    assert no_child_left()


@needs_fork
def test_an_exception_here_waits_for_the_child_and_reaps_it(cores, handoff):
    # the child's job waits until this process has claimed the other job,
    # which raises
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
def test_a_child_that_dies_raises_worker_lost(cores, handoff, death, how):
    # the job this process claims waits until the child has claimed the
    # other one and told which; the child then dies in it
    wait, post = handoff
    test_pid = os.getpid()
    lost = []

    def die_in_the_child(index):
        if os.getpid() != test_pid:
            post()
            death()
        wait()
        lost.append(1 - index)
        return "here"
    cores(2)
    with pytest.raises(WorkerLost) as info:
        run_jobs([functools.partial(die_in_the_child, i) for i in range(2)])
    assert str(info.value) == ("job %d: the worker process that claimed it ended %s before "
                               "sending its results" % (lost[0], how))
    assert no_child_left()


@needs_fork
def test_a_lost_child_comes_before_a_later_exception(cores, handoff):
    # the child dies in the first job it claims. If that is job 0, this
    # process claims job 1, which raises; otherwise this process holds
    # job 0 until the child has claimed job 1, and job 2 raises. Either
    # way the lost job comes first in job order.
    wait, post = handoff
    test_pid = os.getpid()

    def job(index):
        if os.getpid() != test_pid:
            post()
            os._exit(3)
        if index == 0:
            wait()
            return "here"
        raise JobFailure(index)
    cores(2)
    with pytest.raises(WorkerLost, match="ended with status 3"):
        run_jobs([functools.partial(job, i) for i in range(3)])
    assert no_child_left()


@needs_fork
@pytest.mark.parametrize("job,message", [
    (lambda: (lambda: 0), "job 3 returned a function"),
    (lambda: threading.Lock(), "job 3 returned a lock"),
    (_raise_needs_two, "job 3 raised a NeedsTwoArguments"),
], ids=["lambda", "lock", "exception-that-does-not-unpickle"])
def test_a_value_pickle_cannot_send_raises_naming_its_job(cores, job, message):
    # seven jobs on three cores; job 3 fails alike whichever process runs it
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
    # the first job waits until the second has run, so each process runs one
    code = ("import os, sys; import ultralocal.pool as pool; "
            "pool.usable_cores = lambda: 2; r, w = os.pipe(); "
            "pids = pool.run_jobs([lambda: os.read(r, 1) and os.getpid(), "
            "lambda: os.write(w, b'x') and os.getpid()]); "
            "assert len(set(pids)) == 2; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
            "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.strip() == "[]"


@needs_fork
def test_run_jobs_inside_a_job_of_a_forked_call_forks_nothing(monkeypatch, cores, handoff):
    # each job runs a run_jobs call of its own and counts the forks its
    # process made meanwhile; this process holds its first job until the
    # child has run one, so both processes run nested calls
    wait, post = handoff
    test_pid = os.getpid()
    waited = []
    cores(2)
    forks = count_forks(monkeypatch)

    def nested():
        before = len(forks)
        pids = run_jobs([os.getpid] * 3)
        if os.getpid() != test_pid:
            post()
        elif not waited:
            waited.append(wait())
        return len(forks) - before, pids == [os.getpid()] * 3, os.getpid()
    results = run_jobs([nested] * 4)
    assert len(forks) == 1
    assert [result[:2] for result in results] == [(0, True)] * 4
    assert len({result[2] for result in results}) == 2
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
