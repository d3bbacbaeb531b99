"""Independent jobs on forked workers, one per usable core.

The sampled closed loops of stabmap.cross_validate and the output files
of a CLI scenario are each a list of jobs that share nothing. run_jobs
runs such a list on min(usable cores, jobs) forked workers, each taking
the next job when it is free.

A job is a callable taking no argument, often a closure (a bound
SimulationTrace.to_csv, a lambda over a stability grid), which pickle
cannot send. The workers inherit the job list through the fork instead,
so only a job's index goes out to a worker and only its return value
comes back.
"""

from __future__ import annotations

import os


class WorkerLost(RuntimeError):
    """A worker process ended (a signal, os._exit, the OOM killer) before
    its job returned."""


def usable_cores() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, the machine's count otherwise."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# a forked worker's copy of the job list it was started with
_worker_jobs = ()


def _take_jobs(jobs) -> None:
    global _worker_jobs
    _worker_jobs = jobs


def _run_job(index: int):
    return _worker_jobs[index]()


def run_jobs(jobs: list) -> list:
    """Each job's return value, in the jobs' order.

    The jobs run on min(usable cores, jobs) forked workers. Every worker
    is joined before this returns, also when a job raises: the first
    exception in job order reaches the caller, and a worker that dies
    raises WorkerLost. With one worker, no fork on the platform, or other
    threads running (a fork copies their locks in whatever state they
    are), the jobs run here instead, one after another.
    """
    workers = min(usable_cores(), len(jobs))
    if workers > 1:
        # imported here, so that importing the package does not load
        # multiprocessing
        import multiprocessing
        import threading
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        if ("fork" in multiprocessing.get_all_start_methods()
                and threading.active_count() == 1):
            # under fork, initargs reach the workers by inheritance, unpickled
            with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                     initializer=_take_jobs, initargs=(jobs,)) as pool:
                try:
                    return list(pool.map(_run_job, range(len(jobs))))
                except BrokenProcessPool as exc:
                    raise WorkerLost(str(exc)) from exc
    return [job() for job in jobs]
