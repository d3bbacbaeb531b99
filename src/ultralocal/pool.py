"""Independent jobs across the usable cores: forked children and the caller.

The sampled closed loops of stabmap.cross_validate and the output files
of a CLI scenario are each a list of jobs that share nothing. run_jobs
splits such a list into min(usable cores, jobs) contiguous shares. Each
share but the last runs in a child made with os.fork; the last runs in
the calling process, which would otherwise sit idle while it waits.

A job is a callable taking no argument, often a closure (a bound
SimulationTrace.to_csv, a lambda over a stability grid), which pickle
cannot send. The children inherit the job list through the fork instead,
so nothing goes out to a child, and only its share's return values (or
the exception that stopped it) come back, pickled over a pipe.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading


class WorkerLost(RuntimeError):
    """A worker process ended (a signal, os._exit, the OOM killer) before
    its jobs returned."""


def usable_cores() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, the machine's count otherwise."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_share(jobs, start: int, stop: int) -> tuple:
    """(return values, exception) of jobs[start:stop] run in order, up to
    and including the first that raises; the exception is None if none
    did."""
    results = []
    try:
        for job in jobs[start:stop]:
            results.append(job())
    except Exception as exc:  # handed to run_jobs' caller, in job order
        return results, exc
    return results, None


def _sendable(outcome: tuple, start: int) -> bytes:
    """The pickled outcome of the share starting at job start. A value
    that does not survive a pickle round trip is replaced, with the values
    after it, by a RuntimeError naming its job and type."""
    results, error = outcome
    for offset, value in enumerate(results + [error]):
        try:
            pickle.loads(pickle.dumps(value))
        except Exception as exc:
            how = "raised" if offset == len(results) else "returned"
            return pickle.dumps((results[:offset], RuntimeError(
                "job %d %s a %s, which a worker process cannot send back: %s"
                % (start + offset, how, type(value).__name__, exc))))
    return pickle.dumps(outcome)


def _fork_share(jobs, start: int, stop: int) -> tuple:
    """Run jobs[start:stop] in a forked child; returns (pid, read end of
    the pipe that carries its pickled outcome)."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        # the child: it never returns into the caller's stack, nor runs
        # the caller's exit handlers
        code = 1
        try:
            os.close(read_end)
            payload = _sendable(_run_share(jobs, start, stop), start)
            with open(write_end, "wb") as out:
                out.write(payload)
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    return pid, read_end


def _read_to_end(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _received(payload: bytes, status: int, start: int, stop: int) -> tuple:
    """The outcome a child sent, or a WorkerLost if it ended without one."""
    try:
        return pickle.loads(payload)
    except (EOFError, pickle.UnpicklingError):  # it ended before sending all of it
        pass
    code = os.waitstatus_to_exitcode(status)
    how = "by signal %d" % -code if code < 0 else "with status %d" % code
    return [], WorkerLost("the worker process running jobs %d-%d ended %s before "
                          "sending their results" % (start, stop - 1, how))


def run_jobs(jobs: list) -> list:
    """Each job's return value, in the jobs' order.

    The jobs are split into min(usable cores, jobs) contiguous shares.
    Each share but the last runs in a forked child, the last one here; a
    share stops at its first job that raises. Every child is reaped before
    this returns or raises, also when a job raises, here or in a child.
    The first exception in job order reaches the caller, a child that
    dies counting as a WorkerLost at its share's first job, and a return
    value or exception that pickle cannot send back as a RuntimeError
    naming its job. With one share, no fork on the platform, or other
    threads running (a fork copies their locks in whatever state they
    are), the jobs run here instead, one after another.
    """
    shares = min(usable_cores(), len(jobs))
    if shares < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [job() for job in jobs]
    bounds = [len(jobs) * k // shares for k in range(shares + 1)]
    spans = list(zip(bounds, bounds[1:]))   # (start, stop) of each share
    children = []   # (pid, read end) of each forked share, in job order
    statuses = []
    failed = True
    try:
        for start, stop in spans[:-1]:
            children.append(_fork_share(jobs, start, stop))
        own = _run_share(jobs, *spans[-1])
        payloads = [_read_to_end(read_end) for _, read_end in children]
        failed = False
    finally:
        for pid, read_end in children:
            os.close(read_end)
            if failed:
                # this call is being interrupted: its children's work is lost
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])
    outcomes = [_received(payload, status, *span)
                for payload, status, span in zip(payloads, statuses, spans)] + [own]
    results = []
    for values, error in outcomes:
        results += values
        if error is not None:
            raise error
    return results
