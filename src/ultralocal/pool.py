"""Independent jobs across the usable cores: forked children and the caller.

Two callers hand run_jobs a list of jobs that share nothing: the CLI
scenarios (one per run, simulating its closed loop and writing its trace
file), and sim's trace CSV I/O (SimulationTrace.to_csv writes, and
load_trace_csv parses, one contiguous part of one file's rows per job,
the parts cut by part_bounds). run_jobs cuts the job list by the same
rule, part_bounds(len(jobs), 1): one contiguous share per process it
may use. Each share but the last runs in a forked child, the last in
the caller.

processes() is the one rule for how many processes a call may use: the
usable cores, or 1 inside a job of a run_jobs call that forked (in a
child and in the caller alike), with no fork on the platform, or while
other threads run. A trace file that a scenario's job writes is thus one
part, and that scenario forks only for its jobs.

A job is a callable taking no argument, at times a closure (a lambda
over a stability grid) that pickle cannot send. The children inherit
the job list through the fork instead, so nothing goes out to a child,
and only the return values of its share's jobs (or the exception that
stopped it) come back, pickled over a pipe.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading

# Whether this process is running the jobs of a run_jobs call that forked:
# set in the caller for the call's duration and inherited by its children
# through the fork. It describes the process, not a caller, so it is
# module state.
_in_forked_call = False


class WorkerLost(RuntimeError):
    """A worker process ended (a signal, os._exit, the OOM killer) before
    its jobs returned."""


def usable_cores() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, the machine's count otherwise."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def processes() -> int:
    """How many processes a run_jobs call made now may use: the usable
    cores, or 1 inside a job of a run_jobs call that forked, without
    fork on the platform, or while other threads are running (a fork
    copies their locks in whatever state they are)."""
    if _in_forked_call or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return usable_cores()


def part_bounds(size: int, floor: int) -> list:
    """Bounds of near-equal contiguous parts of range(size): one part per
    process a run_jobs call may use, but none shorter than floor unless
    it is the only one. Part k is range(bounds[k], bounds[k + 1])."""
    parts = max(1, min(processes(), size // floor))
    return [size * k // parts for k in range(parts + 1)]


def _run_share(jobs, start: int, stop: int) -> tuple:
    """([return value of each job run], (index, exception) or None) of
    jobs[start:stop], run in order until the first that raises."""
    results = []
    for index in range(start, stop):
        try:
            results.append(jobs[index]())
        except Exception as exc:  # handed to run_jobs' caller, in job order
            return results, (index, exc)
    return results, None


def _sendable(outcome: tuple, start: int) -> tuple:
    """The outcome of the share starting at job start, with its first
    value that does not survive a pickle round trip, and every value
    after it, replaced by a RuntimeError naming that job and the value's
    type."""
    results, error = outcome
    values = results + ([error[1]] if error is not None else [])
    for n, value in enumerate(values):
        try:
            pickle.loads(pickle.dumps(value))
        except Exception as exc:
            how = "raised" if n == len(results) else "returned"
            return results[:n], (start + n, RuntimeError(
                "job %d %s a %s, which a worker process cannot send back: %s"
                % (start + n, how, type(value).__name__, exc)))
    return outcome


def _fork_share(jobs, start: int, stop: int) -> tuple:
    """Fork a child that runs jobs[start:stop]; returns (pid, read end of
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
            payload = pickle.dumps(_sendable(_run_share(jobs, start, stop), start))
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


def _received(payload: bytes, status: int) -> tuple:
    """The outcome a child sent, or an empty one and how the child ended
    if it ended without sending one."""
    try:
        return pickle.loads(payload), None
    except (EOFError, pickle.UnpicklingError):  # it ended before sending all of it
        pass
    code = os.waitstatus_to_exitcode(status)
    return ([], None), "by signal %d" % -code if code < 0 else "with status %d" % code


def run_jobs(jobs: list) -> list:
    """Each job's return value, in the jobs' order.

    The jobs are cut into part_bounds(len(jobs), 1): one contiguous share
    per process. Each share but the last runs in a forked child, the last
    here, and each stops at its first job that raises. Every child is
    reaped before this returns or raises, also when a job raises, here or
    in a child. The first fault in share order reaches the caller: a
    job's exception; a WorkerLost naming the first job of a share whose
    child ended without sending its results; or a RuntimeError naming a
    job whose return value or exception pickle cannot send back,
    whichever process ran it. Where processes() or the job count is 1,
    all jobs run here, one after another; a run_jobs call inside a job of
    a call that forked runs so, and forks nothing.
    """
    global _in_forked_call
    bounds = part_bounds(len(jobs), 1)
    if len(bounds) < 3:
        return [job() for job in jobs]
    children = []   # (pid, read end) of each forked share
    statuses = []
    failed = True
    _in_forked_call = True
    try:
        for k in range(len(bounds) - 2):
            children.append(_fork_share(jobs, bounds[k], bounds[k + 1]))
        last = _sendable(_run_share(jobs, bounds[-2], bounds[-1]), bounds[-2])
        payloads = [_read_to_end(read_end) for _, read_end in children]
        failed = False
    finally:
        _in_forked_call = False
        for pid, read_end in children:
            os.close(read_end)
            if failed:
                # this call is being interrupted: its children's work is lost
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])
    outcomes = [_received(payload, status) for payload, status in zip(payloads, statuses)]
    values = []
    for start, ((results, error), how) in zip(bounds, outcomes + [(last, None)]):
        if how is not None:
            raise WorkerLost("job %d: the worker process that ran it ended %s before "
                             "sending its results" % (start, how))
        values += results
        if error is not None:
            raise error[1]
    return values
