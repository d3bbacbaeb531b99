"""Independent jobs across the usable cores: forked children and the caller.

Two callers hand run_jobs a list of jobs that share nothing: the CLI
scenarios (one per run, simulating its closed loop and writing its trace
file), and sim's trace CSV I/O (SimulationTrace.to_csv writes, and
load_trace_csv parses, one contiguous part of one file's rows per job,
the parts cut by part_bounds). Their costs differ: a stable closed loop
runs every step, a diverging one stops early. run_jobs therefore hands
the jobs out on demand. Before it forks min(processes(), jobs) - 1
children, it writes one token per job (per contiguous chunk of jobs,
for long lists) into a pipe; each child and the calling process then
take one token at a time until the pipe is empty, so no process waits
while another still has jobs queued.

processes() is the one rule for how many processes a call may use: the
usable cores, or 1 inside a job of a run_jobs call that forked (in a
child and in the caller alike), with no fork on the platform, or while
other threads run. A trace file that a scenario's job writes is thus one
part, and that scenario forks only for its jobs.

A job is a callable taking no argument, at times a closure (a lambda
over a stability grid) that pickle cannot send. The children inherit
the job list through the fork instead, so nothing goes out to a child,
and only the return values of the jobs it ran (or the exception that
stopped it) come back, pickled over a pipe.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading

# A token is a chunk number of _TOKEN_BYTES bytes. All tokens go into
# the pipe in one write before the first fork, so that write must fit a
# pipe's buffer: 2,048 tokens are 4,096 bytes, Linux's PIPE_BUF and the
# smallest capacity a Linux pipe is given.
_TOKEN_BYTES = 2
_MAX_TOKENS = 2048

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


def _run_claimed(jobs, bounds: list, tokens: int) -> tuple:
    """({index: return value}, (index, exception) or None) of the jobs
    this process claims from the token pipe: it takes one token at a time
    and runs that chunk, jobs[bounds[k]:bounds[k + 1]], in order, until
    the pipe is empty or a job raises."""
    results = {}
    while token := os.read(tokens, _TOKEN_BYTES):
        k = int.from_bytes(token, "little")
        for index in range(bounds[k], bounds[k + 1]):
            try:
                results[index] = jobs[index]()
            except Exception as exc:  # handed to run_jobs' caller, in job order
                return results, (index, exc)
    return results, None


def _sendable(outcome: tuple) -> tuple:
    """The outcome with its first value that does not survive a pickle
    round trip, and every value after it, replaced by a RuntimeError
    naming that job and the value's type."""
    results, error = outcome
    entries = list(results.items()) + ([error] if error is not None else [])
    for n, (index, value) in enumerate(entries):
        try:
            pickle.loads(pickle.dumps(value))
        except Exception as exc:
            how = "raised" if n == len(results) else "returned"
            return dict(entries[:n]), (index, RuntimeError(
                "job %d %s a %s, which a worker process cannot send back: %s"
                % (index, how, type(value).__name__, exc)))
    return outcome


def _fork_worker(jobs, bounds: list, tokens: int) -> tuple:
    """Fork a child that runs _run_claimed; returns (pid, read end of the
    pipe that carries its pickled outcome)."""
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
            outcome = _run_claimed(jobs, bounds, tokens)
            os.close(tokens)
            payload = pickle.dumps(_sendable(outcome))
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
    return ({}, None), "by signal %d" % -code if code < 0 else "with status %d" % code


def run_jobs(jobs: list) -> list:
    """Each job's return value, in the jobs' order.

    min(processes(), jobs) processes run the jobs: forked children and
    this one. Each takes the next unclaimed job (up to 2,048 tokens, each
    a contiguous chunk of a longer list) when it is free, and stops at its
    first job that raises. Every child is reaped before this returns or
    raises, also when a job raises, here or in a child. The first
    exception in job order reaches the caller; a job whose result never
    came back, because the child that claimed it died, raises a
    WorkerLost naming that job; and a return value or exception that
    pickle cannot send back, whichever process ran its job, raises a
    RuntimeError naming its job. Where processes() or the job count is 1,
    the jobs run here instead, one after another; a run_jobs call inside
    a job of a call that forked runs so, and forks nothing.
    """
    global _in_forked_call
    workers = min(processes(), len(jobs))
    if workers < 2:
        return [job() for job in jobs]
    n_tokens = min(len(jobs), _MAX_TOKENS)
    bounds = [len(jobs) * k // n_tokens for k in range(n_tokens + 1)]
    tokens, token_writer = os.pipe()
    children = []   # (pid, read end) of each forked worker
    statuses = []
    failed = True
    _in_forked_call = True
    try:
        try:
            os.write(token_writer, b"".join(k.to_bytes(_TOKEN_BYTES, "little")
                                            for k in range(n_tokens)))
        finally:
            os.close(token_writer)
        for _ in range(workers - 1):
            children.append(_fork_worker(jobs, bounds, tokens))
        outcomes = [_sendable(_run_claimed(jobs, bounds, tokens))]
        payloads = [_read_to_end(read_end) for _, read_end in children]
        failed = False
    finally:
        _in_forked_call = False
        os.close(tokens)
        for pid, read_end in children:
            os.close(read_end)
            if failed:
                # this call is being interrupted: its children's work is lost
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])
    lost = []   # how each child that sent nothing ended
    for payload, status in zip(payloads, statuses):
        outcome, how = _received(payload, status)
        outcomes.append(outcome)
        if how is not None:
            lost.append(how)
    values = {}
    errors = {}
    for results, error in outcomes:
        values.update(results)
        if error is not None:
            errors[error[0]] = error[1]
    for index in range(len(jobs)):
        if index in errors:
            raise errors[index]
        if index not in values:
            raise WorkerLost("job %d: the worker process that claimed it ended %s before "
                             "sending its results" % (index, " or ".join(lost)))
    return [values[index] for index in range(len(jobs))]
