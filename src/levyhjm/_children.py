"""One protocol for the package's forked processes.

``_pool`` runs a list of zero-argument jobs in forked worker processes and
gives the caller their values, warnings and errors in the jobs' order, as if
each had run in it.  The job indices wait in one queue, a pipe written whole
before any fork; each worker takes one index at a time until the queue is
empty, and writes each job's index and then its pickled (value, error,
warnings) to a temporary file of its own.  The verify suite forks one worker
per usable core but one while it simulates, and the last when it joins; a
solve of several row blocks steps all but the first share of its paths
(``solver._shares``) in workers of one job each (``_run_shares``).  Large
arrays a worker computes are written into ``_shared_arrays`` instead, which
the caller allocates before the fork, so they are never pickled.  A worker
dies with the process that forked it (``_die_with_parent``).  A run
therefore needs ``os.fork`` (POSIX only).
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import math
import mmap
import os
import pickle
import signal
import struct
import tempfile
import warnings
from functools import partial

import numpy as np

# OpenBLAS's thread-count getter and setter under each build's symbol names:
# plain, 64-bit integers, and the scipy-openblas builds that numpy's wheels ship
_OPENBLAS_THREADS = [
    (f"{prefix}openblas_get_num_threads{suffix}", f"{prefix}openblas_set_num_threads{suffix}")
    for prefix in ("", "scipy_")
    for suffix in ("", "64_")
]

# One job index as the queue holds it.  The whole queue is written in one
# call before any worker is forked, and a read of one record from a pipe is
# never split, so each read takes one job.
_INDEX = struct.Struct("i")
# prctl's option that sets the signal a process gets when its parent ends
_PR_SET_PDEATHSIG = 1


@contextlib.contextmanager
def _one_blas_thread():
    """Run the OpenBLAS this process has loaded on one thread in the block,
    and restore the caller's setting when it ends.

    A process forked in the block runs on one thread without a call of its
    own.  The checks and the simulation already fill the cores, and a second
    OpenBLAS thread spins while it waits for work: on two cores, with two
    OpenBLAS threads, the six checks of ``gamma_hjm.yaml`` took 1.8-2.2 s of
    CPU in their processes against 0.9-1.0 s with one, and the run was no
    faster than running them one after another.  Setting the count in a
    freshly forked child instead starts a pool thread, which spins about
    0.13 s before it sleeps.  So does any call of the setter in a process
    whose pool a fork has shut down, even one that keeps the count, so a
    library already on one thread is left alone.  OpenBLAS splits a product
    over its outputs, so the reports are the same bits on one thread.
    Loaded libraries are read from /proc/self/maps; without that file, or
    under another BLAS, this does nothing.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
        libs = [ctypes.CDLL(path) for path in paths]
    except OSError:
        libs = []
    restore = []  # (setter, the caller's thread count) of each library changed
    for lib in libs:
        for get_name, set_name in _OPENBLAS_THREADS:
            getter, setter = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                n_threads = getter()
                if n_threads != 1:
                    restore.append((setter, n_threads))
                    setter(1)
                break
    try:
        yield
    finally:
        for setter, n_threads in restore:
            setter(n_threads)


def _usable_cores() -> int:
    """How many cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _shared_arrays(layout: list[tuple[tuple[int, ...], type]]) -> list[np.ndarray]:
    """Zeroed arrays of each (shape, dtype) of ``layout``, all in one shared
    anonymous mapping: what a forked child writes into them, its caller
    reads.  The mapping lives as long as any of the arrays."""
    sizes = [math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in layout]
    buffer = mmap.mmap(-1, max(1, sum(sizes)))
    arrays, offset = [], 0
    for (shape, dtype), size in zip(layout, sizes):
        arrays.append(np.frombuffer(buffer, dtype, math.prod(shape), offset).reshape(shape))
        offset += size
    return arrays


def _sendable(caught: warnings.WarningMessage) -> tuple:
    """A warning a child issued as it sends it: (category, message, file,
    line).  A category that pickle cannot find by name, such as a class
    defined in a function, is sent as UserWarning, with its qualified name
    before the message."""
    category, message = caught.category, str(caught.message)
    try:
        pickle.dumps(category)
    except (AttributeError, pickle.PicklingError):
        category, message = UserWarning, f"{category.__qualname__}: {message}"
    return category, message, caught.filename, caught.lineno


def _sendable_error(exc: Exception):
    """An exception a child raised as it sends it: itself when it comes back
    whole from pickle, else its type name and message."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:  # noqa: BLE001 - any failure to round-trip sends the name
        return type(exc).__name__, str(exc)
    return exc


def _die_with_parent(parent: int) -> None:
    """Have the kernel kill this forked process when ``parent``, the
    process that forked it, ends, and end it at once if that has happened.

    A caller stopped by SIGTERM runs no ``finally`` that could kill its
    workers.  Where ``prctl`` is missing (outside Linux) this does nothing.
    """
    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    if prctl is None:
        return
    prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(1)


def _taken(queue: int):
    """The job indices read from the pipe ``queue``, one record at a time,
    until it is empty."""
    records = iter(partial(os.read, queue, _INDEX.size), b"")
    return (_INDEX.unpack(record)[0] for record in records)


def _serve(jobs: list, indices, out) -> None:
    """Run the jobs of ``jobs`` at ``indices``, one after another.

    Of each job it writes to ``out`` its pickled index before running it,
    so a worker that dies is seen with the job it died in, then the pickled
    (value, error, warnings), pickled whole before any of it is written.
    The error is None or the exception the job raised, as
    ``_sendable_error`` makes it; the warnings are those it issued, as
    ``_sendable`` makes them.
    """
    for i in indices:
        out.write(pickle.dumps(i))
        out.flush()
        # a fresh record per job: it also resets the warning registries, so
        # a warning is shown as if the job were the worker's only one
        with warnings.catch_warnings(record=True) as caught:
            try:
                value, error = jobs[i][1](), None
            except Exception as exc:  # noqa: BLE001 - re-raised by the caller
                value, error = None, _sendable_error(exc)
        issued = [_sendable(w) for w in caught]
        out.write(pickle.dumps((value, error, issued), protocol=pickle.HIGHEST_PROTOCOL))
        out.flush()


def _outputs(out) -> tuple[dict, int | None]:
    """What an ended worker wrote to ``out``: each whole output by job
    index, and the index of a job it took but wrote no whole output of
    (the job it ended in), or None."""
    out.seek(0)
    outputs = {}
    while True:
        try:
            i = pickle.load(out)
        except EOFError:
            return outputs, None
        try:
            outputs[i] = pickle.load(out)
        except (EOFError, pickle.UnpicklingError):
            return outputs, i


def _failure(label: str, status: int) -> RuntimeError:
    """The error that names ``label`` for a worker's wait status."""
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        return RuntimeError(f"{label} died from signal {signal.Signals(-code).name}")
    if code:
        return RuntimeError(f"{label} exited with code {code}")
    return RuntimeError(f"{label} wrote a short result")


def _value(output):
    """The value of one job's output (value, error, warnings).

    The job's warnings are issued again here.  Its error is raised again:
    the exception itself, or one of its type name and message that derives
    from RuntimeError.
    """
    value, error, issued = output
    for category, message, filename, lineno in issued:
        warnings.warn_explicit(message, category, filename, lineno)
    if isinstance(error, Exception):
        raise error
    if error is not None:
        type_name, message = error
        raise type(type_name, (RuntimeError,), {})(message)
    return value


def _values(jobs: list, ended: list) -> list:
    """The values of the (label, job) pairs of ``jobs``, in order, from the
    (wait status, outputs, job ended in) of every worker.

    In the order of ``jobs`` each value is read by ``_value``, which issues
    the job's warnings and raises its error, and a job a worker ended in
    raises a RuntimeError naming it (``_failure``).  A job that no worker
    took, since every worker ended early, is skipped; if no other job
    raised, the first such job is named with the status of a worker that
    ended early.
    """
    outputs, ended_in = {}, {}
    for status, done, taken in ended:
        outputs.update(done)
        if taken is not None:
            ended_in[taken] = status
    values, untaken = [], []
    for i, (label, _job) in enumerate(jobs):
        if i in ended_in:
            raise _failure(label, ended_in[i])
        if i in outputs:
            values.append(_value(outputs[i]))
        else:
            untaken.append(label)
    if untaken:
        raise _failure(untaken[0], next((s for s, _, _ in ended if s), 0))
    return values


@contextlib.contextmanager
def _pool(jobs: list, order, early: int, late: bool):
    """Run the (label, job) pairs of ``jobs`` in forked workers, which take
    them from one queue in ``order``, and yield a join that returns their
    values in the order of ``jobs``.

    The queue is a pipe of job indices, written whole before any fork.
    ``early`` workers, but no more than the jobs, are forked at once.  With
    ``late``, the join takes the next job from the queue, if one is left,
    and forks one more worker that runs it first.  Each worker runs
    OpenBLAS on one thread.  The caller keeps its own setting in the block;
    after a late fork, the join restores it only once every worker has
    ended, so no OpenBLAS thread it starts spins beside them.
    Each worker writes to a temporary file of its own, which a large output
    cannot fill, so no worker waits for the join (``_serve``).

    The join waits for every worker, then reads the values in order
    (``_values``).  However the block is left, every worker not yet joined
    is killed and reaped.
    """
    parent = os.getpid()
    workers = []  # (pid, output file) of each worker not yet reaped
    queue = None  # the read end of the queue

    def fork_worker(first=()):
        out = tempfile.TemporaryFile()
        try:
            pid = os.fork()
        except BaseException:
            out.close()
            raise
        if pid == 0:  # the worker: it leaves only through os._exit
            status = 1
            try:
                _die_with_parent(parent)
                _serve(jobs, itertools.chain(first, _taken(queue)), out)
                status = 0
            finally:
                os._exit(status)
        workers.append((pid, out))

    def join() -> list:
        # the queue's write end is closed, so an empty queue reads as ended at once
        first = list(itertools.islice(_taken(queue), 1)) if late and queue is not None else []
        ended = []  # (wait status, outputs, job ended in) of each worker
        with _one_blas_thread() if first else contextlib.nullcontext():
            if first:
                fork_worker(first)
            while workers:
                pid, out = workers[0]
                _, status = os.waitpid(pid, 0)
                workers.pop(0)
                with out:
                    ended.append((status, *_outputs(out)))
        return _values(jobs, ended)

    try:
        if jobs:
            queue, write_end = os.pipe()
            # at most a pipe's capacity, so the write cannot wait for a reader
            with open(write_end, "wb") as fh:
                fh.write(b"".join(_INDEX.pack(i) for i in order))
            with _one_blas_thread():
                for _ in range(min(early, len(jobs))):
                    fork_worker()
        yield join
    finally:
        for pid, out in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            out.close()
        if queue is not None:
            os.close(queue)


def _run_shares(jobs: list) -> list:
    """Run the first (label, job) of ``jobs`` in this process and each later
    one in a forked worker of its own (``_pool``); returns their values in
    order.

    With a worker, this process runs its job on one OpenBLAS thread too:
    the workers fill the other cores, and an idle OpenBLAS thread spins on
    them.  A single job runs as it is, on the caller's setting.
    """
    (_label, here), *rest = jobs
    if not rest:
        return [here()]
    with _one_blas_thread(), _pool(rest, range(len(rest)), len(rest), late=False) as join:
        return [here(), *join()]
