"""One protocol for the package's forked processes.

The verify suite runs each check (and each share of the bond check's paths)
in a forked child, and a solve of several row blocks steps all but the first
share of its paths (``solver._shares``) in forked children.  Both go through
``_forked``: a child runs one zero-argument job and sends back one pickled
(value, error, warnings), which the caller reads, in order, as if the job
had run in it.  Large arrays a child computes are written into
``_shared_arrays`` instead, which the caller allocates before the fork, so
they are never pickled.  A run therefore needs ``os.fork`` (POSIX only).
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import mmap
import os
import pickle
import signal
import warnings

import numpy as np

# OpenBLAS's thread-count getter and setter under each build's symbol names:
# plain, 64-bit integers, and the scipy-openblas builds that numpy's wheels ship
_OPENBLAS_THREADS = [
    (f"{prefix}openblas_get_num_threads{suffix}", f"{prefix}openblas_set_num_threads{suffix}")
    for prefix in ("", "scipy_")
    for suffix in ("", "64_")
]


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


def _fork(job):
    """Fork a process that runs ``job()``, writes the pickled (value, error,
    warnings) to a pipe, and exits.

    The error is None or the exception the job raised, as
    ``_sendable_error`` makes it; the warnings are those it issued, as
    ``_sendable`` makes them.  The output is pickled whole before any of it
    is written.  Returns the child's pid and the pipe's read end.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:  # the child: it leaves only through os._exit
        status = 1
        try:
            os.close(read_fd)
            with warnings.catch_warnings(record=True) as caught:
                try:
                    value, error = job(), None
                except Exception as exc:  # noqa: BLE001 - re-raised by the parent
                    value, error = None, _sendable_error(exc)
            issued = [_sendable(w) for w in caught]
            payload = pickle.dumps((value, error, issued), protocol=pickle.HIGHEST_PROTOCOL)
            with open(write_fd, "wb") as fh:
                fh.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def _read_child(pipe):
    """The pickled output a child wrote, read to the pipe's end, or None
    when it stops short, as it does when the child died."""
    try:
        output = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        output = None
    pipe.read()
    return output


def _child_value(label: str, status: int, output):
    """The value of the child that ``label`` names, from its wait status and
    output.

    The child's warnings are issued again here.  The error of a job that
    raised is raised again: the exception itself, or one of its type name
    and message that derives from RuntimeError.  A child that died or exited
    otherwise raises a RuntimeError that names ``label``.
    """
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        raise RuntimeError(f"{label} died from signal {signal.Signals(-code).name}")
    if code:
        raise RuntimeError(f"{label} exited with code {code}")
    if output is None:
        raise RuntimeError(f"{label} wrote a short result")
    value, error, issued = output
    for category, message, filename, lineno in issued:
        warnings.warn_explicit(message, category, filename, lineno)
    if isinstance(error, Exception):
        raise error
    if error is not None:
        type_name, message = error
        raise type(type_name, (RuntimeError,), {})(message)
    return value


@contextlib.contextmanager
def _forked(jobs: list):
    """Fork one child per (label, job) of ``jobs``, each running OpenBLAS on
    one thread, and yield a join that returns their values in order.

    The caller keeps its own OpenBLAS setting in the block.  The join reads
    each child's pipe to the end before it waits for the child, so a large
    output cannot block a child on a full pipe.  In order, it issues each
    child's warnings again and raises the error of the first child that
    failed (``_child_value``).  However the block is left, every child not
    yet joined is killed and reaped.
    """
    children = []  # (label, pid, pipe) of each child not yet reaped

    def join() -> list:
        values = []
        while children:
            label, pid, pipe = children[0]
            output = _read_child(pipe)
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            pipe.close()
            values.append(_child_value(label, status, output))
        return values

    try:
        if jobs:
            with _one_blas_thread():
                for label, job in jobs:
                    children.append((label, *_fork(job)))
        yield join
    finally:
        for _label, pid, pipe in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()


def _run_shares(jobs: list) -> list:
    """Run the first (label, job) of ``jobs`` in this process and each later
    one in a forked child (``_forked``); returns their values in order.

    With a child, this process runs its job on one OpenBLAS thread too: the
    children fill the other cores, and an idle OpenBLAS thread spins on
    them.  A single job runs as it is, on the caller's setting.
    """
    (_label, here), *rest = jobs
    if not rest:
        return [here()]
    with _one_blas_thread(), _forked(rest) as join:
        return [here(), *join()]

