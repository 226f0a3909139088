"""Run independent calls in forked children of this process.

The ranged panel read, the panel writer and the replication study each split
their work into independent zero-argument calls. ``forked`` runs the first in this process
and each other one in a forked child, which sends its result back pickled
through a pipe. A call whose child could not start, failed, died or sent a
short result runs again here, so a result never depends on whether a child
ran. ``workers`` says how many processes a piece of work is worth.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Sequence
from contextlib import contextmanager
from typing import Any, TypeVar

T = TypeVar("T")

# the thread-count functions of OpenBLAS under the names numpy's wheels
# export: scipy_openblas*64_ since numpy 2.0, openblas*64_ before
_OPENBLAS_THREADS = [(f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
                     for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")]


def workers(work: int, floor: int) -> int:
    """How many processes share ``work`` units: one per CPU this process may
    run on, each with at least ``floor`` units. One where the platform has no
    ``sched_getaffinity`` or ``fork``, and while another thread runs, which a
    fork would not copy."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    import threading
    if threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), work // floor))


def _fork(call: Callable[[], Any]):
    """Fork a child that runs ``call`` and writes its result, pickled, to a
    pipe. Returns the child's pid and the pipe's read end, or None if no pipe
    or child could be made."""
    import pickle
    try:
        fd, out = os.pipe()
    except OSError:
        return None
    try:
        # safe beside numpy: OpenBLAS joins its threads in its own
        # pthread_atfork handler (so Python 3.12, which counts threads after
        # that handler, has none to warn of), and the child runs one call,
        # writes to its pipe and leaves through os._exit, so it runs no atexit
        # handler and flushes none of the parent's buffered output
        pid = os.fork()
    except OSError:
        os.close(fd)
        os.close(out)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(fd)
            result = call()
            with open(out, "wb") as pipe:
                pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(out)
    return pid, open(fd, "rb")


def forked(calls: Sequence[Callable[[], T]]) -> list[T]:
    """Each call's result, in order. This process runs the first call, and a
    forked child each other one. A call whose child could not be forked,
    raised, exited nonzero, died by a signal or sent a short result runs
    again here, so its error, if any, is raised here. On any exception every
    live child is killed, and every child is reaped."""
    children = {}  # call index -> (pid, read end of its pipe), until reaped
    try:
        for k in range(1, len(calls)):
            child = _fork(calls[k])
            if child is not None:
                children[k] = child
        results = [calls[0]()]
        for k in range(1, len(calls)):
            sent = False
            if k in children:
                import pickle
                pid, pipe = children[k]
                with pipe:
                    try:
                        result, sent = pickle.load(pipe), True
                    except (EOFError, pickle.UnpicklingError):  # a short result
                        pass
                sent &= os.waitpid(pid, 0)[1] == 0  # not killed, and exited 0
                del children[k]
            results.append(result if sent else calls[k]())
        return results
    finally:
        if children:
            import signal
            for pid, pipe in children.values():
                os.kill(pid, signal.SIGKILL)
                pipe.close()
            for pid, _ in children.values():
                os.waitpid(pid, 0)


def _openblas_threads():
    """The get and set functions of the thread count of the OpenBLAS that
    numpy calls, or None where none of the known names is found."""
    import ctypes

    from numpy.linalg import _umath_linalg
    try:
        # the library numpy already loaded: dlsym searches its dependencies
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None
    for get_name, set_name in _OPENBLAS_THREADS:
        get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def one_blas_thread():
    """A context that holds OpenBLAS to one thread in this process, and so in
    every child it forks meanwhile, and restores the old count when it ends;
    None where numpy's OpenBLAS thread count cannot be set. Forked workers
    beside OpenBLAS's spinning helper threads run slower than one process."""
    threads = _openblas_threads()
    return None if threads is None else _capped(*threads)


@contextmanager
def _capped(get: Callable[[], int], set_: Callable[[int], None]):
    old = get()
    set_(1)
    try:
        yield
    finally:
        set_(old)
