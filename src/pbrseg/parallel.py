"""One thread per core for independent jobs, with BLAS pinned to one thread.

``run`` maps a function over jobs on a pool of ``threads()`` threads: one per
core the process may use. numpy's bundled OpenBLAS would start its own pool
inside every product, so it is pinned to one thread while a pool runs and
restored afterwards, through the thread-count calls the library exports.
There is one BLAS pool per process, so the pin is counted across threads:
the first section to enter saves the pool size and the last to leave
restores it, also when a job raised. ``infer`` runs its volumes on the
pool and ``train-init`` its views, whose training (``training.fit``) holds
its own pin; a job that calls ``run`` itself (the view estimate of such a
volume) runs its jobs on its own thread, so pools never nest. Where BLAS cannot be
pinned, ``threads()`` is 1 and the jobs run serially. Results come back in
job order, so they do not depend on the number of threads.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from functools import cache
from pathlib import Path

import numpy as np

# the BLAS thread count is process state, so its pin count is too
_lock = threading.Lock()
_pins = 0  # pinned sections open, over all threads
_saved = None  # BLAS pool size when the first of them opened
_in_pool = threading.local()


@cache
def _openblas():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(
            "libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


def cores() -> int:
    """Number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def threads() -> int:
    """Pool size of ``run``: one thread per core where BLAS can be pinned,
    else 1."""
    return cores() if _openblas() else 1


def blas_threads():
    """BLAS pool size outside pinned sections; None where it cannot be pinned."""
    blas = _openblas()
    if blas is None:
        return None
    with _lock:
        return _saved if _pins else blas[0]()


@contextmanager
def pinned_blas():
    """Run the block with BLAS on one thread."""
    global _pins, _saved
    blas = _openblas()
    with _lock:
        if _pins == 0 and blas:
            _saved = blas[0]()
            blas[1](1)
        _pins += 1
    try:
        yield
    finally:
        with _lock:
            _pins -= 1
            if _pins == 0 and blas:
                blas[1](_saved)


def _mark_pool_thread():
    _in_pool.active = True


def run(fn, jobs) -> list:
    """``[fn(job) for job in jobs]`` on ``min(threads(), len(jobs))``
    threads with BLAS pinned; on the calling thread when one thread is
    enough or the caller is itself a job of a pool."""
    jobs = list(jobs)
    workers = min(threads(), len(jobs))
    if workers <= 1 or getattr(_in_pool, "active", False):
        return [fn(job) for job in jobs]
    with pinned_blas(), ThreadPoolExecutor(workers, initializer=_mark_pool_thread) as pool:
        return list(pool.map(fn, jobs))
