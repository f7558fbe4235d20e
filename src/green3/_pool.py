"""The process-wide worker pool behind the CLI's check tasks and the kernel evaluation.

``GREEN3_THREADS`` caps the threads that work at once, the calling thread
included: the pool has cap − 1 workers, and whoever hands work to it runs the
first callable itself and afterwards every callable the pool has not started.
A thread therefore only ever waits for work that is already running, so work
handed in from a pool worker (a check task splitting its Bessel/Hankel
evaluation) cannot deadlock.  The pool is one per process because the kernels
are evaluated deep below the check tasks, and it is created on first use, so
importing the package starts no thread.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np

from .errors import ConfigurationError

CHUNK_POINTS = 8192  # fewest kernel points worth handing to another thread

_lock = threading.Lock()
_executor = None
_width = 0  # the workers of _executor
_busy = 0  # callables submitted to the pool and not yet finished or taken back


def thread_cap() -> int:
    """``GREEN3_THREADS`` as a count >= 1; 4 when it is unset."""
    cap = os.environ.get("GREEN3_THREADS")
    if cap is None:
        return 4
    message = f"GREEN3_THREADS must be an integer >= 1, got {cap!r}"
    try:
        limit = int(cap)
    except ValueError:
        raise ConfigurationError(message) from None
    if limit < 1:
        raise ConfigurationError(message)
    return limit


def _workers() -> ThreadPoolExecutor | None:
    """The pool sized for the current cap (None for a cap of 1)."""
    global _executor, _width
    width = thread_cap() - 1
    with _lock:
        if _executor is not None and _width != width:
            _executor.shutdown(wait=False)  # the cap changed between runs
            _executor = None
        if _executor is None and width > 0:
            _executor = ThreadPoolExecutor(max_workers=width, thread_name_prefix="green3")
        _width = width
        return _executor


def _counted(fn):
    global _busy
    try:
        return fn()
    finally:
        with _lock:
            _busy -= 1


def _submit(pool: ThreadPoolExecutor, fn) -> Future:
    global _busy
    with _lock:
        _busy += 1
    return pool.submit(_counted, fn)


def _take_back(fut: Future) -> bool:
    """Cancel a callable the pool has not started; False once it runs or was taken."""
    global _busy
    if fut.done() or not fut.cancel():
        return False
    with _lock:
        _busy -= 1
    return True


def _run_here(fn) -> Future:
    fut = Future()
    try:
        fut.set_result(fn())
    except Exception as exc:  # raised in order by run_all, as for pool futures
        fut.set_exception(exc)
    return fut


def run_all(fns) -> list:
    """The results of ``fns`` in order; the first error in that order is raised.

    The caller runs ``fns[0]``, then each callable the pool has not started
    (none after an error), and waits for the ones running elsewhere."""
    fns = list(fns)
    pool = _workers()
    if pool is None or len(fns) < 2:
        return [fn() for fn in fns]
    queued = [_submit(pool, fn) for fn in fns[1:]]
    outcomes = [_run_here(fns[0]), *queued]
    try:
        failed = outcomes[0].exception() is not None
        for i, fut in enumerate(queued, 1):
            if _take_back(fut) and not failed:
                outcomes[i] = _run_here(fns[i])
                failed = outcomes[i].exception() is not None
    finally:
        for fut in queued:
            # a cancelled future counts as done for wait() only once a worker
            # dequeues it, so wait on the running ones alone
            if not _take_back(fut) and not fut.cancelled():
                fut.exception()
    return [fut.result() for fut in outcomes]


def elementwise(ufunc, *args):
    """``ufunc(*args)`` for an elementwise ufunc that releases the GIL.

    The last argument ``x`` is the array, the others are scalars.  ``x`` is
    split into contiguous chunks of at least ``CHUNK_POINTS`` points, one for
    the caller and one per idle worker, each written through ``out=`` into one
    result array of ``x``'s dtype; every point goes through the same routine as
    in one call, so the values are bit-identical."""
    *params, x = args
    if x.size < 2 * CHUNK_POINTS or _workers() is None:
        return ufunc(*args)
    with _lock:
        idle = max(0, _width - _busy)
    count = min(1 + idle, x.size // CHUNK_POINTS)
    if count < 2:
        return ufunc(*args)
    # the result owns its buffer, as a ufunc's does, so numpy's reuse of
    # temporaries (and with it the rounding of the caller's next operation)
    # is the same as after one call
    out = np.empty(x.shape, dtype=x.dtype)
    flat, flat_out = x.reshape(-1), out.reshape(-1)
    bounds = [i * flat.size // count for i in range(count + 1)]
    run_all([lambda a=a, b=b: ufunc(*params, flat[a:b], out=flat_out[a:b])
             for a, b in zip(bounds, bounds[1:])])
    return out
