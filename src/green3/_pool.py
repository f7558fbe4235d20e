"""The process-wide worker pool behind the CLI's check tasks.

``GREEN3_THREADS`` caps the threads that work at once, the calling thread
included: the pool has cap − 1 workers, and whoever hands work to it runs the
first callable itself and afterwards every callable the pool has not started.
A thread therefore only ever waits for work that is already running, so work
handed in from a pool worker cannot deadlock either.  ``cli._run`` is the one
caller: each check task builds its layer bundles in its own thread.  The pool
is one per process, shared by every run in it, and it is created on first
use, so importing the package starts no thread.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor

from .errors import ConfigurationError

_lock = threading.Lock()
_executor = None
_width = 0  # the workers of _executor


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


class _cached_property:
    """``functools.cached_property`` as in Python 3.12: the first read computes
    the value and stores it in the instance ``__dict__``, which serves every
    later read.  Python 3.11 takes one lock per attribute shared by all
    instances, so two check tasks, each with its own layer bundle, took turns
    on S and its singular values.  Two threads that read one instance's
    attribute for the first time may each compute it; every use here is a pure
    function of the instance, so both get equal values."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


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
    queued = [pool.submit(fn) for fn in fns[1:]]
    outcomes = [_run_here(fns[0]), *queued]
    try:
        failed = outcomes[0].exception() is not None
        for i, fut in enumerate(queued, 1):
            # cancel() takes back a callable no worker has started
            if fut.cancel() and not failed:
                outcomes[i] = _run_here(fns[i])
                failed = outcomes[i].exception() is not None
    finally:
        for fut in queued:
            # a cancelled future counts as done for wait() only once a worker
            # dequeues it, so wait on the running ones alone
            if not fut.cancel():
                fut.exception()
    return [fut.result() for fut in outcomes]
