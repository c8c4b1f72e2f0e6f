"""The second core: whether proptree may use one, and the two ways it does.

The joint model trains and predicts one document at a time, so proptree's
only parallelism is a second core, and this module is the one place that
starts a thread or forks.  ``SECOND_CORE`` is the gate.  Untaped
``nn.pair_mlp`` scores half of a long document's label heads on a thread
(``beside``); training runs the pipeline's edge stage, and each joint
validation that cannot stop training, in a forked child (``in_child``), which
writes the best epoch's weights to a buffer that ``shared_like`` maps.  A fork
round trip costs milliseconds, as much as the label split saves a document,
so each use keeps its own mechanism.  Callers read ``SECOND_CORE`` when they
run: setting it switches both.
"""

from __future__ import annotations

import mmap
import os
import pickle
import signal
import threading
from contextlib import suppress
from typing import Callable, Mapping

import numpy as np


def second_core_allowed(cpus: int, environ: Mapping[str, str]) -> bool:
    """Whether proptree may put work on a second core: the process may use at
    least two CPUs and BLAS runs one thread.

    OpenBLAS takes its thread count, when it loads, from the first of
    OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and OMP_NUM_THREADS that holds a
    positive number, and uses every core when none does.  A threaded BLAS
    serves both threads' products from its own threads, and the split then
    loses time.
    """
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return cpus >= 2 and int(value) == 1
    return False


# Read once, as OpenBLAS reads its variables once.
SECOND_CORE = second_core_allowed(
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1, os.environ)
# Untaped ``pair_mlp`` splits its heads from this many rows on: the crossover
# of the sweep in README "Joint scorer".  Below it, starting the thread and the
# two threads' turns at the interpreter lock cost more than the second core saves.
SPLIT_ROWS = 56


def beside(fn: Callable, there, here) -> None:
    """Runs fn(there) on a new thread while fn(here) runs on this one.

    The thread is joined before this returns, also when fn(here) raises, and
    an exception of fn(there) is raised here.  The thread runs under this
    thread's numpy error state, which ``np.errstate`` does not pass to a new
    thread.  A thread per call leaves nothing behind that a forked child
    could inherit half-held.
    """
    raised = []

    @np.errstate(**np.geterr())
    def work():
        try:
            fn(there)
        except BaseException as exc:
            raised.append(exc)

    worker = threading.Thread(target=work)
    worker.start()
    try:
        fn(here)
    finally:
        worker.join()
    if raised:
        raise raised[0]


def in_child(fn: Callable, stage: str) -> Callable:
    """Runs ``fn()`` in a forked child beside the caller and returns a handle:
    calling it waits for the child, then returns fn's value or raises its
    exception.  The handle is called once, and no child outlives it: an
    interrupt while it waits kills the child.

    It forks only when ``SECOND_CORE`` holds, where ``os.fork`` exists, and
    from a process with no other thread (a lock that one holds would stay held
    in the child).  Otherwise ``fn()`` runs now, and the handle returns what
    it returned or raises what it raised.  Either way the value or exception
    is pickled: one that does not pickle arrives as a RuntimeError with its
    type and message, and a child that ends without a result raises a
    RuntimeError naming ``stage``.
    """
    if not (SECOND_CORE and hasattr(os, "fork") and threading.active_count() == 1):
        blob = _pickled(fn, stage)
        return lambda: _unpickled(blob)
    read, write = os.pipe()
    if not (pid := os.fork()):
        try:
            with os.fdopen(write, "wb") as pipe:
                pipe.write(_pickled(fn, stage))
        finally:
            os._exit(0)
    os.close(write)

    def handle():
        try:
            with os.fdopen(read, "rb") as pipe:
                blob = pipe.read()
        except BaseException:  # an interrupt while waiting ends the child too
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
        if not blob:
            raise RuntimeError(f"{stage}: the child ended without a result, wait status {status}")
        return _unpickled(blob)
    return handle


def _pickled(fn: Callable, stage: str) -> bytes:
    """(True, fn's value) or (False, the exception it raised), pickled.  A
    value that does not pickle counts as that error, and an exception that
    does not survive the round trip becomes a RuntimeError that names it."""
    try:
        return pickle.dumps((True, fn()))
    except Exception as exc:
        with suppress(Exception):
            return pickle.dumps((False, pickle.loads(pickle.dumps(exc))))
        return pickle.dumps((False, RuntimeError(f"{stage}: {exc!r}")))


def _unpickled(blob: bytes):
    ok, value = pickle.loads(blob)
    if not ok:
        raise value
    return value


def shared_like(array: np.ndarray) -> np.ndarray:
    """A zeroed array of ``array``'s shape and type in a shared anonymous
    mapping: what a forked child writes there, its parent reads."""
    return np.ndarray(array.shape, array.dtype, mmap.mmap(-1, array.nbytes))
