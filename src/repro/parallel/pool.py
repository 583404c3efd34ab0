"""The one worker pool: ordered, crash-tolerant process map.

Every place the workbench fans work out over processes — sweep variants
and chaos-campaign rungs behind any
:class:`~repro.parallel.executor.Executor`, ``repro verify`` schedule
shards, ``repro bound --audit`` rows — maps a picklable ``fn`` over
items on the process's :class:`WorkerPool`.  This module is the only
spawn site under ``src/``:

* results stream back **in item order**, never completion order, so a
  parallel map is indistinguishable from a serial one;
* a worker that dies mid-task (``os._exit`` in a model, the OOM
  killer) is replaced and its task requeued, up to
  :data:`MAX_TASK_RETRIES` extra attempts; then the task resolves to a
  typed :class:`WorkerCrashed` — the caller's process always survives;
* an optional abort hook is polled while waiting; when it raises, the
  in-flight workers are killed and the exception propagates;
* a worker whose parent is gone — closed, killed, crashed — sees EOF on
  its pipe and exits, so no pool outlives its owner;
* ``workers <= 1`` and unpicklable work run in-process — simulations
  are pure, so the results are identical.

A process has one pool behind every ``workers=N`` fan-out and every
executor (:func:`process_pool`): its workers are forked on the first
miss and reused until the process exits, so they run the code the
parent had when they were forked — a function patched in the parent
afterwards is not seen by them, and one defined afterwards makes its
worker re-fork.

Tasks are pickled up front by the submitting thread and travel over a
per-worker pipe, as results do: unpicklable work is a clean fallback,
never a feeder-thread error, and a worker dying mid-write can only
break its own pipe, which is discarded with it.
"""

from __future__ import annotations

import atexit
import contextlib
import gc
import itertools
import multiprocessing
import multiprocessing.connection
import os
import pickle
import threading
from collections import deque
from typing import Any, Callable, Iterator, Optional, Sequence

__all__ = ["WorkerCrashed", "WorkerPool", "process_pool", "run_sharded"]

#: extra attempts a task gets after its worker died: one budget for the
#: process's one pool (tests patch it)
MAX_TASK_RETRIES = 2
#: how often a waiting map re-runs its abort hook
_ABORT_POLL_S = 0.02
#: what pickling a task raises when it cannot cross a process boundary
_UNPICKLABLE = (pickle.PicklingError, AttributeError, TypeError)
#: numbers worker forks and map starts on one clock: a worker numbered
#: below its map's start was forked before the map pickled its tasks
_clock = itertools.count()


class _Stale:
    """A worker's answer to a task it cannot unpickle — its code was
    defined in the parent after the fork — just before it leaves."""


class WorkerCrashed(RuntimeError):
    """A task's worker process died on every attempt it was given."""

    def __init__(self, exitcode: Optional[int], attempts: int) -> None:
        super().__init__(f"worker exited with code {exitcode} "
                         f"(after {attempts} attempts)")
        self.exitcode = exitcode
        self.attempts = attempts


def _mp_context() -> multiprocessing.context.BaseContext:
    """Prefer ``fork``: children inherit imported modules, so functions
    defined in non-importable modules (pytest files) still unpickle."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def _worker_main(conn: Any, parent_conn: Any) -> None:  # pragma: no cover
    """Long-lived worker: receive ``(fn, item)``, send ``fn(item)``;
    leave on the stop sentinel or when the parent is gone."""
    # A forked child inherits the parent's end of its own pipe; holding
    # it would hide the EOF that says the parent died (however it
    # died), and the worker would block on `recv` forever.
    parent_conn.close()
    # A daemon may not fork: a fan-out the task runs itself (a runner
    # that runs a sweep) runs in-process, as if nested on this thread.
    _holder.held = True
    # A worker lives as long as its owner, and a simulation leaves
    # cyclic garbage that would pile up until a rare full collection
    # (14 % more peak memory after 50 sweeps): collect after every task.
    # Freezing what the parent left first keeps each collection short.
    gc.freeze()
    while True:
        try:
            blob = conn.recv_bytes()
        except EOFError:
            return
        try:
            task = pickle.loads(blob)
        except Exception:                 # noqa: BLE001 - reported, not raised
            conn.send(_Stale)
            return
        if task is None:
            return
        fn, item = task
        conn.send(fn(item))
        del task, fn, item
        gc.collect()


class _Worker:
    """One worker process and the duplex pipe to it."""

    def __init__(self, ctx: Any) -> None:
        self.conn, child_conn = ctx.Pipe()
        self.proc = ctx.Process(target=_worker_main,
                                args=(child_conn, self.conn),
                                daemon=True)
        self.proc.start()
        # The child's end must live only in the child: EOF then
        # reliably marks worker death, even mid-send.
        child_conn.close()
        #: when it was forked, on the clock that maps start on
        self.forked = next(_clock)
        #: (item index, attempts so far) of the in-flight task
        self.busy: Optional[tuple[int, int]] = None

    def kill(self) -> Optional[int]:
        """Stop the process now (it may be mid-task); its exit code."""
        if self.proc.is_alive():
            self.proc.terminate()
        self.proc.join()
        self.conn.close()
        return self.proc.exitcode


class WorkerPool:
    """Up to ``workers`` processes that outlive the maps they serve.

    ::

        with WorkerPool(workers=4) as pool:
            for result in pool.imap(fn, items):
                ...

    One :meth:`imap` runs at a time.  Workers start when a map first
    needs them, or all at once on :meth:`start`, and run until
    :meth:`close` — the process's pool (:func:`process_pool`) until the
    process exits.  They are forked, so they inherit every descriptor
    open at that moment: an owner that also serves sockets calls
    :meth:`start` before it accepts any, or a connection it later
    closes would stay open in a worker.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._ctx = _mp_context()
        self._workers: list[_Worker] = []

    def start(self) -> None:
        """Start every worker now rather than on first use."""
        if self.workers > 1:             # one worker means in-process
            while len(self._workers) < self.workers:
                self._workers.append(_Worker(self._ctx))

    def imap(self, fn: Callable[[Any], Any], items: Sequence[Any], *,
             check_abort: Optional[Callable[[], None]] = None,
             on_crash: Optional[Callable[[WorkerCrashed], Any]] = None
             ) -> Iterator[Any]:
        """Yield ``fn(item)`` per item, in item order, as results resolve.

        ``check_abort()`` runs before each dispatch round and at least
        every 20 ms while waiting; whatever it raises propagates after
        the in-flight workers are killed.  A task whose worker died
        ``MAX_TASK_RETRIES + 1`` times resolves to ``on_crash(exc)``,
        or raises the :class:`WorkerCrashed` when no hook is given.
        """
        blobs = None
        if self.workers > 1:
            try:
                blobs = [pickle.dumps((fn, item)) for item in items]
            except _UNPICKLABLE:
                pass
        if blobs is None:
            for item in items:
                if check_abort is not None:
                    check_abort()
                yield fn(item)
            return
        start = next(_clock)
        pending = deque((idx, 0) for idx in range(len(blobs)))
        ready: dict[int, Any] = {}
        next_out = 0
        try:
            while next_out < len(blobs):
                if check_abort is not None:
                    check_abort()
                self._dispatch(blobs, pending)
                self._collect(ready, pending, on_crash, start,
                              None if check_abort is None else _ABORT_POLL_S)
                # Refill before yielding: the caller stores each row
                # meanwhile, and no worker should idle through that.
                self._dispatch(blobs, pending)
                while next_out in ready:
                    yield ready.pop(next_out)
                    next_out += 1
        finally:
            # Abort, crash budget or an abandoned iterator: no task may
            # outlive its map.  A completed map has no busy worker.
            for worker in [w for w in self._workers if w.busy is not None]:
                worker.kill()
                self._workers.remove(worker)

    def _dispatch(self, blobs: list[bytes], pending: deque) -> None:
        """Hand pending tasks to idle workers, starting workers as needed."""
        idle = [w for w in self._workers if w.busy is None]
        while pending and (idle or len(self._workers) < self.workers):
            if idle:
                worker = idle.pop()
            else:
                worker = _Worker(self._ctx)
                self._workers.append(worker)
            idx, tries = pending.popleft()
            try:
                worker.conn.send_bytes(blobs[idx])
            except OSError:
                # Died while idle: `_collect` sees EOF on its pipe and
                # requeues the task like any other crash.
                pass
            worker.busy = (idx, tries)

    def _collect(self, ready: dict[int, Any], pending: deque,
                 on_crash: Optional[Callable[[WorkerCrashed], Any]],
                 start: int, timeout: Optional[float]) -> None:
        """Wait for results; requeue (or fail) the tasks of dead workers.

        A worker forked before the map started that could not unpickle
        its task has left: the task goes back to a fresh fork, without
        spending its crash budget.
        """
        busy = {w.conn: w for w in self._workers if w.busy is not None}
        for conn in multiprocessing.connection.wait(list(busy), timeout):
            worker = busy[conn]
            idx, tries = worker.busy
            try:
                result = conn.recv()
            except (EOFError, OSError):
                # The worker died mid-task (possibly mid-send).
                result = None
            else:
                if result is not _Stale:
                    ready[idx] = result
                    worker.busy = None
                    continue
            worker.proc.join(1.0)        # let a real exit code land
            self._workers.remove(worker)
            exitcode = worker.kill()
            if result is _Stale and worker.forked < start:
                pending.appendleft((idx, tries))
                continue
            crash = WorkerCrashed(exitcode, tries + 1)
            if tries < MAX_TASK_RETRIES:
                pending.appendleft((idx, tries + 1))
            elif on_crash is None:
                raise crash from None
            else:
                ready[idx] = on_crash(crash)

    def close(self) -> None:
        """Stop the workers: ask first, kill what does not leave."""
        workers, self._workers = self._workers, []
        for worker in workers:
            try:
                worker.conn.send(None)
            except OSError:
                pass
        for worker in workers:
            worker.proc.join(1.0)
            worker.kill()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


#: the process's pool behind every ``workers=N`` fan-out
_process_pool: Optional[WorkerPool] = None
#: held by the fan-out that borrowed the pool: other threads wait
_turn = threading.Lock()
#: ``held`` on the thread holding ``_turn``
_holder = threading.local()


@contextlib.contextmanager
def process_pool(workers: int) -> Iterator[WorkerPool]:
    """Borrow the process's pool of ``workers`` processes.

    Every fan-out — each :class:`~repro.parallel.executor.Executor`'s
    jobs (``Sweep.run``, ``repro sweep``, chaos campaigns, ``repro
    reproduce``, ``repro serve``) and :func:`run_sharded` — maps over
    this one pool, so a process forks its workers on the first miss and
    reuses them until it exits; a caller asking for another size closes
    them and forks anew.  Callers on other threads wait for their turn.
    ``workers <= 1``, a fan-out nested in another on the same thread (a
    progress hook, an in-process runner) and one inside a worker run
    in-process.  A forked child starts with no pool, so a fan-out inside
    a worker never touches the parent's.
    """
    global _process_pool
    if workers <= 1 or getattr(_holder, "held", False):
        yield WorkerPool(1)
        return
    with _turn:
        _holder.held = True
        try:
            if _process_pool is not None and _process_pool.workers != workers:
                _process_pool.close()
                _process_pool = None
            if _process_pool is None:
                _process_pool = WorkerPool(workers)
            yield _process_pool
        finally:
            _holder.held = False


def _forget_process_pool() -> None:
    """In a forked child: the parent's pool, turn and holder are not its
    own (its forking thread may hold the turn)."""
    global _process_pool, _turn, _holder
    _process_pool, _turn, _holder = None, threading.Lock(), threading.local()


def _close_process_pool() -> None:
    """At exit: stop the process's workers (ask first, then kill)."""
    if _process_pool is not None:
        _process_pool.close()


os.register_at_fork(after_in_child=_forget_process_pool)
atexit.register(_close_process_pool)


def run_sharded(fn: Callable[[Any], Any], items: Sequence[Any],
                workers: int) -> list[Any]:
    """Map a picklable ``fn`` over ``items`` on the process's pool.

    The two fan-outs that are not sweeps: ``repro verify`` (independent
    schedule shards) and ``repro bound --audit`` (cache rows).  Results
    come back in item order.  ``fn`` is expected to capture its own
    task-level errors, like :func:`~repro.parallel.runner.execute_variant`
    does; an item that keeps killing its worker raises
    :class:`WorkerCrashed`.
    """
    with process_pool(workers) as pool:
        return list(pool.imap(fn, items))
