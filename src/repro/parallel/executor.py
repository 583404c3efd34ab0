"""Sweep execution as jobs: submit / poll / cancel / stream.

The workbench's interactive loop runs sweeps synchronously; serving
that loop to many users needs sweeps as *jobs* — submitted, watched,
cancelled — without changing what a sweep computes.  An
:class:`Executor` is the only way a sweep runs (``Sweep.run`` and
:class:`~repro.parallel.runner.ParallelSweepRunner` are blocking sugar
over it).  It owns one :class:`~repro.parallel.pool.WorkerPool`, and
``submit`` runs the job to completion on the calling thread;
submitters on several threads take turns on the pool, and a job is
cancelled from another thread.  Nothing here holds jobs in line or
runs them in the background: jobs wait only in the service's
:class:`~repro.service.scheduler.JobScheduler`, and its dispatch thread
is the only job thread.

Every job shares the pool's durability: a worker that dies
mid-variant is replaced and the variant requeued, then reported as a
``WorkerCrashed`` error row; a job past its wall-time budget or
cancelled has its in-flight workers killed and the executor keeps
serving.  Every job funnels through
:func:`~repro.parallel.runner.run_cached_sweep`, so sweep rows are
byte-identical whoever submits them — the conformance suite
(``tests/test_executor_conformance.py``) pins exactly that.  Job state
is one of ``queued → running → done | failed | cancelled``, held in a
:class:`JobState` that observers wait on; progress events mirror the
``progress=`` hook (cache hits included, so a fully warm job still
streams to 100%).
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional, Sequence

from .cache import ResultCache
from .pool import WorkerCrashed, WorkerPool
from .runner import Point, Runner, run_cached_sweep

__all__ = ["Executor", "ExecutorError", "InProcessExecutor", "JobSpec",
           "JobState", "JobStatus", "LocalAsyncExecutor", "TERMINAL_STATES"]

#: job states that no longer change
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

#: event callback: receives each job event dict as it is emitted
EventFn = Callable[[dict], None]


class ExecutorError(RuntimeError):
    """Misuse of the executor API (unknown job, result of unfinished
    job, submit after close)."""


class _JobCancelled(Exception):
    """Internal control flow: a cancel request reached a running job."""


class _JobTimeout(Exception):
    """Internal control flow: a running job exceeded its time budget."""


@dataclass
class JobSpec:
    """Everything needed to run one sweep as a job.

    A point is ``(coords, machine)`` or ``(coords, machine, plan)``:
    the fault plan (a normalized :class:`repro.faults.FaultPlan`, or
    ``None``) is a coordinate of the point, so one job may mix plans —
    a chaos campaign's rungs, a multi-plan ``Sweep.run(faults=[...])``.
    The runner is called as ``runner(machine)``, or ``runner(machine,
    faults=plan)`` where the plan is not ``None``.  The job body
    (:func:`~repro.parallel.runner.run_cached_sweep`) pre-flights every
    point it has no cached row for; progress reports hits and pre-flight
    failures in point order during the scan, then executed variants.
    ``cache`` may be a :class:`ResultCache`, a directory path, or
    ``None`` (falls back to the executor's cache).  ``timeout_s`` bounds
    the whole job's wall time (``None`` defers to the executor default).
    """

    runner: Runner
    points: Sequence[Point]
    workload_id: Optional[str] = None
    on_error: str = "capture"
    timing: bool = False
    cache: Any = None
    timeout_s: Optional[float] = None


@dataclass
class JobStatus:
    """A point-in-time snapshot of one job (no wall-clock fields)."""

    job_id: str
    state: str
    done: int
    total: int
    error: Optional[str] = None
    cache: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Deterministic JSON form, field order fixed."""
        return {"job_id": self.job_id, "state": self.state,
                "done": self.done, "total": self.total,
                "error": self.error, "cache": dict(self.cache)}


class JobState:
    """One job's mutable state: the object submitter, executor and
    observers share.

    The state machine every job runs — ``emit`` / ``set_state`` /
    ``note_progress`` append to :attr:`events` under :attr:`cond`,
    :meth:`wait` blocks on it, :meth:`run` is the job boundary.  The
    executor creates one per ``submit``; the service's ``JobRecord``
    *is* one (with ``submitted`` as its initial state), so a served job
    reports straight into its record.
    """

    def __init__(self, job_id: str, *, state: str = "queued",
                 on_event: Optional[EventFn] = None) -> None:
        self.job_id = job_id
        self.on_event = on_event
        self.state = state
        self.done = 0
        self.total = 0
        self.rows: Optional[list[dict]] = None
        self.error: Optional[str] = None
        #: what failed the job, kept so blocking callers can re-raise it
        self.exc: Optional[Exception] = None
        self.cache: dict = {"hits": 0, "misses": 0, "stores": 0}
        self.events: list[dict] = []
        self.cancel_requested = False
        self.cond = threading.Condition()
        self._timeout_s: Optional[float] = None
        self._deadline: Optional[float] = None

    # -- mutation (executor side) --------------------------------------

    def emit(self, event: dict, **fields: Any) -> None:
        """Append ``event`` and set the ``fields`` it reports in one
        step, so an observer woken by either sees both."""
        with self.cond:
            for name, value in fields.items():
                setattr(self, name, value)
            self.events.append(event)
            self.cond.notify_all()
        if self.on_event is not None:
            self.on_event(event)

    def set_state(self, state: str, error: Optional[str] = None) -> None:
        event = {"event": "state", "state": state}
        if error is not None:
            event["error"] = error
        self.emit(event, state=state, error=error)

    def note_progress(self, done: int, total: int, row: dict) -> None:
        self.emit({"event": "progress", "done": done, "total": total,
                   "row": row}, done=done, total=total)

    def check_abort(self) -> None:
        """Raise if the running job was cancelled or is past its budget."""
        if self.cancel_requested:
            raise _JobCancelled(self.job_id)
        if self._deadline is not None \
                and time.monotonic() > self._deadline:  # repro: noqa[PY002]
            raise _JobTimeout(
                f"JobTimeout: job exceeded its {self._timeout_s}s budget")

    def progress(self, done: int, total: int, row: dict) -> None:
        """A ``progress=`` hook: the abort check, then the event."""
        self.check_abort()
        self.note_progress(done, total, row)

    def run(self, body: Callable[[], None],
            timeout_s: Optional[float] = None) -> None:
        """The job boundary: ``running``, ``body()``, then the terminal
        state its outcome maps to.

        ``body`` reports through :meth:`progress` / :meth:`check_abort`
        and stores its own result; ``timeout_s`` bounds its wall time.
        A cancel request is ``cancelled``, a spent budget or any other
        exception is ``failed`` — never a raise into the caller.
        """
        self._timeout_s = timeout_s
        if timeout_s is not None:
            # Job deadlines are host-side wall time by definition.
            self._deadline = \
                time.monotonic() + timeout_s  # repro: noqa[PY002]
        self.set_state("running")
        try:
            body()
        except _JobCancelled:
            state, error = "cancelled", None
        except _JobTimeout as exc:
            state, error = "failed", str(exc)
        except Exception as exc:  # noqa: BLE001 - job boundary
            state, error = "failed", f"{type(exc).__name__}: {exc}"
            self.exc = exc
        else:
            state, error = "done", None
        self.set_state(state, error)

    # -- observation ---------------------------------------------------

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def wait(self, timeout: Optional[float] = None) -> str:
        """Block until terminal (or timeout); returns the state."""
        with self.cond:
            self.cond.wait_for(lambda: self.terminal, timeout)
            return self.state

    def status(self) -> JobStatus:
        with self.cond:
            return JobStatus(self.job_id, self.state, self.done, self.total,
                             self.error, dict(self.cache))


def _as_cache(cache: Any) -> Optional[ResultCache]:
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(str(cache))


def _stats_snapshot(cache: Optional[ResultCache]) -> tuple[int, int, int]:
    if cache is None:
        return (0, 0, 0)
    return (cache.stats.hits, cache.stats.misses, cache.stats.stores)


def _crash_outcome(crash: WorkerCrashed) -> tuple[str, dict, float]:
    """The error outcome of a variant that exhausted its crash budget."""
    return "error", {"error": f"WorkerCrashed: variant {crash}"}, 0.0


class Executor:
    """Run sweeps as jobs; poll, stream, cancel, fetch results.

    ``workers`` sizes the executor's :class:`WorkerPool` (default: CPU
    count; ``1`` runs variants in-process), ``cache`` serves jobs whose
    spec names none, ``job_timeout_s`` is the default per-job wall-time
    budget and ``max_task_retries`` the per-variant crash budget.
    :meth:`submit` runs a job on the calling thread, and jobs take
    turns on the pool.  The workers are forked when a job first needs
    them (so an all-hit job forks none), or all at once by
    :meth:`start`, and live until :meth:`close`.
    """

    def __init__(self, workers: Optional[int] = None, cache: Any = None,
                 job_timeout_s: Optional[float] = None,
                 max_task_retries: int = 2) -> None:
        self.workers = workers if workers is not None \
            else (os.cpu_count() or 1)
        self.cache = _as_cache(cache)
        self.job_timeout_s = job_timeout_s
        self._pool = WorkerPool(self.workers, max_task_retries)
        #: held by the running job, and by ``start`` / ``close``
        self._turn = threading.Lock()
        self._closed = False
        self._jobs: dict[str, JobState] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def start(self) -> None:
        """Fork every worker now, e.g. before the owner accepts a socket
        a forked child would inherit (see :class:`WorkerPool`)."""
        with self._turn:
            self._pool.start()

    # -- submission interface ------------------------------------------

    def submit(self, spec: JobSpec, *, job_id: Optional[str] = None,
               on_event: Optional[EventFn] = None,
               state: Optional[JobState] = None) -> str:
        """Run a job to its terminal state on this thread; returns the
        job id.

        The job is registered first, then waits its turn on the pool;
        one cancelled meanwhile ends ``cancelled`` without running.
        ``on_event`` observes every job event as it is emitted.  Pass
        ``state`` — a :class:`JobState` the caller owns and watches,
        like the service's job record — to have the job report into it
        instead of a new one; such a job is not registered for
        :meth:`poll` / :meth:`result`, so the executor keeps nothing of
        it once it ends.  Raises :class:`ExecutorError` once the
        executor is closed (the job ends ``cancelled``).
        """
        if state is None:
            with self._lock:
                jid = job_id if job_id is not None \
                    else f"job-{next(self._ids)}"
                if jid in self._jobs:
                    raise ExecutorError(f"duplicate job id: {jid!r}")
                state = self._jobs[jid] = JobState(jid, on_event=on_event)
        state.total = len(spec.points)
        with self._turn:
            if self._closed:
                state.set_state("cancelled")
                raise ExecutorError("executor is closed")
            if state.cancel_requested:
                state.set_state("cancelled")
            else:
                self._run_job(state, spec)
        return state.job_id

    # -- observation interface -----------------------------------------

    def _job(self, job_id: str) -> JobState:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise ExecutorError(f"unknown job: {job_id!r}") from None

    def poll(self, job_id: str) -> JobStatus:
        """A snapshot of the job's state, progress and cache stats."""
        return self._job(job_id).status()

    def result(self, job_id: str) -> list[dict]:
        """The finished job's rows; raises unless the job is ``done``."""
        job = self._job(job_id)
        with job.cond:
            if job.state != "done":
                detail = f": {job.error}" if job.error else ""
                raise ExecutorError(
                    f"job {job_id!r} is {job.state}{detail}")
            return list(job.rows or [])

    def wait(self, job_id: str,
             timeout: Optional[float] = None) -> JobStatus:
        """Block until the job reaches a terminal state (or timeout)."""
        job = self._job(job_id)
        job.wait(timeout)
        return job.status()

    def stream(self, job_id: str) -> Iterator[dict]:
        """Yield the job's events from the beginning, live, until the
        terminal state event — ``state`` events bracket ``progress``
        events, one per row, cache hits included."""
        job = self._job(job_id)
        for idx in itertools.count():
            with job.cond:
                job.cond.wait_for(
                    lambda: idx < len(job.events) or job.terminal)
                if idx >= len(job.events):
                    return
                event = job.events[idx]
            yield event

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; ``False`` if the job already ended.

        Cancellation is cooperative: a job waiting for its turn never
        starts; a running job stops at the next row boundary, or within
        the pool's abort poll when its variants run on workers, which
        are then killed.
        """
        job = self._job(job_id)
        with job.cond:
            if job.terminal:
                return False
            job.cancel_requested = True
        return True

    def close(self) -> None:
        """Stop the workers once the running job has ended; idempotent.
        Later submits raise :class:`ExecutorError`."""
        with self._turn:
            self._closed = True
            self._pool.close()

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- the job body --------------------------------------------------

    def _run_job(self, job: JobState, spec: JobSpec) -> None:
        # Explicit None check: an *empty* ResultCache is falsy (__len__).
        cache = _as_cache(spec.cache)
        if cache is None:
            cache = self.cache
        imap = functools.partial(self._pool.imap,
                                 check_abort=job.check_abort,
                                 on_crash=_crash_outcome)

        def body() -> None:
            base = _stats_snapshot(cache)
            try:
                job.rows = run_cached_sweep(
                    imap, spec.runner, list(spec.points), cache=cache,
                    workload_id=spec.workload_id, on_error=spec.on_error,
                    progress=job.progress, timing=spec.timing)
            finally:
                after = _stats_snapshot(cache)
                with job.cond:
                    job.cache = {"hits": after[0] - base[0],
                                 "misses": after[1] - base[1],
                                 "stores": after[2] - base[2]}

        job.run(body, spec.timeout_s if spec.timeout_s is not None
                else self.job_timeout_s)


class InProcessExecutor(Executor):
    """:class:`Executor` under the name the layered benchmark's probes
    import; kept until those probes are retargeted."""


class LocalAsyncExecutor(Executor):
    """An :class:`Executor` whose workers are forked at construction.

    Kept, like :class:`InProcessExecutor`, because the layered
    benchmark's probes construct it; forking up front is the one
    difference left between the two names.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.start()
