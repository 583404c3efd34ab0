"""Sweep execution as jobs.

The workbench's interactive loop runs sweeps synchronously; serving
that loop to many users needs sweeps as *jobs* — submitted, watched,
cancelled — without changing what a sweep computes.
:meth:`Executor.submit` is the only way a sweep runs (``Sweep.run``
and :class:`~repro.parallel.runner.ParallelSweepRunner` submit to one
too).  An executor owns no processes and keeps no jobs: ``submit``
borrows the process's one pool
(:func:`~repro.parallel.pool.process_pool`) and runs the job to
completion on the calling thread, reporting into a :class:`JobState`
— the caller's, or a new one it returns.  So submitters on several
threads — to one executor or to several — take turns on that pool,
and a job is watched and cancelled from another thread through its
state.  Nothing here holds jobs in line, runs them in the background
or looks them up by id: jobs wait only in the service's
:class:`~repro.service.scheduler.JobScheduler`, its dispatch thread is
the only job thread, and its :class:`~repro.service.jobs.JobManager`
the only table of jobs by id.

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
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterator, Optional, Sequence

from ..store import CacheStats
from .cache import ResultCache
from .pool import WorkerCrashed, process_pool
from .runner import Point, Runner, run_cached_sweep

__all__ = ["Executor", "ExecutorError", "InProcessExecutor", "JobSpec",
           "JobState", "LocalAsyncExecutor", "TERMINAL_STATES"]

#: job states that no longer change
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

#: event callback: receives each job event dict as it is emitted
EventFn = Callable[[dict], None]


class ExecutorError(RuntimeError):
    """A submit to a closed executor."""


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
    ``None`` (no cache).  ``timeout_s`` bounds the whole job's wall
    time (``None`` defers to the executor default).
    """

    runner: Runner
    points: Sequence[Point]
    workload_id: Optional[str] = None
    on_error: str = "capture"
    timing: bool = False
    cache: Any = None
    timeout_s: Optional[float] = None


class JobState:
    """One job's mutable state: the object submitter, executor and
    observers share.

    The state machine every job runs — ``emit`` / ``set_state`` /
    ``note_progress`` append to :attr:`events` under :attr:`cond`,
    :meth:`wait` and :meth:`follow` block on it, :meth:`cancel` asks
    it to stop, :meth:`run` is the job boundary.  It is the only job
    handle: ``Executor.submit`` reports into the caller's (a new one
    when given none) and keeps nothing of it; the service's
    ``JobRecord`` *is* one (with ``submitted`` as its initial state),
    so a served job reports straight into its record.
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

    # -- observation and cancellation (any thread) ---------------------

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def wait(self, timeout: Optional[float] = None) -> str:
        """Block until terminal (or timeout); returns the state."""
        with self.cond:
            self.cond.wait_for(lambda: self.terminal, timeout)
            return self.state

    def follow(self) -> Iterator[dict]:
        """Yield the job's events from the first, live, until the
        terminal state event — ``state`` events bracket ``progress``
        events, one per row, cache hits included.  The one event-follow
        loop, behind the service's ``/events``."""
        for idx in itertools.count():
            with self.cond:
                self.cond.wait_for(
                    lambda: idx < len(self.events) or self.terminal)
                if idx >= len(self.events):
                    return
                event = self.events[idx]
            yield event

    def cancel(self) -> bool:
        """Request cancellation; ``False`` if the job already ended.

        Cancellation is cooperative: a job waiting for its turn never
        starts; a running job stops at the next row boundary, or within
        the pool's abort poll when its variants run on workers, which
        are then killed.
        """
        with self.cond:
            if self.terminal:
                return False
            self.cancel_requested = True
        return True


def _as_cache(cache: Any) -> Optional[ResultCache]:
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(str(cache))


def _crash_outcome(crash: WorkerCrashed) -> tuple[str, dict, float]:
    """The error outcome of a variant that exhausted its crash budget."""
    return "error", {"error": f"WorkerCrashed: variant {crash}"}, 0.0


class Executor:
    """Run sweeps as jobs on the process's pool; keep none of them.

    ``workers`` sizes the process's pool its jobs borrow
    (:func:`~repro.parallel.pool.process_pool`; default: CPU count;
    ``1`` runs variants in-process) and ``job_timeout_s`` is the
    default per-job wall-time budget.  :meth:`submit` runs a job on
    the calling thread while it holds the pool's turn, so jobs take
    turns with every other fan-out in the process (at ``workers=1``
    there is no pool, and no turn).  The workers are forked when a job
    first needs them (so an all-hit job forks none), or all at once by
    :meth:`start`; they serve every fan-out of the same size until
    :meth:`close` stops them.
    """

    def __init__(self, workers: Optional[int] = None,
                 job_timeout_s: Optional[float] = None) -> None:
        self.workers = workers if workers is not None \
            else (os.cpu_count() or 1)
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        self.job_timeout_s = job_timeout_s
        self._closed = False

    def start(self) -> None:
        """Fork every worker now, e.g. before the owner accepts a socket
        a forked child would inherit (see
        :class:`~repro.parallel.pool.WorkerPool`)."""
        with process_pool(self.workers) as pool:
            pool.start()

    def submit(self, spec: JobSpec,
               state: Optional[JobState] = None) -> JobState:
        """Run a job to its terminal state on this thread; returns the
        job's state.

        The job reports into ``state`` — a :class:`JobState` the caller
        owns and watches or cancels from other threads, like the
        service's job record — or into a new one.  It waits its turn on
        the pool first; one cancelled meanwhile ends ``cancelled``
        without running.  Raises :class:`ExecutorError` once the
        executor is closed (the job ends ``cancelled``).
        """
        if state is None:
            state = JobState("job")
        state.total = len(spec.points)
        with process_pool(self.workers) as pool:
            if self._closed:
                state.set_state("cancelled")
                raise ExecutorError("executor is closed")
            if state.cancel_requested:
                state.set_state("cancelled")
                return state
            cache = _as_cache(spec.cache)
            imap = functools.partial(pool.imap, check_abort=state.check_abort,
                                     on_crash=_crash_outcome)
            stats = cache.stats if cache is not None else CacheStats()

            def body() -> None:
                base = asdict(stats)
                try:
                    state.rows = run_cached_sweep(
                        imap, spec.runner, list(spec.points), cache=cache,
                        workload_id=spec.workload_id,
                        on_error=spec.on_error, progress=state.progress,
                        timing=spec.timing)
                finally:
                    with state.cond:
                        state.cache = {name: n - base[name]
                                       for name, n in asdict(stats).items()}

            state.run(body, spec.timeout_s if spec.timeout_s is not None
                      else self.job_timeout_s)
        return state

    def wait(self, job: JobState) -> str:
        """``job.wait()``, kept for the layered benchmark's probes."""
        return job.wait()

    def close(self) -> None:
        """Stop the process's workers once the running job has ended;
        idempotent.  Later submits raise :class:`ExecutorError`; a later
        fan-out elsewhere in the process forks anew."""
        with process_pool(self.workers) as pool:
            self._closed = True
            pool.close()

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


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
