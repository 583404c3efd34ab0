"""Job records, content-addressed result store, and the job manager.

The service's contract is *deterministic job records*: a job is the
canonical JSON of its request, its identity is the sha256 of that JSON
plus the :func:`~repro.parallel.cache.code_version` (so the same study
re-submitted against changed simulator code is a different job), and
every serialized record excludes wall-clock fields — two runs of the
same request produce byte-identical records modulo the run-scoped
sequence suffix.  There is one job body: a sweep and a chaos campaign
are both planned into ``runner / points / workload_id`` (a campaign's
rungs are points carrying their fault plan) and run as one
:class:`~repro.parallel.executor.JobSpec` on the
:class:`~repro.parallel.executor.Executor`, reporting straight into
their :class:`JobRecord` (the record *is* the executor's job state); a
campaign's result document is the pure
:meth:`~repro.chaos.ChaosResult.from_rows` reduction of the record's
rows.  Both are planned by their :data:`repro.plans.JOB_KINDS` row, the
one ``repro sweep``/``chaos`` run, and pre-flighted by the job body, so rows
fetched over HTTP, ``CheckError`` rows included, are byte-identical to
``repro sweep`` / in-process ``Sweep.run`` output (progress too: hits
and pre-flight failures in point order during the scan, then executed
variants) and share the same :class:`~repro.parallel.ResultCache` entries.
A sweep whose finished record is already in the :class:`ResultStore` —
the same request on the same code, before or since a restart — is
answered from that record at submission, with the events and record an
all-hit run would give, and is not run again.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import logging
import threading
from pathlib import Path
from typing import Any, Iterator, Optional

from ..chaos.runner import ChaosResult
from ..observe import MetricRegistry
from ..parallel import ResultCache
from ..parallel.executor import Executor, JobSpec, JobState
from ..plans import JOB_KINDS, REQUIRED, Plan
from ..store import Store
from .scheduler import JobScheduler, QuotaExceeded

__all__ = ["JobManager", "JobRecord", "ResultStore", "ServiceError",
           "canonical_request", "job_key"]

_log = logging.getLogger(__name__)


class ServiceError(RuntimeError):
    """A request the service rejects; carries the HTTP status to use."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


# -- request canonicalization ----------------------------------------------


def canonical_request(request: Any) -> dict:
    """Validate a job request and fill defaults; deterministic output.

    Fields and defaults are the kind's :data:`repro.plans.JOB_KINDS` row.
    Raises :class:`ServiceError` (status 400) on anything malformed:
    unknown ``kind``, unknown fields, missing required fields.  Deep
    validation (presets, axes, campaign specs) happens when the job is
    planned — also at submission time.
    """
    if not isinstance(request, dict):
        raise ServiceError(400, f"request must be a JSON object, "
                                f"got {type(request).__name__}")
    kind = request.get("kind")
    if not isinstance(kind, str) or kind not in JOB_KINDS:
        raise ServiceError(400, f"unknown job kind {kind!r}; expected "
                                + " or ".join(map(repr, JOB_KINDS)))
    fields = {"kind": kind, **{field.name: field.default
                               for field in JOB_KINDS[kind].fields}}
    unknown = sorted(set(request) - set(fields))
    if unknown:
        raise ServiceError(400, f"unknown request fields: "
                                + ", ".join(unknown))
    canon = {}
    for name in sorted(fields):
        if name in request:
            canon[name] = request[name]
        elif fields[name] is REQUIRED:
            raise ServiceError(400, f"missing required field {name!r}")
        else:
            canon[name] = fields[name]
    return canon


def job_key(request: dict) -> str:
    """Content address of a canonical request: sha256 over the request
    JSON plus the simulator code version."""
    from ..parallel.cache import code_version
    blob = json.dumps({"request": request, "code": code_version()},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# -- job record ------------------------------------------------------------


class JobRecord(JobState):
    """One job's deterministic, wall-clock-free state.

    States: ``submitted → running → done | failed | cancelled``.
    ``to_dict()`` has fixed field order and no timestamps; ``state``
    events bracket one ``progress`` event per row.  The events,
    condition and state machine are :class:`~repro.parallel.JobState`'s
    — the record is handed to the executor as the job's state.
    """

    def __init__(self, job_id: str, key: str, request: dict) -> None:
        super().__init__(job_id, state="submitted")
        self.key = key
        self.request = request
        self.plan: Optional[Plan] = None
        self.campaign: Any = None

    def to_dict(self) -> dict:
        """Deterministic record: fixed field order, no wall-clock."""
        with self.cond:
            return {
                "id": self.job_id,
                "key": self.key,
                "kind": self.request["kind"],
                "tenant": self.request["tenant"],
                "lane": self.request["lane"],
                "state": self.state,
                "done": self.done,
                "total": self.total,
                "error": self.error,
                "cache": dict(self.cache),
                "request": dict(self.request),
            }

    def result_payload(self) -> dict:
        """The finished job's result document (404/409 handled by the
        caller via :attr:`state`)."""
        with self.cond:
            payload = {"id": self.job_id, "kind": self.request["kind"],
                       "state": self.state}
            if self.rows is None:
                pass
            elif self.campaign is None:
                payload["rows"] = self.rows
            else:
                # A campaign's document is a pure function of its rung
                # rows; only the rows are job state.
                payload["campaign"] = ChaosResult.from_rows(
                    self.campaign, self.rows).to_dict()
            return payload


# -- result store ----------------------------------------------------------


class ResultStore:
    """Content-addressed persistence: variant rows + job records.

    ``<root>/rows/`` is the sweep :class:`~repro.parallel.ResultCache`
    (shared with CLI and in-process runs, so warm re-submissions hit
    it); ``<root>/jobs/`` is a :class:`~repro.store.Store` of finished
    records by :func:`job_key`, one per request and code version, which
    :meth:`JobManager.submit` reads to answer a repeated sweep.
    """

    def __init__(self, root: str | Path) -> None:
        self.cache = ResultCache(Path(root) / "rows")
        self.jobs = Store(Path(root) / "jobs")
        # Request threads read records concurrently: keep the counts exact.
        self._reads = threading.Lock()

    def put_job(self, record: JobRecord) -> Path:
        """Persist a finished job's record + result atomically."""
        return self.jobs.put(record.key, {"record": record.to_dict(),
                                          "result": record.result_payload()})

    def get_job(self, key: str) -> Optional[dict]:
        """The stored ``{"record", "result"}`` of ``key``, or ``None``."""
        with self._reads:
            return self.jobs.get(key, _job_entry)


def _job_entry(entry: dict) -> dict:
    if not all(isinstance(entry[part], dict) for part in ("record", "result")):
        raise TypeError("job entry record/result is not an object")
    return entry


# -- job manager -----------------------------------------------------------


class JobManager:
    """Admit, schedule, run and record jobs.

    The :class:`~repro.service.scheduler.JobScheduler` is the only job
    queue (quotas and lanes enforced at submission) and one dispatch
    thread the only job thread: it takes job ids off the scheduler and
    runs each to its end through the executor's ``submit``, which runs
    a job on the calling thread.  There is one job body: whatever its
    kind, a job's planned points are submitted to the
    :class:`~repro.parallel.executor.Executor` as one
    :class:`~repro.parallel.executor.JobSpec` with the record as the
    job state, so every job runs on the process's one pool, reports
    progress into its record, honors cancellation and its time budget
    within the pool's abort poll, and lands in the
    :class:`ResultStore` when done — except a sweep whose finished
    record is stored already, which is answered from it at submission
    and never queued.  The records are the only table of
    jobs by id: the executor keeps none.  The executor starts the pool's
    workers here, at construction — before a server that owns the
    manager accepts a socket a forked child would inherit and hold
    open — and :meth:`close` ends every job, then stops them.
    ``service.*`` metrics live in a
    :class:`~repro.observe.MetricRegistry` for the ``/v1/metrics``
    endpoint.
    """

    def __init__(self, executor: Optional[Executor] = None,
                 store: Optional[ResultStore] = None,
                 scheduler: Optional[JobScheduler] = None,
                 registry: Optional[MetricRegistry] = None,
                 autostart: bool = True) -> None:
        self.executor = executor if executor is not None else Executor()
        self.executor.start()
        self.store = store
        self.scheduler = scheduler if scheduler is not None \
            else JobScheduler()
        self.registry = registry if registry is not None \
            else MetricRegistry()
        self._records: dict[str, JobRecord] = {}
        self._lock = threading.Lock()
        self._seq = itertools.count(1)
        self._thread: Optional[threading.Thread] = None
        self._counters = {
            name: self.registry.counter(f"service.jobs.{name}")
            for name in ("submitted", "completed", "failed",
                         "cancelled", "rejected", "stored")}
        self._put_errors = self.registry.counter("service.store.put_errors")
        self.registry.register("service.scheduler", self.scheduler.snapshot)
        self.registry.register("service.records", self._records_summary)
        if autostart:
            self.start()

    def _records_summary(self) -> dict:
        with self._lock:
            records = list(self._records.values())
        return {"total": len(records),
                "active": sum(1 for r in records if not r.terminal)}

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Start the dispatch thread (idempotent)."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(target=self._dispatch_loop,
                                        name="repro-service-dispatch",
                                        daemon=True)
        self._thread.start()

    def close(self) -> None:
        """End every job, then stop: queued jobs end ``cancelled``
        without running, the running one is cancelled (within the
        pool's abort poll when its variants run on workers, which are
        killed), and the dispatch thread and the workers exit."""
        for job_id in self.scheduler.close():
            record = self.record(job_id)
            record.set_state("cancelled")
            self._finish(record)
        with self._lock:
            active = [r.job_id for r in self._records.values()
                      if not r.terminal]
        for job_id in active:
            self.cancel(job_id)
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.executor.close()

    # -- API surface ---------------------------------------------------

    def submit(self, request: Any) -> JobRecord:
        """Admit one job; raises :class:`ServiceError` 400 on malformed
        requests and 429 on quota rejection.  A request whose finished
        record is in the store is answered from it, done on return."""
        canon = canonical_request(request)
        key = job_key(canon)
        rows = self._stored_rows(canon, key)
        if rows is not None:
            return self._answer_stored(canon, key, rows)
        try:   # a sick variant is the job's ``CheckError`` row, not a 400
            plan = JOB_KINDS[canon["kind"]].plan(canon)
        except (SystemExit, Exception) as exc:  # noqa: BLE001 - request boundary
            raise ServiceError(400, f"bad {canon['kind']} request: "
                                    f"{exc}") from None
        with self._lock:
            record = self._new_record(canon, key, len(plan.points))
            record.plan, record.campaign = plan, plan.campaign
            with self._admission():
                self.scheduler.submit(record.job_id, tenant=canon["tenant"],
                                      lane=canon["lane"])
            self._records[record.job_id] = record
            self._counters["submitted"].inc()
        return record

    def _new_record(self, canon: dict, key: str, total: int) -> JobRecord:
        record = JobRecord(f"{key[:12]}-{next(self._seq)}", key, canon)
        record.total = total
        # Emit "submitted" before the scheduler can hand the job to the
        # dispatcher, so event order is stable.
        record.set_state("submitted")
        return record

    @contextlib.contextmanager
    def _admission(self) -> Iterator[None]:
        """Map a scheduler refusal to its :class:`ServiceError`."""
        try:
            yield
        except QuotaExceeded as exc:
            self._counters["rejected"].inc()
            raise ServiceError(429, str(exc)) from None
        except ValueError as exc:
            self._counters["rejected"].inc()
            raise ServiceError(400, str(exc)) from None

    def _stored_rows(self, canon: dict, key: str) -> Optional[list[dict]]:
        """The rows of ``key``'s stored record when they answer the
        request as a run would: a ``done`` sweep, ``timing`` off (wall
        times are measured afresh), and no error row (a crashed worker
        or a spent budget may not recur).  ``None`` sends the job to the
        executor, as does a damaged entry."""
        if self.store is None or canon["kind"] != "sweep" or canon["timing"]:
            return None
        stored = self.store.get_job(key)
        if stored is None or stored["record"].get("state") != "done":
            return None
        rows = stored["result"].get("rows")
        if not isinstance(rows, list) or not all(
                isinstance(row, dict) and "error" not in row for row in rows):
            return None
        return rows

    def _answer_stored(self, canon: dict, key: str,
                       rows: list[dict]) -> JobRecord:
        """A job answered from its stored record: quota-checked like
        any job, then ``running``, one ``progress`` per row in point
        order and ``done``, as an all-hit run reports, with no plan,
        scheduler turn or pool."""
        with self._admission():
            self.scheduler.admit(canon["tenant"], canon["lane"])
        with self._lock:
            record = self._new_record(canon, key, len(rows))

        def body() -> None:
            for done, row in enumerate(rows, 1):
                record.note_progress(done, len(rows), row)
            with record.cond:
                record.rows = rows
                record.cache = {"hits": len(rows), "misses": 0, "stores": 0}

        record.run(body)
        with self._lock:
            self._records[record.job_id] = record
        for name in ("submitted", "completed", "stored"):
            self._counters[name].inc()
        return record

    def record(self, job_id: str) -> JobRecord:
        with self._lock:
            record = self._records.get(job_id)
        if record is None:
            raise ServiceError(404, f"unknown job {job_id!r}")
        return record

    def list_jobs(self) -> list[dict]:
        with self._lock:
            records = list(self._records.values())
        return [r.to_dict() for r in records]

    def cancel(self, job_id: str) -> bool:
        """Cancel a job; ``False`` when it already ended."""
        record = self.record(job_id)
        if not record.cancel():
            return False
        if self.scheduler.cancel(job_id):
            # Still queued: it will never be acquired — finalize here.
            record.set_state("cancelled")
            self._finish(record)
        # Otherwise it is running (or about to): its own abort check
        # sees the flag at the next row boundary or pool poll.
        return True

    def metrics(self) -> dict:
        """Flat ``service.*`` metric snapshot."""
        return self.registry.snapshot()

    # -- dispatch ------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while (job_id := self.scheduler.acquire()) is not None:
            try:
                self._run(self.record(job_id))
            finally:
                self.scheduler.release(job_id)

    def _finish(self, record: JobRecord) -> None:
        """Account for a record that just reached its terminal state."""
        # Only blocking callers re-raise it; a record kept for the life
        # of the server must not pin the failed job's frames, nor the
        # plan's runner and machines (the result reads only the spec).
        record.exc = None
        record.plan = None
        counter = {"done": "completed", "failed": "failed",
                   "cancelled": "cancelled"}[record.state]
        self._counters[counter].inc()
        if record.state == "done" and self.store is not None:
            try:
                self.store.put_job(record)
            except Exception:  # noqa: BLE001 - the job stays done
                self._put_errors.inc()
                _log.exception("job %s: record not persisted", record.job_id)

    def _run(self, record: JobRecord) -> None:
        plan, request = record.plan, record.request
        try:
            self.executor.submit(JobSpec(
                runner=plan.runner, points=plan.points,
                workload_id=plan.workload_id,
                on_error=request.get("on_error", "capture"),
                timing=request.get("timing", False),
                cache=self.store.cache if self.store is not None else None,
                timeout_s=request["timeout_s"]), state=record)
        except Exception as exc:  # noqa: BLE001 - dispatch must survive
            if not record.terminal:   # a closed executor ends it cancelled
                record.set_state("failed", f"{type(exc).__name__}: {exc}")
        self._finish(record)
