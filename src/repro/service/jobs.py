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
rows.  Both are planned by the CLI's own plan builders (same runner,
same workload-id scheme) and pre-flighted by the job body, so rows
fetched over HTTP, ``CheckError`` rows included, are byte-identical to
``repro sweep`` / in-process ``Sweep.run`` output (progress too: hits
and pre-flight failures in point order during the scan, then executed
variants) and share the same :class:`~repro.parallel.ResultCache` entries.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import threading
from pathlib import Path
from typing import Any, Optional

from ..chaos.runner import AppCampaignRunner, ChaosResult, campaign_points
from ..chaos.spec import as_campaign_spec
from ..observe import MetricRegistry
from ..parallel import ResultCache
from ..parallel.executor import Executor, JobSpec, JobState
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

#: request fields, with defaults; ``...`` marks required fields.
_SWEEP_FIELDS: dict[str, Any] = {
    "kind": "sweep", "preset": ..., "axes": ..., "set": [],
    "workload": None, "rounds": 2, "seed": 0, "on_error": "capture",
    "timing": False, "faults": None, "timeout_s": None,
    "tenant": "default", "lane": "normal",
}
_CHAOS_FIELDS: dict[str, Any] = {
    "kind": "chaos", "preset": ..., "app": ..., "campaign": ...,
    "set": [], "size": 256, "repeats": 1,
    "timeout_s": None, "tenant": "default", "lane": "normal",
}


def canonical_request(request: Any) -> dict:
    """Validate a job request and fill defaults; deterministic output.

    Raises :class:`ServiceError` (status 400) on anything malformed:
    unknown ``kind``, unknown fields, missing required fields.  Deep
    validation (presets, axes, campaign specs) happens when the job is
    planned — also at submission time.
    """
    if not isinstance(request, dict):
        raise ServiceError(400, f"request must be a JSON object, "
                                f"got {type(request).__name__}")
    kind = request.get("kind")
    if kind == "sweep":
        fields = _SWEEP_FIELDS
    elif kind == "chaos":
        fields = _CHAOS_FIELDS
    else:
        raise ServiceError(400, f"unknown job kind {kind!r}; "
                                f"expected 'sweep' or 'chaos'")
    unknown = sorted(set(request) - set(fields))
    if unknown:
        raise ServiceError(400, f"unknown request fields: "
                                + ", ".join(unknown))
    canon = {}
    for name in sorted(fields):
        if name in request:
            canon[name] = request[name]
        elif fields[name] is ...:
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


# -- job planning ----------------------------------------------------------


def _plan_sweep(request: dict) -> dict:
    """Turn a canonical sweep request into runnable pieces.

    :func:`repro.cli.plan_sweep` is the plan ``repro sweep`` itself
    runs, points unvalidated (a sick variant is the job's ``CheckError``
    row, not a 400), so service rows are byte-identical to its output
    and share cache entries with it.
    """
    from ..cli import plan_sweep
    from ..faults import as_fault_plan

    axes = request["axes"]
    if not isinstance(axes, (list, tuple)) or not axes:
        raise ServiceError(400, "axes must be a non-empty list of "
                                "'dotted.path=v1,v2' strings")
    try:
        sweep, runner, workload_id = plan_sweep(
            request["preset"], request["set"] or (), axes,
            workload=request["workload"], rounds=request["rounds"],
            seed=request["seed"])
        plan = as_fault_plan(request["faults"])
        points = [(*p, plan) for p in sweep.points(validate=False)]
    except (SystemExit, Exception) as exc:  # noqa: BLE001 - request boundary
        raise ServiceError(400, f"bad sweep request: {exc}") from None
    return {"runner": runner, "points": points, "workload_id": workload_id}


def _plan_chaos(request: dict) -> dict:
    """Turn a canonical chaos request into runnable pieces: the shape
    of :func:`_plan_sweep`, plus the spec the result is reduced with."""
    from ..cli import build_machine

    try:
        machine = build_machine(request["preset"], request["set"] or ())
        spec = as_campaign_spec(request["campaign"])
        runner = AppCampaignRunner(request["app"], size=request["size"],
                                   repeats=request["repeats"])
        points = campaign_points(spec, machine)
    except (SystemExit, Exception) as exc:  # noqa: BLE001 - request boundary
        raise ServiceError(400, f"bad chaos request: {exc}") from None
    return {"runner": runner, "points": points, "workload_id": None,
            "campaign": spec}


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
        self.plan: dict = {}

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
            spec = self.plan.get("campaign")
            if self.rows is None:
                pass
            elif spec is None:
                payload["rows"] = self.rows
            else:
                # A campaign's document is a pure function of its rung
                # rows; only the rows are job state.
                payload["campaign"] = ChaosResult.from_rows(
                    spec, self.rows).to_dict()
            return payload


# -- result store ----------------------------------------------------------


class ResultStore:
    """Content-addressed persistence: variant rows + job records.

    ``<root>/rows/`` is the sweep :class:`~repro.parallel.ResultCache`
    (shared with CLI and in-process runs, so warm re-submissions hit
    it); ``<root>/jobs/`` is a :class:`~repro.store.Store` of finished
    records by :func:`job_key`, one per request and code version.
    """

    def __init__(self, root: str | Path) -> None:
        self.cache = ResultCache(Path(root) / "rows")
        self.jobs = Store(Path(root) / "jobs")

    def put_job(self, record: JobRecord) -> Path:
        """Persist a finished job's record + result atomically."""
        return self.jobs.put(record.key, {"record": record.to_dict(),
                                          "result": record.result_payload()})

    def get_job(self, key: str) -> Optional[dict]:
        """The stored ``{"record", "result"}`` of ``key``, or ``None``."""
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
    job state, so every job runs on the executor's own pool, reports
    progress into its record, honors cancellation and its time budget
    within the pool's abort poll, and lands in the
    :class:`ResultStore` when done.  The executor's workers are forked
    here, at construction — before a server that owns the manager
    accepts a socket a forked child would inherit and hold open — and
    :meth:`close` ends every job.  ``service.*`` metrics live in a
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
                         "cancelled", "rejected")}
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
        requests and 429 on quota rejection."""
        canon = canonical_request(request)
        key = job_key(canon)
        plan = (_plan_sweep if canon["kind"] == "sweep"
                else _plan_chaos)(canon)
        with self._lock:
            job_id = f"{key[:12]}-{next(self._seq)}"
            record = JobRecord(job_id, key, canon)
            record.plan = plan
            record.total = len(plan["points"])
            # Emit "submitted" before the scheduler can hand the job to
            # the dispatcher, so event order is stable.
            record.set_state("submitted")
            try:
                self.scheduler.submit(job_id, tenant=canon["tenant"],
                                      lane=canon["lane"])
            except QuotaExceeded as exc:
                self._counters["rejected"].inc()
                raise ServiceError(429, str(exc)) from None
            except ValueError as exc:
                self._counters["rejected"].inc()
                raise ServiceError(400, str(exc)) from None
            self._records[job_id] = record
            self._counters["submitted"].inc()
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
        with record.cond:
            if record.terminal:
                return False
            record.cancel_requested = True
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
        record.plan = {"campaign": record.plan.get("campaign")}
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
                runner=plan["runner"], points=plan["points"],
                workload_id=plan["workload_id"],
                on_error=request.get("on_error", "capture"),
                timing=request.get("timing", False),
                cache=self.store.cache if self.store is not None else None,
                timeout_s=request["timeout_s"]), state=record)
        except Exception as exc:  # noqa: BLE001 - dispatch must survive
            if not record.terminal:   # a closed executor ends it cancelled
                record.set_state("failed", f"{type(exc).__name__}: {exc}")
        self._finish(record)
