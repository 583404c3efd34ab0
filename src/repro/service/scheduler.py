"""Multi-tenant job scheduling: priority lanes, quotas, aging.

The service serves "heavy multi-user traffic" (ROADMAP north star), so
admission and ordering are policy, not accident:

* **per-tenant quotas** — a tenant's *active* jobs (queued + running)
  are capped; submission past the cap is rejected with
  :class:`QuotaExceeded` (the server maps it to HTTP 429) rather than
  silently queueing unbounded work;
* **priority lanes** — ``high`` / ``normal`` / ``low`` strict-priority
  FIFO queues;
* **anti-starvation aging** — every time a queued lane head is passed
  over in favor of a higher lane, its ``passed_over`` count grows; at
  ``starvation_bound`` the job is scheduled next regardless of lane,
  so lower lanes make progress under sustained high-priority load
  (bounded bypass, the classic aging fix for strict priority).

The scheduler is a plain thread-safe data structure — it orders job
ids and tracks active counts; actually *running* jobs is the job
manager's business.  It is the service's only job queue: the executor
runs each job it is handed on the thread that hands it over.  Hypothesis properties over random job mixes
(``tests/test_service_scheduler.py``) pin the quota, starvation and
cancellation invariants.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from dataclasses import dataclass
from typing import Optional

__all__ = ["JobScheduler", "LANES", "QuotaExceeded"]

#: scheduling lanes, highest priority first
LANES = ("high", "normal", "low")


class QuotaExceeded(RuntimeError):
    """A tenant tried to exceed its active-job quota."""


@dataclass
class _Entry:
    job_id: str
    tenant: str
    lane: str
    seq: int
    passed_over: int = 0


class JobScheduler:
    """Order job ids across tenants and priority lanes.

    ::

        sched = JobScheduler(tenant_quota=4, starvation_bound=8)
        sched.submit("job-1", tenant="alice", lane="high")
        job_id = sched.acquire(timeout=1.0)   # -> "job-1"
        ...run it...
        sched.release(job_id)

    ``acquire`` blocks until a job is available (or the timeout
    elapses, or :meth:`close` is called, returning ``None``);
    ``release`` retires a running job and frees its tenant's quota
    slot.  ``cancel`` removes a still-queued job; a running job cannot
    be cancelled here (the executor owns it).
    """

    def __init__(self, *, tenant_quota: int = 4,
                 starvation_bound: int = 8) -> None:
        if tenant_quota < 1:
            raise ValueError(f"tenant_quota must be >= 1, got {tenant_quota}")
        if starvation_bound < 1:
            raise ValueError(
                f"starvation_bound must be >= 1, got {starvation_bound}")
        self.tenant_quota = tenant_quota
        self.starvation_bound = starvation_bound
        self._queues: dict[str, deque[_Entry]] = {lane: deque()
                                                  for lane in LANES}
        self._running: dict[str, _Entry] = {}
        self._active: dict[str, int] = {}     # tenant -> queued + running
        self._seq = itertools.count(1)
        self._cond = threading.Condition()
        self._closed = False

    # -- admission -----------------------------------------------------

    def submit(self, job_id: str, *, tenant: str = "default",
               lane: str = "normal") -> None:
        """Queue ``job_id``; raises :class:`QuotaExceeded` when the
        tenant is at its active-job cap and ``ValueError`` on an
        unknown lane."""
        if lane not in self._queues:
            raise ValueError(f"unknown lane {lane!r}, expected one of {LANES}")
        with self._cond:
            active = self._active.get(tenant, 0)
            if active >= self.tenant_quota:
                raise QuotaExceeded(
                    f"tenant {tenant!r} has {active} active jobs "
                    f"(quota {self.tenant_quota})")
            entry = _Entry(job_id, tenant, lane, next(self._seq))
            self._queues[lane].append(entry)
            self._active[tenant] = active + 1
            self._cond.notify_all()

    # -- dispatch ------------------------------------------------------

    def acquire(self, timeout: Optional[float] = None) -> Optional[str]:
        """Pop the next job to run; ``None`` if the timeout elapses or
        the scheduler is closed."""
        with self._cond:
            if not self._cond.wait_for(
                    lambda: self._closed or any(self._queues.values()),
                    timeout) or self._closed:
                return None
            entry = self._pick()
            self._running[entry.job_id] = entry
            return entry.job_id

    def _pick(self) -> _Entry:
        # A lane head that has been passed over `starvation_bound`
        # times wins regardless of lane (oldest such first); otherwise
        # strict priority order.
        starved = [q[0] for q in self._queues.values()
                   if q and q[0].passed_over >= self.starvation_bound]
        if starved:
            chosen = min(starved, key=lambda entry: entry.seq)
        else:
            chosen = next(q[0] for lane in LANES
                          if (q := self._queues[lane]))
        for q in self._queues.values():
            if q and q[0] is not chosen:
                q[0].passed_over += 1
        self._queues[chosen.lane].remove(chosen)
        return chosen

    def release(self, job_id: str) -> None:
        """Retire a running job, freeing its tenant's quota slot."""
        with self._cond:
            entry = self._running.pop(job_id, None)
            if entry is None:
                return
            self._retire(entry)

    def cancel(self, job_id: str) -> bool:
        """Drop a still-queued job; ``False`` if unknown or running."""
        with self._cond:
            for q in self._queues.values():
                for entry in q:
                    if entry.job_id == job_id:
                        q.remove(entry)
                        self._retire(entry)
                        return True
            return False

    def close(self) -> list[str]:
        """Stop handing out jobs: wake every ``acquire`` (it returns
        ``None`` from now on) and return the ids still queued, highest
        lane first, their quota slots freed."""
        with self._cond:
            self._closed = True
            queued = [entry for lane in LANES for entry in self._queues[lane]]
            for entry in queued:
                self._retire(entry)
            for q in self._queues.values():
                q.clear()
            self._cond.notify_all()
            return [entry.job_id for entry in queued]

    def _retire(self, entry: _Entry) -> None:
        remaining = self._active.get(entry.tenant, 0) - 1
        if remaining > 0:
            self._active[entry.tenant] = remaining
        else:
            self._active.pop(entry.tenant, None)

    # -- introspection -------------------------------------------------

    def active(self, tenant: str) -> int:
        """Queued + running jobs for ``tenant``."""
        with self._cond:
            return self._active.get(tenant, 0)

    def snapshot(self) -> dict:
        """Deterministic state summary for the metrics endpoint."""
        with self._cond:
            return {
                "queued": {lane: len(q)
                           for lane, q in self._queues.items()},
                "running": len(self._running),
                "tenants": {tenant: count
                            for tenant, count
                            in sorted(self._active.items())},
            }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        snap = self.snapshot()
        return (f"<JobScheduler queued={sum(snap['queued'].values())} "
                f"running={snap['running']}>")
