"""Scheduler properties (repro.service.scheduler).

The scheduler is admission policy — quotas, strict-priority lanes,
anti-starvation aging — so its invariants are stated as hypothesis
properties over randomized operation sequences rather than a handful
of hand-picked orders:

* **quota** — no tenant's active (queued + running) count ever
  exceeds ``tenant_quota``; the over-quota submit is the one that
  raises, never a later victim;
* **no starvation** — under an adversarial stream of high-lane
  arrivals, a low-lane job is still acquired within
  ``starvation_bound + 1`` acquires;
* **cancel exactness** — cancelling any subset of queued jobs never
  loses or duplicates any *other* job.

All properties drive the scheduler single-threaded with ``timeout=0``
acquires (an empty scheduler returns ``None`` immediately), so runs
are deterministic.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.service import LANES, JobScheduler, QuotaExceeded

TENANTS = ("alice", "bob", "carol")

lanes = st.sampled_from(LANES)
tenants = st.sampled_from(TENANTS)


# ---------------------------------------------------------------------------
# Deterministic basics
# ---------------------------------------------------------------------------

class TestBasics:
    def test_strict_priority_then_fifo_within_lane(self):
        sched = JobScheduler(tenant_quota=10)
        for i, lane in enumerate(["low", "normal", "high", "high", "low"]):
            sched.submit(f"job-{i}", lane=lane)
        order = [sched.acquire(timeout=0) for _ in range(5)]
        assert order == ["job-2", "job-3", "job-1", "job-0", "job-4"]
        assert sched.acquire(timeout=0) is None

    def test_unknown_lane_and_bad_params_rejected(self):
        sched = JobScheduler()
        with pytest.raises(ValueError, match="unknown lane"):
            sched.submit("job-1", lane="urgent")
        with pytest.raises(ValueError, match="tenant_quota"):
            JobScheduler(tenant_quota=0)
        with pytest.raises(ValueError, match="starvation_bound"):
            JobScheduler(starvation_bound=0)

    def test_release_frees_quota_slot(self):
        sched = JobScheduler(tenant_quota=1)
        sched.submit("job-1", tenant="alice")
        with pytest.raises(QuotaExceeded):
            sched.submit("job-2", tenant="alice")
        assert sched.acquire(timeout=0) == "job-1"
        with pytest.raises(QuotaExceeded):   # running still counts
            sched.submit("job-2", tenant="alice")
        sched.release("job-1")
        sched.submit("job-2", tenant="alice")
        assert sched.active("alice") == 1

    def test_cancel_only_touches_queued_jobs(self):
        sched = JobScheduler()
        sched.submit("job-1")
        sched.submit("job-2")
        assert sched.acquire(timeout=0) == "job-1"
        assert sched.cancel("job-1") is False   # running: executor's job
        assert sched.cancel("nope") is False
        assert sched.cancel("job-2") is True
        assert sched.acquire(timeout=0) is None

    def test_close_hands_back_the_queue_and_wakes_acquire(self):
        sched = JobScheduler()
        for job_id, lane in (("a", "normal"), ("b", "high"), ("c", "low"),
                             ("d", "normal")):
            sched.submit(job_id, tenant="alice", lane=lane)
        assert sched.acquire(timeout=0) == "b"
        assert sched.close() == ["a", "d", "c"]
        assert sched.active("alice") == 1       # "b" is still running
        sched.release("b")
        assert sched.active("alice") == 0
        assert sched.acquire() is None          # closed: never blocks
        assert sched.close() == []

        blocked = JobScheduler()
        got = []
        waiter = threading.Thread(target=lambda: got.append(blocked.acquire()))
        waiter.start()
        blocked.close()
        waiter.join(timeout=30)
        assert not waiter.is_alive() and got == [None]

    def test_snapshot_shape(self):
        sched = JobScheduler()
        sched.submit("job-1", tenant="bob", lane="low")
        sched.submit("job-2", tenant="alice")
        sched.acquire(timeout=0)
        assert sched.snapshot() == {
            "queued": {"high": 0, "normal": 0, "low": 1},
            "running": 1,
            "tenants": {"alice": 1, "bob": 1},
        }


# ---------------------------------------------------------------------------
# Property: per-tenant quota is never exceeded
# ---------------------------------------------------------------------------

operations = st.lists(
    st.tuples(st.sampled_from(["submit", "acquire", "release", "cancel"]),
              tenants, lanes),
    max_size=60)


@settings(max_examples=60, deadline=None)
@given(ops=operations, quota=st.integers(1, 3))
def test_quota_never_exceeded(ops, quota):
    sched = JobScheduler(tenant_quota=quota)
    ids = iter(range(10_000))
    queued: dict[str, str] = {}    # job_id -> tenant
    running: dict[str, str] = {}
    for op, tenant, lane in ops:
        if op == "submit":
            job_id = f"job-{next(ids)}"
            active = sum(1 for t in (*queued.values(), *running.values())
                         if t == tenant)
            if active >= quota:
                with pytest.raises(QuotaExceeded):
                    sched.submit(job_id, tenant=tenant, lane=lane)
            else:
                sched.submit(job_id, tenant=tenant, lane=lane)
                queued[job_id] = tenant
        elif op == "acquire":
            got = sched.acquire(timeout=0)
            if queued:
                assert got in queued
                running[got] = queued.pop(got)
            else:
                assert got is None
        elif op == "release":
            victim = min(running) if running else "absent"
            sched.release(victim)    # unknown release is a no-op
            running.pop(victim, None)
        elif op == "cancel":
            victim = min(queued) if queued else "absent"
            assert sched.cancel(victim) is (victim in queued)
            queued.pop(victim, None)
        for t in TENANTS:
            model = sum(1 for x in (*queued.values(), *running.values())
                        if x == t)
            assert sched.active(t) == model
            assert sched.active(t) <= quota


# ---------------------------------------------------------------------------
# Property: lower lanes are never starved indefinitely
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(bound=st.integers(1, 6), victim_lane=st.sampled_from(["normal",
                                                             "low"]),
       burst=st.integers(0, 3))
def test_low_lane_acquired_within_starvation_bound(bound, victim_lane,
                                                   burst):
    sched = JobScheduler(tenant_quota=10_000, starvation_bound=bound)
    sched.submit("victim", tenant="victim", lane=victim_lane)
    ids = iter(range(10_000))
    # Adversary: keep the high lane non-empty forever, with `burst`
    # extra arrivals before each acquire.
    acquires = 0
    while True:
        for _ in range(burst + 1):
            sched.submit(f"hostile-{next(ids)}",
                         tenant=f"t{next(ids)}", lane="high")
        got = sched.acquire(timeout=0)
        acquires += 1
        if got == "victim":
            break
        assert acquires <= bound + 1, \
            f"victim not scheduled after {acquires} acquires " \
            f"(starvation_bound={bound})"


# ---------------------------------------------------------------------------
# Property: cancelling jobs never loses or duplicates the others
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(jobs=st.lists(lanes, min_size=1, max_size=25),
       data=st.data())
def test_cancel_exactness(jobs, data):
    sched = JobScheduler(tenant_quota=10_000)
    all_ids = []
    for i, lane in enumerate(jobs):
        job_id = f"job-{i}"
        sched.submit(job_id, tenant=f"t{i % 3}", lane=lane)
        all_ids.append(job_id)
    to_cancel = data.draw(st.sets(st.sampled_from(all_ids)),
                          label="cancelled")
    for job_id in sorted(to_cancel):
        assert sched.cancel(job_id) is True
    acquired = []
    while (got := sched.acquire(timeout=0)) is not None:
        acquired.append(got)
        sched.release(got)
    assert sorted(acquired) == sorted(set(all_ids) - to_cancel)
    assert len(acquired) == len(set(acquired))
    for tenant in ("t0", "t1", "t2"):
        assert sched.active(tenant) == 0
