"""Resource semantics: FIFO arbitration, utilization accounting."""

from __future__ import annotations

import pytest

from repro.pearl import Resource, SimulationError


class TestAcquireRelease:
    def test_exclusive_serialization(self, sim):
        res = Resource(sim, capacity=1, name="bus")
        log = []

        def user(tag):
            yield res.acquire()
            log.append((tag, "got", sim.now))
            yield 10.0
            res.release()

        sim.process(user("a"))
        sim.process(user("b"))
        sim.process(user("c"))
        sim.run()
        assert log == [("a", "got", 0.0), ("b", "got", 10.0),
                       ("c", "got", 20.0)]

    def test_fifo_grant_order(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def user(tag, start):
            yield start
            yield res.acquire()
            order.append(tag)
            yield 5.0
            res.release()

        sim.process(user("late", 2.0))
        sim.process(user("early", 1.0))
        sim.process(user("earliest", 0.5))
        sim.run()
        assert order == ["earliest", "early", "late"]

    def test_multi_capacity(self, sim):
        res = Resource(sim, capacity=2)
        concurrent = []

        def user():
            yield res.acquire()
            concurrent.append(res.in_use)
            yield 5.0
            res.release()

        for _ in range(4):
            sim.process(user())
        sim.run()
        assert max(concurrent) == 2

    def test_acquire_units(self, sim):
        res = Resource(sim, capacity=4)
        log = []

        def big():
            yield res.acquire(3)
            log.append(("big", sim.now))
            yield 10.0
            res.release(3)

        def small():
            yield 1.0
            yield res.acquire(2)
            log.append(("small", sim.now))
            res.release(2)

        sim.process(big())
        sim.process(small())
        sim.run()
        assert log == [("big", 0.0), ("small", 10.0)]

    def test_fifo_head_blocks_queue(self, sim):
        """Strict FIFO: a large waiting request blocks later small ones."""
        res = Resource(sim, capacity=2)
        order = []

        def holder():
            yield res.acquire(2)
            yield 10.0
            res.release(2)

        def big():
            yield 1.0
            yield res.acquire(2)
            order.append(("big", sim.now))
            yield 5.0
            res.release(2)

        def small():
            yield 2.0
            yield res.acquire(1)
            order.append(("small", sim.now))
            res.release(1)

        sim.process(holder())
        sim.process(big())
        sim.process(small())
        sim.run()
        assert order == [("big", 10.0), ("small", 15.0)]

    def test_use_helper(self, sim):
        res = Resource(sim, capacity=1)

        def user():
            yield from res.use(7.0)
            return sim.now
        p = sim.process(user())
        sim.run()
        assert p.result == 7.0
        assert res.in_use == 0


class TestErrors:
    def test_bad_capacity(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim, capacity=0)

    def test_over_acquire(self, sim):
        res = Resource(sim, capacity=2)
        with pytest.raises(SimulationError):
            res.acquire(3)

    def test_over_release(self, sim):
        res = Resource(sim, capacity=2)
        with pytest.raises(SimulationError):
            res.release(1)


class TestAccounting:
    def test_utilization_full(self, sim):
        res = Resource(sim, capacity=1)

        def user():
            yield from res.use(10.0)
        sim.process(user())
        sim.run()
        assert res.utilization(horizon=10.0) == pytest.approx(1.0)

    def test_utilization_half(self, sim):
        res = Resource(sim, capacity=2)

        def user():
            yield from res.use(10.0)
        sim.process(user())
        sim.run()
        assert res.utilization(horizon=10.0) == pytest.approx(0.5)

    def test_wait_time_and_queue_stats(self, sim):
        res = Resource(sim, capacity=1)

        def user():
            yield from res.use(4.0)

        for _ in range(3):
            sim.process(user())
        sim.run()
        assert res.acquisitions == 3
        assert res.max_queue_len == 2
        assert res.total_wait_time == pytest.approx(4.0 + 8.0)


class TestKillSafety:
    """``use()``/``using()`` must never leak capacity when the holder
    is ``kill()``ed — mid-hold or while still queued for the grant."""

    def test_kill_mid_hold_releases_capacity(self, sim):
        res = Resource(sim, capacity=1, name="bus")
        log = []

        def victim():
            yield from res.use(100.0)

        def successor():
            yield 10.0
            yield res.acquire()
            log.append(("got", sim.now))
            res.release()

        proc = sim.process(victim())
        sim.process(successor())

        def killer():
            yield 5.0
            proc.kill()

        sim.process(killer())
        sim.run()
        assert res.in_use == 0
        # The successor gets the capacity the victim abandoned.
        assert log == [("got", 10.0)]

    def test_kill_while_queued_cancels_request(self, sim):
        res = Resource(sim, capacity=1, name="bus")
        log = []

        def holder():
            yield from res.use(20.0)
            log.append(("holder-done", sim.now))

        def queued_victim():
            yield 1.0
            yield from res.use(50.0)        # never gets the grant

        def late_user():
            yield 2.0
            yield from res.use(5.0)
            log.append(("late-done", sim.now))

        sim.process(holder())
        victim = sim.process(queued_victim())
        sim.process(late_user())

        def killer():
            yield 10.0
            victim.kill()

        sim.process(killer())
        sim.run()
        # The dead request must not absorb the grant at t=20: the late
        # user acquires immediately when the holder releases.
        assert log == [("holder-done", 20.0), ("late-done", 25.0)]
        assert res.in_use == 0 and res.queue_length == 0

    def test_cancel_unblocks_smaller_request_behind_head(self, sim):
        res = Resource(sim, capacity=4, name="banked")
        log = []

        def holder():
            yield res.acquire(3)
            yield 10.0
            res.release(3)

        def big():
            yield 1.0
            # Needs more than the free unit: parks at the queue head.
            yield from res.use(5.0, units=4)
            log.append(("big", sim.now))

        def small():
            yield 2.0
            yield res.acquire(1)
            log.append(("small", sim.now))
            res.release(1)

        sim.process(holder())
        big_proc = sim.process(big())
        sim.process(small())

        def killer():
            yield 3.0
            big_proc.kill()

        sim.process(killer())
        sim.run()
        # Cancelling the blocking head request re-runs FIFO granting,
        # so the small request proceeds at once (t=3), not at t=10.
        assert log == [("small", 3.0)]
        assert res.in_use == 0

    def test_kill_between_grant_and_resume_releases(self, sim):
        """An immediate grant is an already-triggered event: the holder
        resumes from the ring, and a kill that lands before that resume
        must still return the capacity (and drop the resume)."""
        res = Resource(sim, capacity=1, name="bus")
        log = []

        def victim():
            yield from res.use(100.0)
            log.append("victim-done")

        def killer(proc):
            proc.kill()
            yield 0.0

        def queued_victim():
            yield from res.use(100.0)
            log.append("queued-victim-done")

        def successor():
            yield 1.0
            yield res.acquire()
            log.append(("got", sim.now))
            res.release()

        proc = sim.process(victim())
        # Runs after the victim's grant, before its ring resume.
        sim.process(killer(proc))
        sim.process(successor())
        sim.run()
        assert log == [("got", 1.0)]
        assert res.in_use == 0 and res.acquisitions == 2

        # And a request still queued behind a holder, killed: no leak.
        holder = sim.process(victim())
        queued = sim.process(queued_victim())
        sim.run(until=sim.now + 10.0)
        assert res.queue_length == 1
        queued.kill()
        holder.kill()
        assert res.in_use == 0 and res.queue_length == 0

    def test_cancel_of_granted_event_is_refused(self, sim):
        res = Resource(sim, capacity=1)
        results = []

        def user():
            grant = res.acquire()
            yield grant
            results.append(res.cancel(grant))   # already granted: False
            res.release()

        sim.process(user())
        sim.run()
        assert results == [False]
        assert res.in_use == 0

    def test_using_alias_is_use(self):
        assert Resource.using is Resource.use
