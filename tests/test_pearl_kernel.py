"""Kernel semantics: events, processes, time, determinism."""

from __future__ import annotations

import pytest

from repro.pearl import (DeadlockError, Observer, ProcessKilledError,
                         SimTimeError, SimulationError, Simulator)
from tests.reference_kernel import KERNELS


class DispatchProbe(Observer):
    """An observer that hands every ``dispatch(ts, target)`` to ``fn``."""

    def __init__(self, fn):
        self.fn = fn

    def dispatch(self, ts, target):
        self.fn(ts, target)


def probed(fn, kernel=Simulator):
    """A fresh ``kernel`` whose observer is a :class:`DispatchProbe`."""
    sim = kernel()
    sim.observer = DispatchProbe(fn)
    return sim


class TestHold:
    def test_hold_advances_time(self, sim):
        log = []

        def proc():
            yield 5.0
            log.append(sim.now)
            yield 2.5
            log.append(sim.now)

        sim.process(proc())
        sim.run()
        assert log == [5.0, 7.5]

    def test_integer_hold_accepted(self, sim):
        def proc():
            yield 3
        sim.process(proc())
        assert sim.run() == 3.0

    def test_zero_hold_runs_at_same_time(self, sim):
        def proc():
            yield 0.0
            return sim.now
        p = sim.process(proc())
        sim.run()
        assert p.result == 0.0

    def test_negative_hold_rejected(self, sim):
        def proc():
            yield -1.0
        sim.process(proc())
        with pytest.raises(SimTimeError):
            sim.run()

    def test_yield_garbage_rejected(self, sim):
        def proc():
            yield "nonsense"
        sim.process(proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_yield_none_reschedules_same_time(self, sim):
        order = []

        def a():
            order.append("a1")
            yield None
            order.append("a2")

        def b():
            order.append("b1")
            yield 0.0
            order.append("b2")

        sim.process(a())
        sim.process(b())
        sim.run()
        # a yields to scheduler; b runs before a resumes.
        assert order == ["a1", "b1", "a2", "b2"]


class TestEvents:
    def test_wait_and_trigger(self, sim):
        ev = sim.event("go")
        got = []

        def waiter():
            value = yield ev
            got.append((sim.now, value))

        def firer():
            yield 10.0
            ev.trigger("hello")

        sim.process(waiter())
        sim.process(firer())
        sim.run()
        assert got == [(10.0, "hello")]

    def test_already_triggered_event_resumes_immediately(self, sim):
        ev = sim.event()
        ev.trigger(42)

        def waiter():
            value = yield ev
            return value

        p = sim.process(waiter())
        sim.run()
        assert p.result == 42
        assert sim.now == 0.0

    def test_double_trigger_raises(self, sim):
        ev = sim.event()
        ev.trigger()
        with pytest.raises(SimulationError):
            ev.trigger()

    def test_multiple_waiters_fifo(self, sim):
        ev = sim.event()
        order = []

        def waiter(tag):
            yield ev
            order.append(tag)

        for tag in ("first", "second", "third"):
            sim.process(waiter(tag))

        def firer():
            yield 1.0
            ev.trigger()

        sim.process(firer())
        sim.run()
        assert order == ["first", "second", "third"]

    def test_timeout_event(self, sim):
        ev = sim.timeout(7.0, value="done")

        def waiter():
            return (yield ev)
        p = sim.process(waiter())
        sim.run()
        assert p.result == "done"
        assert sim.now == 7.0

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(SimTimeError):
            sim.timeout(-1.0)

    def test_callback_on_trigger(self, sim):
        ev = sim.event()
        seen = []
        ev.add_callback(seen.append)
        ev.trigger("x")
        assert seen == ["x"]

    def test_callback_on_already_triggered(self, sim):
        ev = sim.event()
        ev.trigger("y")
        seen = []
        ev.add_callback(seen.append)
        assert seen == ["y"]


class TestCombinators:
    def test_all_of(self, sim):
        e1, e2 = sim.timeout(3.0, "a"), sim.timeout(5.0, "b")

        def waiter():
            return (yield sim.all_of([e1, e2]))
        p = sim.process(waiter())
        sim.run()
        assert p.result == ["a", "b"]
        assert sim.now == 5.0

    def test_all_of_empty(self, sim):
        def waiter():
            return (yield sim.all_of([]))
        p = sim.process(waiter())
        sim.run()
        assert p.result == []

    def test_any_of_returns_first(self, sim):
        e1, e2 = sim.timeout(9.0, "slow"), sim.timeout(2.0, "fast")

        def waiter():
            return (yield sim.any_of([e1, e2]))
        p = sim.process(waiter())
        sim.run()
        assert p.result == (1, "fast")

    def test_all_of_already_triggered_is_deferred(self, sim):
        """Inputs triggered before all_of() still complete through the
        scheduler, never synchronously inside the constructor."""
        e1, e2 = sim.event(), sim.event()
        e1.trigger("x")
        e2.trigger("y")
        combined = sim.all_of([e1, e2])
        assert not combined.triggered
        sim.run()
        assert combined.triggered
        assert combined.value == ["x", "y"]

    def test_all_of_empty_is_deferred(self, sim):
        combined = sim.all_of([])
        assert not combined.triggered
        sim.run()
        assert combined.triggered
        assert combined.value == []

    def test_any_of_already_triggered_is_deferred(self, sim):
        ev = sim.event()
        ev.trigger("ready")
        combined = sim.any_of([ev])
        assert not combined.triggered
        sim.run()
        assert combined.value == (0, "ready")

    def test_any_of_simultaneous_triggers_fire_once(self, sim):
        """Two inputs completing at the same instant must produce
        exactly one combined trigger (the lower index wins)."""
        e1, e2 = sim.timeout(5.0, "a"), sim.timeout(5.0, "b")
        got = []
        sim.any_of([e1, e2]).add_callback(got.append)
        sim.run()
        assert got == [(0, "a")]


class TestProcesses:
    def test_result_and_terminated_event(self, sim):
        def proc():
            yield 1.0
            return "final"
        p = sim.process(proc())
        watched = []
        p.terminated.add_callback(watched.append)
        sim.run()
        assert p.result == "final"
        assert not p.alive
        assert watched == ["final"]

    def test_process_waiting_on_terminated(self, sim):
        def child():
            yield 4.0
            return 99

        def parent():
            c = sim.process(child())
            value = yield c.terminated
            return value

        p = sim.process(parent())
        sim.run()
        assert p.result == 99

    def test_terminated_read_after_finish_returns_result(self, sim):
        """``terminated`` is built on first read: read after the end it
        is already triggered with the result."""
        def child():
            yield 1.0
            return 7

        c = sim.process(child())

        def parent():
            yield 5.0
            assert not c.alive
            value = yield c.terminated
            return value, sim.now

        p = sim.process(parent())
        sim.run()
        assert p.result == (7, 5.0)

    def test_all_of_over_finished_and_live_terminated(self, sim):
        def child(delay, value):
            yield delay
            return value

        early = sim.process(child(1.0, "early"))

        def parent():
            yield 2.0
            late = sim.process(child(3.0, "late"))
            values = yield sim.all_of([early.terminated, late.terminated])
            return values, sim.now

        p = sim.process(parent())
        sim.run()
        assert p.result == (["early", "late"], 5.0)

    def test_terminated_read_after_kill_is_triggered_with_none(self, sim):
        def proc():
            yield 10.0
            return "never"

        p = sim.process(proc())
        sim.run(until=1.0)
        p.kill()
        assert p.terminated.triggered
        assert p.terminated.value is None
        assert p.result is None

    def test_finished_process_drops_its_generator(self, sim):
        def proc():
            yield 1.0
            return "done"

        p = sim.process(proc())
        assert p.gen is not None
        sim.run()
        assert p.gen is None
        assert p.result == "done"
        assert p.terminated.value == "done"

    def test_kill_blocked_process(self, sim):
        ev = sim.event()
        cleaned = []

        def proc():
            try:
                yield ev
            finally:
                cleaned.append(True)

        p = sim.process(proc())
        sim.run()   # proc blocks on ev
        p.kill()
        assert cleaned == [True]
        assert not p.alive
        assert ev._waiters == []

    def test_kill_is_idempotent(self, sim):
        def proc():
            yield sim.event()
        p = sim.process(proc())
        sim.run()
        p.kill()
        p.kill()
        assert sim.live_processes == 0

    def test_exception_propagates_to_run(self, sim):
        def proc():
            yield 1.0
            raise RuntimeError("boom")
        sim.process(proc())
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()

    def test_kill_trapping_generator_raises(self, sim):
        """A generator that catches ProcessKilledError and yields again
        can never be resumed — kill() must refuse it loudly, not leave a
        zombie on the books."""
        def stubborn():
            try:
                yield sim.event()
            except ProcessKilledError:
                yield 1.0          # illegal: yielding after the kill
        p = sim.process(stubborn(), name="stubborn")
        sim.run()
        with pytest.raises(SimulationError, match="trapped"):
            p.kill()
        # Even so the process must end up fully dead and accounted for.
        assert not p.alive
        assert sim.live_processes == 0
        assert p.terminated.triggered

    def test_kill_trapping_generator_may_clean_up(self, sim):
        """Trapping for cleanup is fine as long as the generator then
        finishes instead of yielding."""
        cleaned = []

        def tidy():
            try:
                yield sim.event()
            except ProcessKilledError:
                cleaned.append(True)
        p = sim.process(tidy())
        sim.run()
        p.kill()
        assert cleaned == [True]
        assert not p.alive

    def test_kill_scheduled_process_drops_heap_entry(self, sim):
        """Killing a process with a pending resume must remove that
        event, keeping pending_events truthful."""
        def sleeper():
            yield 10.0
        p = sim.process(sleeper())
        sim.step()                  # start event: sleeper now holds
        assert sim.pending_events == 1
        p.kill()
        assert sim.pending_events == 0
        assert sim.run() == 0.0     # nothing left to execute

    def test_kill_scheduled_process_during_run(self, sim):
        def victim_body():
            yield 100.0
            raise AssertionError("resumed after kill")
        victim = sim.process(victim_body(), name="victim")

        def killer():
            yield 1.0
            victim.kill()
        sim.process(killer())
        assert sim.run() == 1.0
        assert not victim.alive


class TestRun:
    def test_until_stops_cleanly(self, sim):
        def proc():
            for _ in range(10):
                yield 10.0
        sim.process(proc())
        assert sim.run(until=35.0) == 35.0
        assert sim.pending_events == 1

    def test_until_executes_events_at_bound(self, sim):
        hits = []

        def proc():
            yield 10.0
            hits.append(sim.now)
        sim.process(proc())
        sim.run(until=10.0)
        assert hits == [10.0]

    def test_until_in_the_past_rejected(self, sim):
        """Regression: ``run(until=3)`` after ``run(until=7)`` with an
        event pending set ``now`` back to 3."""
        def proc():
            yield 10.0
        sim.process(proc())
        assert sim.run(until=7.0) == 7.0
        with pytest.raises(SimTimeError, match="before the current time"):
            sim.run(until=3.0)
        assert sim.now == 7.0 and sim.pending_events == 1
        assert sim.run(until=7.0) == 7.0        # the present is allowed
        assert sim.run() == 10.0

    def test_deadlock_detection(self, sim):
        def proc():
            yield sim.event("never")
        sim.process(proc(), name="stuck")
        with pytest.raises(DeadlockError) as exc:
            sim.run(check_deadlock=True)
        assert "stuck" in exc.value.blocked

    def test_no_deadlock_error_when_all_finish(self, sim):
        def proc():
            yield 1.0
        sim.process(proc())
        sim.run(check_deadlock=True)

    def test_step(self, sim):
        def proc():
            yield 1.0
            yield 1.0
        sim.process(proc())
        steps = 0
        while sim.step():
            steps += 1
        assert steps == 3   # start + two holds
        assert sim.now == 2.0

    def test_blocked_process_names(self, sim):
        ev = sim.event()

        def blocked():
            yield ev

        def running():
            yield 100.0

        sim.process(blocked(), name="b")
        sim.process(running(), name="r")
        sim.run(until=1.0)
        assert sim.blocked_process_names() == ["b"]


class TestDeterminism:
    def test_identical_runs_identical_schedules(self):
        def build():
            sim = Simulator()
            log = []

            def worker(i):
                for k in range(5):
                    yield (i + 1) * 0.5
                    log.append((sim.now, i, k))
            for i in range(4):
                sim.process(worker(i))
            sim.run()
            return log

        assert build() == build()

    def test_fifo_tie_break_at_same_time(self, sim):
        order = []

        def worker(tag):
            yield 5.0
            order.append(tag)

        for tag in range(6):
            sim.process(worker(tag))
        sim.run()
        assert order == list(range(6))


class TestStepRunParity:
    """step() and run() share one dispatch loop (PR-3 regression)."""

    @staticmethod
    def _workload(sim):
        ch_ev = sim.event("gate")

        def worker(i):
            yield i * 0.5
            yield 1.0
            if i == 0:
                ch_ev.trigger("go")
            else:
                yield ch_ev

        for i in range(3):
            sim.process(worker(i), name=f"w{i}")

    def test_step_fires_trace_hook(self):
        times = []
        sim = probed(lambda t, target: times.append(t))

        def proc():
            yield 1.0
        sim.process(proc())
        while sim.step():
            pass
        assert times == [0.0, 1.0]

    def test_step_while_running_raises(self, sim):
        def proc():
            yield 0.0
            sim.step()
        sim.process(proc())
        with pytest.raises(SimulationError, match="step"):
            sim.run()

    def test_run_is_not_reentrant(self, sim):
        def proc():
            yield 0.0
            sim.run()
        sim.process(proc())
        with pytest.raises(SimulationError, match="reentrant"):
            sim.run()

    def test_interleaved_step_run_identical_trace(self):
        from repro.observe import Tracer

        def trace(n_steps):
            sim = Simulator()
            tracer = Tracer()
            sim.observer = tracer
            self._workload(sim)
            for _ in range(n_steps):
                assert sim.step()
            sim.run()
            return [(r.ph, r.cat, r.name, r.ts, r.dur, r.tid)
                    for r in tracer.records]

        pure_run = trace(0)
        assert pure_run  # the workload produces records
        for n_steps in (1, 3, 5):
            assert trace(n_steps) == pure_run

    def test_events_executed_counts_all_dispatches(self, sim):
        def proc():
            yield 1.0
            yield 1.0
        sim.process(proc())
        assert sim.events_executed == 0
        sim.step()
        assert sim.events_executed == 1
        sim.run()
        assert sim.events_executed == 3   # start + two holds


class TestTraceHook:
    def test_hook_sees_every_event(self):
        events = []
        sim = probed(lambda t, target: events.append(t))

        def proc():
            yield 1.0
            yield 2.0

        sim.process(proc())
        sim.run()
        # start + two holds = three executed events.
        assert events == [0.0, 1.0, 3.0]

    def test_hook_receives_process_target(self):
        targets = []
        sim = probed(lambda t, target: targets.append(target))

        def proc():
            yield 1.0

        p = sim.process(proc(), name="traced")
        sim.run()
        assert all(t is p for t in targets)


class TestDispatcherParity:
    """The reference oracle ("seed") and the product dispatcher
    ("fast") execute identical schedules.

    The ``sim`` fixture already runs every test in this file under both
    dispatchers; this class adds the *cross*-kernel assertions for the
    scenarios that construct their own simulator.
    """

    def test_oracle_shares_no_dispatch_code_with_the_product(self):
        assert not issubclass(KERNELS["seed"], Simulator)
        assert KERNELS["fast"] is Simulator

    @staticmethod
    def _mixed_workload(sim, log):
        gate = sim.event("gate")

        def worker(i):
            yield i * 0.5
            log.append(("held", sim.now, i))
            yield 1.0
            if i == 0:
                gate.trigger("go")
                log.append(("fired", sim.now, i))
            else:
                value = yield gate
                log.append(("woke", sim.now, i, value))

        for i in range(4):
            sim.process(worker(i), name=f"w{i}")

    def test_identical_schedules_across_kernels(self):
        def run(kernel):
            sim = KERNELS[kernel]()
            log = []
            self._mixed_workload(sim, log)
            end = sim.run()
            return log, end, sim.events_executed

        seed, fast = run("seed"), run("fast")
        assert seed == fast

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_interleaved_step_run_identical_trace(self, kernel):
        from repro.observe import Tracer

        def trace(n_steps):
            sim = KERNELS[kernel]()
            tracer = Tracer()
            sim.observer = tracer
            log = []
            self._mixed_workload(sim, log)
            for _ in range(n_steps):
                assert sim.step()
            sim.run()
            return [(r.ph, r.cat, r.name, r.ts, r.dur, r.tid)
                    for r in tracer.records]

        pure_run = trace(0)
        assert pure_run
        for n_steps in (1, 3, 5):
            assert trace(n_steps) == pure_run

    def test_tracer_records_identical_across_kernels(self):
        from repro.observe import Tracer

        def records(kernel):
            sim = KERNELS[kernel]()
            tracer = Tracer()
            sim.observer = tracer
            log = []
            self._mixed_workload(sim, log)
            sim.run()
            return [(r.ph, r.cat, r.name, r.ts, r.dur, r.tid)
                    for r in tracer.records]

        seed = records("seed")
        assert seed
        assert seed == records("fast")

    def test_trace_hook_parity(self):
        def hook_times(kernel):
            times = []
            sim = probed(lambda t, target: times.append(t),
                         KERNELS[kernel])
            log = []
            self._mixed_workload(sim, log)
            sim.run()
            return times

        assert hook_times("seed") == hook_times("fast")


class TestTimer:
    """Cancellable timers (the reliable transport's retransmit clock)."""

    def test_timer_fires_with_value(self, sim):
        log = []

        def proc():
            t = sim.timer(25.0, value="expired")
            value = yield t.event
            log.append((sim.now, value, t.active))

        sim.process(proc())
        sim.run()
        assert log == [(25.0, "expired", False)]

    def test_cancel_prevents_firing_and_clock_drag(self, sim):
        timers = []

        def proc():
            t = sim.timer(1_000.0)
            timers.append(t)
            yield 5.0
            assert t.cancel() is True
            yield 5.0

        sim.process(proc())
        assert sim.run() == 10.0          # never dragged out to 1000
        t = timers[0]
        assert not t.active
        assert not t.event.triggered

    def test_cancel_returns_false_when_too_late(self, sim):
        timers = []

        def proc():
            t = sim.timer(5.0)
            timers.append(t)
            yield t.event

        sim.process(proc())
        sim.run()
        assert timers[0].cancel() is False    # already fired
        # Cancelling twice is also a no-op.
        t2 = sim.timer(5.0)
        assert t2.cancel() is True
        assert t2.cancel() is False

    def test_cancelled_timer_keeps_event_accounting_exact(self, sim):
        def proc():
            t = sim.timer(100.0)
            yield 1.0
            t.cancel()

        sim.process(proc())
        sim.run()
        # One process event executed per step; the cancelled trigger
        # must not be counted as executed (same contract as kill()).
        assert sim.events_executed == 2

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimTimeError):
            sim.timer(-1.0)

    def test_race_timer_vs_event_any_of(self, sim):
        """The transport's select: whichever fires first wins."""
        from repro.pearl import Event
        log = []

        def winner(ev):
            yield 3.0
            ev.trigger("data")

        def proc():
            ev = Event(sim, "data")
            sim.process(winner(ev))
            t = sim.timer(50.0, value="timeout")
            idx, value = yield sim.any_of([ev, t.event])
            log.append((idx, value, sim.now))
            t.cancel()

        sim.process(proc())
        assert sim.run() == 3.0
        assert log == [(0, "data", 3.0)]
