"""The Pearl discrete-event simulation kernel.

Mermaid's architecture models were written in Pearl, an object-oriented
simulation language in which architecture components are objects that
exchange messages in virtual time.  This module is the Python substrate
for those models: a deterministic discrete-event kernel in which each
simulation object is a Python generator ("process") scheduled on a
binary-heap event list.

Yield protocol
--------------
A process generator may ``yield``:

* a non-negative number — hold (advance local time) for that many time
  units;
* an :class:`Event` — block until the event is triggered; the value the
  event was triggered with becomes the value of the ``yield`` expression;
* ``None`` — yield control and be resumed at the same simulated time
  (after already-scheduled events at this time).

Determinism: ties in simulated time are broken by a global monotone
sequence number, so identical programs produce identical schedules.

One dispatcher, two loops, two hook slots
-----------------------------------------
:class:`Simulator` is the only event engine.  Events scheduled *at the
current time* while it runs go to a preallocated ring of slots instead
of the heap (they can never overtake a pending heap entry: their
sequence numbers are strictly larger).  A simulator has two hook
slots: ``observer`` (a :class:`~repro.pearl.observer.Observer`, which
watches the run) and ``tie_break`` (which chooses the schedule).
:meth:`Simulator.run` picks one of two loops per call from them:

* the **detached bulk loop** — both slots ``None`` and no event bound:
  resumes generators and interprets their yields inline (cached bound
  ``gen.send``, type-switched fast lanes for numbers and ``None``),
  with no instrumentation conditionals at all;
* the **instrumented loop** — everything else (either slot set, or
  ``step()``): the same ``(time, seq)`` order with ``current_process``
  and one ``observer.dispatch`` call around each event, and with the
  tie-break hook choosing among same-time entries when one is set.

The binary-heap dispatcher this kernel grew from is the specification,
and lives with the tests (``tests/reference_kernel.py``): the
equivalence suites run every scenario on both and require identical
observables.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

from .errors import (
    DeadlockError,
    ProcessKilledError,
    SimTimeError,
    SimulationError,
)
from .observer import Observer

__all__ = ["Event", "Process", "Simulator", "Timer", "kernel_mode"]


def kernel_mode() -> str:
    """Always ``"fast"``: there is one dispatcher and no selector."""
    # Reads no environment; kept because benchmarks/layered records it.
    return "fast"


class Event:
    """A one-shot condition processes can block on.

    An event starts untriggered.  :meth:`trigger` marks it triggered with
    a value and resumes (via the scheduler, preserving FIFO order) every
    process currently waiting on it.  A process that yields an
    already-triggered event resumes immediately with the stored value.
    """

    __slots__ = ("sim", "name", "triggered", "value", "_waiters", "_callbacks")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self.triggered = False
        self.value: Any = None
        self._waiters: list["Process"] = []
        self._callbacks: list[Callable[[Any], None]] = []

    def trigger(self, value: Any = None) -> None:
        """Trigger the event, waking all waiters at the current time."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self.value = value
        waiters = self._waiters
        if waiters:
            sim = self.sim
            for proc in waiters:
                sim._schedule(sim.now, proc, value)
            waiters.clear()
        callbacks = self._callbacks
        if callbacks:
            for cb in callbacks:
                cb(value)
            callbacks.clear()

    def add_callback(self, fn: Callable[[Any], None]) -> None:
        """Call ``fn(value)`` when the event triggers (immediately if it has)."""
        if self.triggered:
            fn(self.value)
        else:
            self._callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "triggered" if self.triggered else "pending"
        return f"<Event {self.name!r} {state}>"


class Timer:
    """A cancellable one-shot timer (see :meth:`Simulator.timer`).

    :meth:`Simulator.timeout` events cannot be revoked: once scheduled
    they fire, and a "timeout that no longer matters" would still drag
    the clock (and ``sim.now``-derived results) out to its expiry.
    Protocol models with retransmit timers need to *disarm* — cancel
    removes the pending trigger from the event heap entirely, with the
    same ``_dropped`` accounting as :meth:`Process.kill` so
    :attr:`Simulator.events_executed` stays exact.
    """

    __slots__ = ("sim", "event", "_cb", "_fired", "_cancelled")

    def __init__(self, sim: "Simulator", event: Event) -> None:
        self.sim = sim
        self.event = event
        self._cb = self._fire          # one stable bound-method object
        self._fired = False
        self._cancelled = False

    def _fire(self, value: Any) -> None:
        self._fired = True
        self.event.trigger(value)

    @property
    def active(self) -> bool:
        """True while the timer is armed (not fired, not cancelled)."""
        return not (self._fired or self._cancelled)

    def cancel(self) -> bool:
        """Disarm the timer; True if it had not already fired.

        The pending heap entry is removed (O(n), like kill), so a
        cancelled timer neither triggers its event nor advances the
        simulation clock to its expiry time.
        """
        if self._fired or self._cancelled:
            return False
        self._cancelled = True
        self.sim._drop_scheduled(self._cb)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = ("fired" if self._fired
                 else "cancelled" if self._cancelled else "armed")
        return f"<Timer {self.event.name!r} {state}>"


class Process:
    """A simulation process wrapping a generator.

    Created through :meth:`Simulator.process`.  The process starts at the
    simulation time current when it was created (it is scheduled, not run
    inline).  When the generator returns, :attr:`result` holds its return
    value and :attr:`terminated` (an :class:`Event`) is triggered with it.
    A finished process drops its generator (``gen`` becomes ``None``):
    the simulator keeps every process for its deadlock report, and a
    spent frame per packet is memory nobody can use.
    """

    __slots__ = ("sim", "name", "gen", "alive", "result",
                 "_scheduled", "_blocked_on", "_send", "_terminated")

    def __init__(self, sim: "Simulator", gen: Generator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.gen: Optional[Generator] = gen
        # The dispatch loops resume the generator millions of times; one
        # cached bound method replaces two attribute lookups per resume.
        self._send: Optional[Callable[[Any], Any]] = gen.send
        self.alive = True
        self.result: Any = None
        self._scheduled = False      # has a pending resume on the event heap
        self._blocked_on: Optional[Event] = None
        # Built on first access: most processes (one per packet) are
        # never joined, and an Event per process is pure overhead.
        self._terminated: Optional[Event] = None

    @property
    def terminated(self) -> Event:
        """Triggered with :attr:`result` when the process ends (with
        ``None`` if it was killed); already triggered if read after."""
        ev = self._terminated
        if ev is None:
            ev = self._terminated = Event(self.sim, f"{self.name}.terminated")
            if not self.alive:
                ev.triggered = True
                ev.value = self.result
        return ev

    def _finish(self, value: Any) -> None:
        """Mark the process ended and wake whatever joined it."""
        self.alive = False
        self.gen = self._send = None
        self.sim._live -= 1
        ev = self._terminated
        if ev is not None and not ev.triggered:
            ev.trigger(value)

    # -- scheduling ------------------------------------------------------

    def _step(self, value: Any, observer: Optional[Observer] = None) -> None:
        """Advance the generator one step and interpret what it yields.

        ``observer`` is passed down by the dispatch loop (a local there)
        so the step pays no attribute lookup for it.
        """
        self._scheduled = False
        self._blocked_on = None
        sim = self.sim
        try:
            item = self._send(value)
        except StopIteration as stop:
            self.result = stop.value
            self._finish(stop.value)
            return
        except ProcessKilledError:
            self._finish(None)
            return
        # Dispatch on the yielded item.  Numbers are by far the hot case.
        if item is None:
            sim._schedule(sim.now, self, None)
        elif isinstance(item, Event):
            if item.triggered:
                sim._schedule(sim.now, self, item.value)
            else:
                item._waiters.append(self)
                self._blocked_on = item
        else:
            try:
                delay = float(item)
            except (TypeError, ValueError):
                raise SimulationError(
                    f"process {self.name!r} yielded unsupported value "
                    f"{item!r}"
                ) from None
            if delay < 0:
                raise SimTimeError(
                    f"process {self.name!r} yielded negative delay {delay}"
                )
            if observer is not None:
                observer.hold(sim.now, delay, self.name)
            sim._schedule(sim.now + delay, self, None)

    def kill(self) -> None:
        """Terminate the process by throwing :class:`ProcessKilledError` into it.

        A generator that traps :class:`ProcessKilledError` may run
        cleanup but must not ``yield`` again: the kernel cannot resume a
        killed process, so a post-kill yield raises
        :class:`SimulationError` (after closing the generator).  Either
        way the process ends up dead, off the event heap, and with its
        ``terminated`` event triggered.
        """
        if not self.alive:
            return
        # Detach from whatever it is waiting on.
        if self._blocked_on is not None:
            try:
                self._blocked_on._waiters.remove(self)
            except ValueError:
                pass
            self._blocked_on = None
        trapped = False
        try:
            try:
                self.gen.throw(ProcessKilledError())
            except (ProcessKilledError, StopIteration):
                pass
            else:
                # The generator caught the kill and yielded again; it is
                # still suspended and can never be resumed.
                trapped = True
                try:
                    self.gen.close()
                except RuntimeError:
                    pass
        finally:
            if self._scheduled:
                self._scheduled = False
                self.sim._drop_scheduled(self)
            self._finish(None)
        if trapped:
            raise SimulationError(
                f"process {self.name!r} trapped ProcessKilledError and "
                f"yielded again instead of terminating")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Process {self.name!r} {'alive' if self.alive else 'done'}>"


class Simulator:
    """The discrete-event engine: virtual clock, event heap, ready ring.

    A Mermaid architecture model is a set of processes created with
    :meth:`process` plus the channels and resources that connect them;
    :meth:`run` executes the model until a time bound or until no events
    remain.

    Pending events live in two places with one ``(time, seq)`` order:

    * the **heap** holds ``(time, seq, target, value)`` entries;
    * the **same-time ready ring** — an event scheduled at the *current*
      time while the simulator is running can never overtake a pending
      heap entry at that time (its sequence number is strictly larger),
      so it goes into a preallocated power-of-two ring of slots instead
      of the heap.  Dispatch order is: heap entries at ``now`` (by
      sequence), then the ring FIFO, then advance the clock via the
      heap — without ``heappush``/``heappop`` for the 30-40% of events
      that are same-time in communication-bound models.  Each slot
      keeps its sequence number, and every dispatch spills what is left
      in the ring back onto the heap on its way out (a bounded
      ``step()``, an exception), so between calls the state is
      heap-only.

    Dispatch runs one of two loops (module docstring): the detached
    bulk loop when both hook slots are empty and the run is unbounded, the
    instrumented loop otherwise.  Everything observable — event order,
    timestamps, observer calls, error messages,
    ``events_executed`` — is identical between them and to the
    heap-only reference dispatcher in ``tests/reference_kernel.py``,
    by construction and by the differential suites.
    """

    _RING_CAP = 1024               # initial slots; grows by doubling

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list = []           # (time, seq, process, value)
        self._seq: int = 0
        self._live: int = 0             # unfinished processes
        self._procs: list[Process] = []  # registry (for deadlock reports)
        self._running = False
        self._dropped: int = 0          # pending entries removed by kill()
        cap = self._RING_CAP
        self._ring_t: list = [None] * cap    # targets (Process or callable)
        self._ring_v: list = [None] * cap    # values
        self._ring_s: list = [0] * cap       # sequence numbers
        self._ring_mask = cap - 1
        self._ring_head = 0
        self._ring_tail = 0
        #: optional :class:`~repro.pearl.observer.Observer` (the tracer,
        #: the determinism sanitizer), told of every dispatched event,
        #: hold, resource and channel operation, and of the model's
        #: spans, instants and counters.  Set it before :meth:`run`.
        self.observer: Optional[Observer] = None
        #: optional tie-break controller: ``select(time, candidates)``
        #: returns the index of the entry to dispatch next among the
        #: ``(time, seq, target, value)`` entries ready at the current
        #: instant, in sequence order.  Asked only on a genuine tie;
        #: ``0`` everywhere is the default schedule (:mod:`repro.verify`
        #: explores the others).  Set before :meth:`run`, it bypasses
        #: the ring so every same-time event is a heap candidate.
        self.tie_break: Any = None
        #: name of the event target currently being dispatched.
        #: Maintained only by the instrumented loop (observer or
        #: tie-break set) — the detached bulk loop skips it so the hot
        #: path stays store-free.
        self.current_process: str = ""

    # -- construction ----------------------------------------------------

    def process(self, gen: Generator, name: str = "") -> Process:
        """Register a generator as a process; it starts at the current time."""
        if not name:
            name = f"proc-{len(self._procs)}"
        proc = Process(self, gen, name)
        self._procs.append(proc)
        self._live += 1
        self._schedule(self.now, proc, None)
        return proc

    def event(self, name: str = "") -> Event:
        """Create a fresh untriggered :class:`Event`."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Event:
        """An event that triggers ``delay`` time units from now."""
        if delay < 0:
            raise SimTimeError(f"negative timeout {delay}")
        ev = Event(self, name or f"timeout({delay})")
        self._schedule_call(self.now + delay, ev.trigger, value)
        return ev

    def timer(self, delay: float, value: Any = None,
              name: str = "") -> Timer:
        """A cancellable timer firing ``delay`` time units from now.

        Like :meth:`timeout` but returns a :class:`Timer` whose
        :meth:`Timer.cancel` removes the pending trigger from the event
        heap — block on ``timer.event``, disarm with ``timer.cancel()``.
        """
        if delay < 0:
            raise SimTimeError(f"negative timer delay {delay}")
        ev = Event(self, name or f"timer({delay})")
        t = Timer(self, ev)
        self._schedule_call(self.now + delay, t._cb, value)
        return t

    # -- scheduling internals ---------------------------------------------

    def _schedule(self, time: float, proc: Process, value: Any) -> None:
        if proc._scheduled:
            raise SimulationError(
                f"process {proc.name!r} scheduled twice (woken while runnable)"
            )
        proc._scheduled = True
        self._seq += 1
        # With a tie-break hook attached the ring is bypassed: the
        # hook must see every same-time event as a candidate.
        if time == self.now and self._running and self.tie_break is None:
            self._ring_append(proc, value, self._seq)
        else:
            heapq.heappush(self._heap, (time, self._seq, proc, value))

    def _schedule_call(self, time: float, fn: Callable, value: Any) -> None:
        """Schedule a bare callback (used by timeouts)."""
        self._seq += 1
        if time == self.now and self._running and self.tie_break is None:
            self._ring_append(fn, value, self._seq)
        else:
            heapq.heappush(self._heap, (time, self._seq, fn, value))

    def _drop_scheduled(self, target: Any) -> None:
        """Remove every pending entry for ``target`` — a killed
        process's resume, a cancelled :class:`Timer`'s callback.

        Mutates the heap in place so aliases held by a running dispatch
        loop stay valid; O(n), but only paid on kill/cancel.
        """
        heap = self._heap
        before = len(heap)
        heap[:] = [entry for entry in heap if entry[2] is not target]
        heapq.heapify(heap)
        self._dropped += before - len(heap) + self._filter_ring(target)

    # -- ready-ring plumbing ----------------------------------------------

    def _ring_append(self, target: Any, value: Any, seq: int) -> None:
        tail = self._ring_tail
        if tail - self._ring_head > self._ring_mask:
            self._ring_grow()
        i = tail & self._ring_mask
        self._ring_t[i] = target
        self._ring_v[i] = value
        self._ring_s[i] = seq
        self._ring_tail = tail + 1

    def _ring_grow(self) -> None:
        """Double the ring, re-linearizing live entries from the head."""
        old_t, old_v, old_s = self._ring_t, self._ring_v, self._ring_s
        mask = self._ring_mask
        n = mask + 1
        head = self._ring_head
        self._ring_t = [old_t[(head + k) & mask] for k in range(n)] + [None] * n
        self._ring_v = [old_v[(head + k) & mask] for k in range(n)] + [None] * n
        self._ring_s = [old_s[(head + k) & mask] for k in range(n)] + [0] * n
        self._ring_mask = 2 * n - 1
        self._ring_head = 0
        self._ring_tail = n

    def _flush_ring(self) -> None:
        """Spill ring entries back onto the heap (dispatch exit).

        Entries keep their original sequence numbers, so a later
        ``run()``/``step()`` pops them in exactly ``(time, seq)`` order.
        """
        head, tail = self._ring_head, self._ring_tail
        if head == tail:
            return
        heap = self._heap
        mask = self._ring_mask
        now = self.now
        push = heapq.heappush
        for i in range(head, tail):
            j = i & mask
            push(heap, (now, self._ring_s[j], self._ring_t[j],
                        self._ring_v[j]))
            self._ring_t[j] = None
            self._ring_v[j] = None
        self._ring_head = 0
        self._ring_tail = 0

    def _filter_ring(self, target: Any) -> int:
        """Remove every ring entry whose target is ``target``; returns
        how many were removed (the caller accounts them as dropped)."""
        head, tail = self._ring_head, self._ring_tail
        if head == tail:
            return 0
        mask = self._ring_mask
        live = [(self._ring_s[i & mask], self._ring_t[i & mask],
                 self._ring_v[i & mask]) for i in range(head, tail)]
        kept = [e for e in live if e[1] is not target]
        removed = len(live) - len(kept)
        if not removed:
            return 0
        for i, (s, t, v) in enumerate(kept):
            self._ring_s[i] = s
            self._ring_t[i] = t
            self._ring_v[i] = v
        for i in range(len(kept), min(tail - head, mask + 1)):
            self._ring_t[i] = None
            self._ring_v[i] = None
        self._ring_head = 0
        self._ring_tail = len(kept)
        return removed

    # -- execution ---------------------------------------------------------

    def _dispatch(self, until: Optional[float], max_events: int) -> None:
        """The one entry to event dispatch behind :meth:`run` and
        :meth:`step`; ``max_events`` bounds how many events execute
        (``-1`` = unbounded).
        """
        try:
            if (self.observer is None and self.tie_break is None
                    and max_events == -1):
                self._dispatch_bulk(until)
            else:
                self._dispatch_instrumented(until, max_events)
        finally:
            # Bounded dispatch (and exceptions) may leave ready entries;
            # spill them so heap-only state is restored between calls.
            self._flush_ring()

    def _dispatch_bulk(self, until: Optional[float]) -> None:
        """Detached unbounded dispatch — the inlined hot loop.

        Semantically the instrumented loop with nothing attached, fused
        with :meth:`Process._step`; every branch reproduces that
        behaviour (including error messages) exactly.
        """
        heap = self._heap
        pop = heapq.heappop
        push = heapq.heappush
        now = self.now
        while True:
            # Priority: heap entries at `now` precede the ring (their
            # sequence numbers are strictly smaller — same-time events
            # scheduled *while running* only ever enter the ring).
            if heap and heap[0][0] == now:
                entry = pop(heap)
                target = entry[2]
                value = entry[3]
                time = now
            elif self._ring_head != self._ring_tail:
                head = self._ring_head
                i = head & self._ring_mask
                ring_t = self._ring_t
                target = ring_t[i]
                value = self._ring_v[i]
                ring_t[i] = None
                if value is not None:
                    self._ring_v[i] = None
                self._ring_head = head + 1
                time = now
            elif heap:
                entry = heap[0]
                time = entry[0]
                if until is not None and time > until:
                    self.now = until
                    return
                pop(heap)
                target = entry[2]
                value = entry[3]
                now = self.now = time
            else:
                return
            if target.__class__ is Process:
                if not target.alive:
                    continue
                target._scheduled = False
                target._blocked_on = None
                try:
                    item = target._send(value)
                except StopIteration as stop:
                    target.result = stop.value
                    target._finish(stop.value)
                    continue
                except ProcessKilledError:
                    target._finish(None)
                    continue
                # Interpret the yield: a hold pushes onto the heap; a
                # blocking wait parks the process; every same-time
                # resume falls through to one ring slot below.
                cls = item.__class__
                if cls is float or cls is int:
                    if item > 0:
                        seq = self._seq = self._seq + 1
                        target._scheduled = True
                        push(heap, (time + item, seq, target, None))
                        continue
                    if item != 0:
                        raise SimTimeError(
                            f"process {target.name!r} yielded negative "
                            f"delay {float(item)}")
                    value = None
                elif item is None:
                    value = None
                elif isinstance(item, Event):
                    if not item.triggered:
                        item._waiters.append(target)
                        target._blocked_on = item
                        continue
                    value = item.value
                else:
                    try:
                        delay = float(item)
                    except (TypeError, ValueError):
                        raise SimulationError(
                            f"process {target.name!r} yielded unsupported "
                            f"value {item!r}") from None
                    if delay < 0:
                        raise SimTimeError(
                            f"process {target.name!r} yielded negative "
                            f"delay {delay}")
                    when = time + delay
                    if when != time:
                        seq = self._seq = self._seq + 1
                        target._scheduled = True
                        push(heap, (when, seq, target, None))
                        continue
                    # A zero of another numeric type (numpy) is a
                    # same-time resume too, as in _schedule.
                    value = None
                # Same-time resume: _schedule's ring branch, inlined.
                seq = self._seq = self._seq + 1
                target._scheduled = True
                tail = self._ring_tail
                if tail - self._ring_head > self._ring_mask:
                    self._ring_grow()
                i = tail & self._ring_mask
                self._ring_t[i] = target
                self._ring_v[i] = value
                self._ring_s[i] = seq
                self._ring_tail = tail + 1
            else:
                target(value)

    def _dispatch_instrumented(self, until: Optional[float],
                               max_events: int) -> None:
        """Observed / tie-broken / bounded dispatch.

        The same next-entry order as the bulk loop, then
        ``current_process``, ``observer.dispatch`` and the target, in
        that order.
        Under a tie-break hook the ring stays empty (``_schedule``
        bypasses it) and the hook picks among the heap entries at
        ``now``.
        """
        heap = self._heap
        pop = heapq.heappop
        observer = self.observer
        tie_break = self.tie_break
        now = self.now
        executed = 0
        while executed != max_events:
            if heap and heap[0][0] == now:
                entry = (pop(heap) if tie_break is None
                         else self._pop_tie_broken(tie_break))
                target = entry[2]
                value = entry[3]
            elif self._ring_head != self._ring_tail:
                head = self._ring_head
                i = head & self._ring_mask
                target = self._ring_t[i]
                value = self._ring_v[i]
                self._ring_t[i] = None
                self._ring_v[i] = None
                self._ring_head = head + 1
            elif heap:
                time = heap[0][0]
                if until is not None and time > until:
                    self.now = until
                    return
                now = self.now = time
                continue
            else:
                return
            executed += 1
            is_process = target.__class__ is Process
            self.current_process = (target.name if is_process else
                                    getattr(target, "__name__", "callback"))
            if observer is not None:
                observer.dispatch(now, target)
            if not is_process:
                target(value)
            elif target.alive:
                target._step(value, observer)

    def _pop_tie_broken(self, tie_break) -> tuple:
        """Pop the heap entry at ``now`` that ``tie_break`` selects.

        The hook is asked only when there is a genuine tie, with the
        candidates in sequence order.  The chosen entry is removed **by
        sequence number**, never by tuple equality — values may be
        arrays whose ``==`` is elementwise.
        """
        heap = self._heap
        entry = heap[0]
        time = entry[0]
        if len(heap) > 1:
            candidates = sorted(
                (e for e in heap if e[0] == time), key=lambda e: e[1])
            if len(candidates) > 1:
                chosen = tie_break.select(time, candidates)
                if not 0 <= chosen < len(candidates):
                    raise SimulationError(
                        f"tie-break hook selected index {chosen} of "
                        f"{len(candidates)} candidates at t={time:g}")
                entry = candidates[chosen]
        if entry is heap[0]:
            heapq.heappop(heap)
        else:
            seq = entry[1]
            idx = next(i for i, e in enumerate(heap) if e[1] == seq)
            last = heap.pop()
            if idx < len(heap):
                heap[idx] = last
                heapq.heapify(heap)
        return entry

    def run(self, until: Optional[float] = None,
            check_deadlock: bool = False) -> float:
        """Run the simulation.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time (events exactly at
            ``until`` are executed).  ``None`` runs to event exhaustion.
            A bound before :attr:`now` raises :class:`SimTimeError`:
            simulated time never runs backwards.
        check_deadlock:
            If true and the event list drains while processes are still
            alive (i.e. blocked forever), raise :class:`DeadlockError`.

        Returns the final simulation time.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        if until is not None and until < self.now:
            raise SimTimeError(
                f"run(until={until}) is before the current time {self.now}")
        self._running = True
        try:
            self._dispatch(until, -1)
        finally:
            self._running = False
        if check_deadlock and not self._heap and self._live > 0:
            blocked = [p.name for p in self._procs if p.alive]
            raise DeadlockError(blocked)
        return self.now

    def step(self) -> bool:
        """Execute a single event; return False if none remain.

        Drives the same dispatch path as :meth:`run` (observer calls,
        liveness checks), so interleaving ``step()`` with ``run()``
        produces the identical schedule and trace.
        """
        if self._running:
            raise SimulationError("step() called while the simulator "
                                  "is running")
        if not self._heap:
            return False
        self._running = True
        try:
            self._dispatch(None, 1)
        finally:
            self._running = False
        return True

    @property
    def pending_events(self) -> int:
        """Number of scheduled (not yet executed) events."""
        return len(self._heap) + (self._ring_tail - self._ring_head)

    @property
    def events_executed(self) -> int:
        """Total events executed so far (over all run()/step() calls).

        Derived, not counted: every ``_seq`` increment is one scheduled
        event, and a scheduled event is either still pending (heap or
        ring), was dropped by :meth:`Process.kill` /
        :meth:`Timer.cancel`, or has executed — so the hot dispatch
        loop carries no per-event bookkeeping for this.
        """
        return self._seq - self.pending_events - self._dropped

    @property
    def live_processes(self) -> int:
        """Number of processes that have not terminated."""
        return self._live

    def blocked_process_names(self) -> list[str]:
        """Names of alive processes with no scheduled resume (blocked)."""
        return [p.name for p in self._procs
                if p.alive and not p._scheduled]

    def all_of(self, events: Iterable[Event], name: str = "all_of") -> Event:
        """An event triggered once *all* of ``events`` have triggered.

        Triggers with the list of individual values, in input order.
        Completion is always routed through the scheduler: the combined
        event triggers at the completing time but strictly *after* the
        completing call returns, whether the inputs were already
        triggered at construction, trigger later, or the list is empty.
        """
        events = list(events)
        combined = Event(self, name)
        if not events:
            self._schedule_call(self.now, combined.trigger, [])
            return combined
        remaining = [len(events)]
        values: list[Any] = [None] * len(events)

        def make_cb(i: int):
            def cb(value: Any) -> None:
                values[i] = value
                remaining[0] -= 1
                if remaining[0] == 0:
                    self._schedule_call(self.now, combined.trigger,
                                        list(values))
            return cb

        for i, ev in enumerate(events):
            ev.add_callback(make_cb(i))
        return combined

    def any_of(self, events: Iterable[Event], name: str = "any_of") -> Event:
        """An event triggered as soon as *any* of ``events`` triggers.

        Triggers with a tuple ``(index, value)`` of the first event to
        fire; later triggers are ignored.  Like :meth:`all_of`, the
        combined trigger is scheduled, never fired synchronously from
        inside the winning event's trigger (or the constructor).
        """
        events = list(events)
        combined = Event(self, name)
        fired = [False]

        def make_cb(i: int):
            def cb(value: Any) -> None:
                if not fired[0]:
                    fired[0] = True
                    self._schedule_call(self.now, combined.trigger,
                                        (i, value))
            return cb

        for i, ev in enumerate(events):
            ev.add_callback(make_cb(i))
        return combined
