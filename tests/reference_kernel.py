"""The reference Pearl dispatcher — the kernel's specification.

:class:`ReferenceSimulator` is the seed event engine the product kernel
(:class:`repro.pearl.Simulator`) grew from: one binary heap, one
generic dispatch loop, nothing inlined and no ready ring.  It is not
part of the program and cannot be selected by it; the harness that
wants a second opinion installs it:

* the equivalence suites (``test_kernel_equivalence``, the dispatcher
  parity class in ``test_pearl_kernel``, ``test_verify``,
  ``test_bounds*``) and the ``sim`` fixture construct it directly;
* :func:`reference_stack` runs whole-stack code (``Workbench``,
  ``run_pingpong``, sweeps) on the specification: the two places that
  construct a simulator when none is passed build the reference, and
  the computational model takes its scalar per-op loop.

The oracle shares only :class:`~repro.pearl.Process`,
:class:`~repro.pearl.Event` and :class:`~repro.pearl.Timer` with the
product — scheduling, dropping, accounting and dispatch are its own, so
a defect in the product's versions cannot hide in both.
"""

from __future__ import annotations

import contextlib
import heapq
from typing import Any, Callable, Generator, Iterable, Iterator, Optional
from unittest import mock

from repro.pearl import (
    DeadlockError,
    Event,
    Process,
    SimTimeError,
    SimulationError,
    Simulator,
    Timer,
)

__all__ = ["CONSTRUCTION_SITES", "KERNELS", "ReferenceSimulator",
           "kernel_stack", "reference_stack"]


class ReferenceSimulator:
    """Heap-only discrete-event engine with the :class:`Simulator` API."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list = []           # (time, seq, target, value)
        self._seq: int = 0
        self._live: int = 0
        self._procs: list[Process] = []
        self._running = False
        self._dropped: int = 0
        self.observer = None
        self.tie_break = None
        self.current_process: str = ""

    # -- construction ----------------------------------------------------

    def process(self, gen: Generator, name: str = "") -> Process:
        if not name:
            name = f"proc-{len(self._procs)}"
        proc = Process(self, gen, name)
        self._procs.append(proc)
        self._live += 1
        self._schedule(self.now, proc, None)
        return proc

    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None,
                name: str = "") -> Event:
        if delay < 0:
            raise SimTimeError(f"negative timeout {delay}")
        ev = Event(self, name or f"timeout({delay})")
        self._schedule_call(self.now + delay, ev.trigger, value)
        return ev

    def timer(self, delay: float, value: Any = None,
              name: str = "") -> Timer:
        if delay < 0:
            raise SimTimeError(f"negative timer delay {delay}")
        ev = Event(self, name or f"timer({delay})")
        t = Timer(self, ev)
        self._schedule_call(self.now + delay, t._cb, value)
        return t

    # -- scheduling ------------------------------------------------------

    def _schedule(self, time: float, proc: Process, value: Any) -> None:
        if proc._scheduled:
            raise SimulationError(
                f"process {proc.name!r} scheduled twice (woken while runnable)"
            )
        proc._scheduled = True
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, proc, value))

    def _schedule_call(self, time: float, fn: Callable, value: Any) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, fn, value))

    def _drop_scheduled(self, target: Any) -> None:
        """Remove a killed process's pending resume or a cancelled
        timer's callback (in place: the running dispatch loop holds an
        alias of the heap)."""
        heap = self._heap
        before = len(heap)
        heap[:] = [entry for entry in heap if entry[2] is not target]
        heapq.heapify(heap)
        self._dropped += before - len(heap)

    # -- execution -------------------------------------------------------

    def _dispatch(self, until: Optional[float], max_events: int) -> None:
        """The one loop: pop the least ``(time, seq)`` entry — or, under
        a tie-break hook with a genuine tie, the one it selects — then
        ``current_process``, ``observer.dispatch``, target."""
        heap = self._heap
        observer = self.observer
        tie_break = self.tie_break
        executed = 0
        while heap and executed != max_events:
            entry = heap[0]
            time = entry[0]
            if until is not None and time > until:
                self.now = until
                break
            if tie_break is not None and len(heap) > 1:
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
                # By sequence number, never tuple equality: values may
                # be arrays whose ``==`` is elementwise.
                seq = entry[1]
                idx = next(i for i, e in enumerate(heap) if e[1] == seq)
                last = heap.pop()
                if idx < len(heap):
                    heap[idx] = last
                    heapq.heapify(heap)
            executed += 1
            self.now = time
            target = entry[2]
            value = entry[3]
            if type(target) is Process:
                self.current_process = target.name
                if observer is not None:
                    observer.dispatch(time, target)
                if target.alive:
                    target._step(value, observer)
            else:
                self.current_process = getattr(target, "__name__",
                                               "callback")
                if observer is not None:
                    observer.dispatch(time, target)
                target(value)

    def run(self, until: Optional[float] = None,
            check_deadlock: bool = False) -> float:
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
            raise DeadlockError([p.name for p in self._procs if p.alive])
        return self.now

    def step(self) -> bool:
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

    # -- accounting ------------------------------------------------------

    @property
    def pending_events(self) -> int:
        return len(self._heap)

    @property
    def events_executed(self) -> int:
        return self._seq - len(self._heap) - self._dropped

    @property
    def live_processes(self) -> int:
        return self._live

    def blocked_process_names(self) -> list[str]:
        return [p.name for p in self._procs
                if p.alive and not p._scheduled]

    # -- combinators -----------------------------------------------------

    def all_of(self, events: Iterable[Event], name: str = "all_of") -> Event:
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


#: the two dispatchers under the parametrize ids the suites have always
#: used: ``seed`` is the specification, ``fast`` the product.
KERNELS = {"seed": ReferenceSimulator, "fast": Simulator}


#: every place under ``src/`` that constructs a simulator when none is
#: passed (``tests/test_kernel_equivalence.py`` greps ``src/`` and fails
#: when this set is out of date).
CONSTRUCTION_SITES = ("repro.commmodel.network", "repro.sharedmem.smp")


@contextlib.contextmanager
def reference_stack() -> Iterator[list[ReferenceSimulator]]:
    """Run the whole model stack on the specification.

    Inside the block a ``CommunicationModel`` or ``SMPNodeModel`` built
    without an explicit ``sim`` gets a :class:`ReferenceSimulator`, and
    ``batch.fast_eligible`` answers False, so ``run_trace`` and
    ``extract_tasks`` take the scalar per-op loop.  Code that does its
    own ``from repro.pearl import Simulator; Simulator()`` is *not*
    redirected — pass it ``ReferenceSimulator`` instead.  The block
    yields the list of reference simulators built inside it in this
    process, so a caller can assert it really ran on the oracle.
    Worker processes inherit the patch only under the ``fork`` start
    method (the one ``WorkerPool`` uses), and their simulators do not
    show up in the parent's list.
    """
    built: list[ReferenceSimulator] = []

    def build(**kwargs: Any) -> ReferenceSimulator:
        sim = ReferenceSimulator(**kwargs)
        built.append(sim)
        return sim

    with contextlib.ExitStack() as stack:
        for module in CONSTRUCTION_SITES:
            stack.enter_context(mock.patch(f"{module}.Simulator", build))
        stack.enter_context(mock.patch(
            "repro.compmodel.batch.fast_eligible",
            lambda node_model: False))
        yield built


def kernel_stack(kernel: str) -> contextlib.AbstractContextManager:
    """:func:`reference_stack` for ``"seed"``, the product as it is for
    ``"fast"`` (yielding an empty list) — for tests parametrized over
    :data:`KERNELS`."""
    if kernel == "seed":
        return reference_stack()
    assert kernel == "fast", kernel
    return contextlib.nullcontext([])
