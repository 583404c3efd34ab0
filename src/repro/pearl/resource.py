"""Arbitrated resources — buses, links and other shared hardware.

Mermaid's bus component "is a simple forwarding mechanism, carrying out
arbitration upon multiple accesses"; the router's output links likewise
serialize competing packets.  :class:`Resource` is the kernel primitive
behind both: a counted FIFO semaphore whose holders occupy capacity for
a span of simulated time, with built-in utilization accounting.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .errors import SimTimeError, SimulationError
from .kernel import Event, Simulator

__all__ = ["Resource"]


class Resource:
    """A shared resource with ``capacity`` simultaneous holders (FIFO grant).

    Usage inside a process::

        yield bus.acquire()
        yield transfer_time
        bus.release()

    or, for the common acquire-hold-release pattern::

        yield from bus.use(transfer_time)
    """

    __slots__ = ("sim", "name", "capacity", "_in_use", "_queue",
                 "acquisitions", "_busy_time", "_last_change", "_busy_since",
                 "max_queue_len", "total_wait_time", "_acquire_name")

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name or "resource"
        self.capacity = capacity
        self._in_use = 0
        self._queue: deque = deque()   # (event, units, time_enqueued)
        self.acquisitions = 0
        self._busy_time = 0.0           # integral of (in_use/capacity) dt
        self._last_change = sim.now
        self._busy_since: Optional[float] = None
        self.max_queue_len = 0
        self.total_wait_time = 0.0
        self._acquire_name = f"{self.name}.acquire"

    # -- accounting ---------------------------------------------------------

    def _account(self) -> None:
        now = self.sim.now
        if self._in_use > 0:
            self._busy_time += (now - self._last_change) * (
                self._in_use / self.capacity)
        self._last_change = now

    def utilization(self, horizon: Optional[float] = None) -> float:
        """Fraction of capacity-time used since construction.

        ``horizon`` defaults to the current simulation time; pass the run
        length explicitly for post-run reporting.
        """
        self._account()
        span = self.sim.now if horizon is None else horizon
        if span <= 0:
            return 0.0
        return self._busy_time / span

    # -- operations -----------------------------------------------------------

    def acquire(self, units: int = 1) -> Event:
        """Request ``units`` of capacity; yield the event to hold them."""
        if units < 1 or units > self.capacity:
            raise SimulationError(
                f"cannot acquire {units} units of {self.name!r} "
                f"(capacity {self.capacity})")
        sim = self.sim
        ev = Event(sim, self._acquire_name)
        queue = self._queue
        in_use = self._in_use
        granted = not queue and in_use + units <= self.capacity
        if granted:
            # _account(), inlined: this is every packet hop's path.
            now = sim.now
            if in_use > 0:
                self._busy_time += (now - self._last_change) * (
                    in_use / self.capacity)
            self._last_change = now
            self._in_use = in_use + units
            self.acquisitions += 1
            # Nobody can be waiting on an event this call just built:
            # mark it triggered without the trigger() round trip.
            ev.triggered = True
        else:
            queue.append((ev, units, sim.now))
            if len(queue) > self.max_queue_len:
                self.max_queue_len = len(queue)
        observer = sim.observer
        if observer is not None:
            observer.resource_acquire(sim.now, self.name, granted,
                                      self._in_use, sim.current_process)
        return ev

    def release(self, units: int = 1) -> None:
        """Return ``units`` of capacity and grant queued requests (FIFO)."""
        in_use = self._in_use
        if units > in_use:
            raise SimulationError(
                f"release of {units} exceeds in-use {in_use} "
                f"on {self.name!r}")
        # _account(), inlined: this is every packet hop's path.
        sim = self.sim
        now = sim.now
        if in_use > 0:
            self._busy_time += (now - self._last_change) * (
                in_use / self.capacity)
        self._last_change = now
        self._in_use = in_use - units
        if self._queue:
            self._grant_queued()
        observer = sim.observer
        if observer is not None:
            observer.resource_release(now, self.name, self._in_use)

    def release_after(self, delay: float, units: int = 1) -> None:
        """Release ``units`` of capacity ``delay`` time units from now.

        One scheduled bound callback (:meth:`release` itself), with no
        event and no process: the same single heap entry a
        :meth:`Simulator.timeout` would take, minus its objects.
        """
        if delay < 0:
            raise SimTimeError(f"negative release delay {delay}")
        sim = self.sim
        sim._schedule_call(sim.now + delay, self.release, units)

    def _grant_queued(self) -> None:
        # Strict FIFO: grant from the head only, never skip ahead.
        queue = self._queue
        while queue:
            ev, need, t_enq = queue[0]
            if self._in_use + need > self.capacity:
                break
            queue.popleft()
            self._in_use += need
            self.acquisitions += 1
            self.total_wait_time += self.sim.now - t_enq
            ev.trigger(None)

    def cancel(self, event: Event) -> bool:
        """Withdraw a still-queued acquire request.

        Returns True if ``event`` was waiting in the queue (it will now
        never trigger).  Removing a head request whose ``units`` demand
        was blocking smaller requests behind it re-runs FIFO granting.
        A request that was already granted cannot be cancelled — the
        holder owns capacity and must :meth:`release` it.
        """
        for i, (ev, _units, _t_enq) in enumerate(self._queue):
            if ev is event:
                del self._queue[i]
                self._grant_queued()
                return True
        return False

    def use(self, hold_time: float, units: int = 1):
        """Generator helper: acquire, hold ``hold_time``, release.

        Exception-safe in every phase: if the calling process is
        ``kill()``ed (or any exception is thrown in) while *holding*,
        the units are released; while still *queued* for the grant, the
        request is cancelled — either way no capacity leaks.
        """
        # The kill path releases via cancel(), not release(), which
        # the static leak check cannot model.
        grant = self.acquire(units)        # repro: noqa[PY012]
        try:
            yield grant
            yield hold_time
        finally:
            if grant.triggered:
                self.release(units)
            else:
                self.cancel(grant)

    #: Pearl-DSL spelling of :meth:`use`.
    using = use

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Resource {self.name!r} {self._in_use}/{self.capacity} "
                f"queued={len(self._queue)}>")
