"""The one observer interface: what the simulated machine did.

The paper's run-time and post-mortem analysis tools all consume one
stream of facts about a run.  A :class:`~repro.pearl.kernel.Simulator`
has one slot for a consumer of it, ``sim.observer``, and
:class:`Observer` is its vocabulary: every method is a no-op, and a
consumer overrides what it needs (:class:`repro.observe.Tracer` records
everything, :class:`repro.check.DeterminismSanitizer` watches resource
and channel contention).  An observer never changes the run; choosing
the schedule is the other slot's job, ``sim.tie_break``.
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["Observer"]


class Observer:
    """No-op base of every simulation observer.

    The kernel, channels and resources call the first five methods;
    model code (NICs, switching engines, the fault layer, the hybrid
    scheduler) calls :meth:`span`, :meth:`instant` and :meth:`counter`.
    """

    __slots__ = ()

    # -- the kernel and its primitives -------------------------------------

    def dispatch(self, ts: float, target: Any) -> None:
        """The kernel is about to execute one event for ``target``: a
        :class:`~repro.pearl.kernel.Process` or a bare callback."""

    def hold(self, ts: float, dur: float, name: str) -> None:
        """Process ``name`` holds (advances local time) for ``dur``."""

    def resource_acquire(self, ts: float, name: str, granted: bool,
                         in_use: int, process: str) -> None:
        """``process`` asked for resource ``name``; ``granted`` if it got
        the units at once (else it queued); ``in_use`` units are now
        held."""

    def resource_release(self, ts: float, name: str, in_use: int) -> None:
        """Units of resource ``name`` came back; ``in_use`` are held now."""

    def channel(self, ts: float, name: str, kind: str, process: str) -> None:
        """``process`` did a ``kind`` (``"send"`` or ``"recv"``) on
        channel ``name``."""

    # -- model code -----------------------------------------------------

    def span(self, cat: str, name: str, ts: float, dur: float, tid: str,
             args: Optional[dict[str, Any]] = None) -> None:
        """``name`` occupied track ``tid`` for ``dur`` from ``ts``."""

    def instant(self, cat: str, name: str, ts: float, tid: str,
                args: Optional[dict[str, Any]] = None) -> None:
        """A zero-duration point event on track ``tid``."""

    def counter(self, ts: float, name: str, value: float,
                cat: str = "occupancy") -> None:
        """A sampled level (queue depth, buffered messages)."""
