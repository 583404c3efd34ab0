"""``repro.pearl`` — the Pearl-style discrete-event simulation kernel.

Mermaid's architecture models were implemented in Pearl, "an
object-oriented simulation language ... especially designed for easily
and flexibly implementing simulation models of computer architectures"
(Muller, 1993).  This package provides the equivalent substrate in
Python:

* :class:`Simulator` — virtual clock and deterministic event list;
* :class:`Process` / :class:`Event` — generator-based simulation objects;
* :class:`Channel` — synchronous (rendezvous) and asynchronous messages;
* :class:`Resource` — FIFO-arbitrated shared hardware (buses, links);
* :class:`Observer` — the no-op base of whatever watches a run
  (``sim.observer``: the tracer, the determinism sanitizer);
* :class:`TallyMonitor` / :class:`TimeWeightedMonitor` — statistics.
"""

from .channel import Channel
from .errors import (
    ChannelClosedError,
    DeadlockError,
    PearlError,
    ProcessKilledError,
    SimTimeError,
    SimulationError,
)
from .introspect import (
    BLOCKING_EVENT_METHODS,
    EVENT_RETURNING_METHODS,
    RELEASE_METHODS,
    SELF_CONTAINED_HOLD_METHODS,
)
from .kernel import (
    Event,
    Process,
    Simulator,
    Timer,
    kernel_mode,
)
from .monitor import TallyMonitor, TimeWeightedMonitor
from .observer import Observer
from .resource import Resource

__all__ = [
    "BLOCKING_EVENT_METHODS",
    "Channel",
    "ChannelClosedError",
    "DeadlockError",
    "EVENT_RETURNING_METHODS",
    "Event",
    "Observer",
    "PearlError",
    "Process",
    "ProcessKilledError",
    "RELEASE_METHODS",
    "Resource",
    "SELF_CONTAINED_HOLD_METHODS",
    "SimTimeError",
    "SimulationError",
    "Simulator",
    "TallyMonitor",
    "TimeWeightedMonitor",
    "Timer",
    "kernel_mode",
]
