"""The node bus — arbitration between CPUs/caches and the memory.

"To connect the processors and the cache hierarchy to the memory, the
template defines a bus component.  It is a simple forwarding mechanism,
carrying out arbitration upon multiple accesses" (Section 4.1).

The bus offers two usage styles:

* **analytic** (:meth:`Bus.transaction_cycles`) — latency of an
  uncontended transaction; exact for a single-CPU node where only one
  agent can ever use the bus;
* **simulated** (:meth:`Bus.transaction`) — a generator acquiring the
  underlying kernel :class:`~repro.pearl.resource.Resource` so multiple
  CPUs contend in simulated time (the SMP / snoopy case).
"""

from __future__ import annotations

from typing import Optional

from ..config import BusConfig
from ..pearl import Resource, Simulator

__all__ = ["Bus"]


class Bus:
    """The shared node bus with FIFO arbitration and traffic counters."""

    __slots__ = ("cfg", "name", "resource", "transactions", "bytes_moved",
                 "busy_cycles")

    def __init__(self, cfg: BusConfig, sim: Optional[Simulator] = None,
                 name: str = "bus", capacity: int = 1) -> None:
        cfg.validate()
        self.cfg = cfg
        self.name = name
        # The kernel resource only exists when the bus is simulated
        # (multi-CPU); analytic use never touches the kernel.  A
        # capacity above 1 models a crossbar-like fabric (one port per
        # agent) instead of a single shared bus.
        self.resource = (Resource(sim, capacity, name)
                         if sim is not None else None)
        self.transactions = 0
        self.bytes_moved = 0
        self.busy_cycles = 0.0

    def transaction_cycles(self, nbytes: int,
                           extra_cycles: float = 0.0) -> float:
        """Latency of one uncontended transaction moving ``nbytes``.

        ``extra_cycles`` is occupancy added while the bus is held (e.g.
        the DRAM access at the far side of a line fill).
        """
        cost = (self.cfg.arbitration_cycles
                + self.cfg.transfer_cycles(nbytes)
                + extra_cycles)
        self.transactions += 1
        self.bytes_moved += nbytes
        self.busy_cycles += cost
        return cost

    def transaction(self, nbytes: int, extra_cycles: float = 0.0):
        """Simulated transaction: generator to ``yield from`` in a process.

        Occupies the bus resource for the transfer (plus ``extra_cycles``)
        after FIFO arbitration; competing CPUs queue.
        """
        if self.resource is None:
            raise RuntimeError(
                f"bus {self.name!r} built without a simulator; use "
                "transaction_cycles() for analytic mode")
        occupancy = self.cfg.transfer_cycles(nbytes) + extra_cycles
        self.transactions += 1
        self.bytes_moved += nbytes
        self.busy_cycles += self.cfg.arbitration_cycles + occupancy
        yield self.resource.acquire()
        try:
            yield self.cfg.arbitration_cycles + occupancy
        finally:
            self.resource.release()

    def utilization(self, horizon: float) -> float:
        """Busy fraction over ``horizon`` cycles (analytic counterpart of
        the resource utilization in simulated mode)."""
        return self.busy_cycles / horizon if horizon > 0 else 0.0

    def summary(self) -> dict:
        return {
            "transactions": self.transactions,
            "bytes_moved": self.bytes_moved,
            "busy_cycles": self.busy_cycles,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Bus txns={self.transactions} bytes={self.bytes_moved}>"
