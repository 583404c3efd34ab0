"""The VSM coherence protocol (model side).

A fixed-distributed-manager, write-invalidate page protocol in the
style of Li & Hudak's IVY — the canonical design a 1990s VSM for a
multicomputer would use:

* every page has a *home* node (its manager), assigned round-robin;
* a **read fault** asks the home, which forwards to the current owner;
  the owner sends the page and is demoted to reader;
* a **write fault** asks the home, which invalidates every cached copy
  (in parallel) and transfers ownership (plus the page, if the writer
  holds no copy).

All protocol messages travel through the regular switching engine, so
VSM traffic contends with everything else in simulated time; the remote
handlers are modelled as always-responsive (interrupt-driven) with a
fixed per-message handler latency — a documented simplification that
avoids requiring the remote application thread's cooperation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..commmodel.message import Message
from ..commmodel.network import MultiNodeModel
from ..pearl import Event, TallyMonitor
from .runtime import VSMFault

__all__ = ["VSMConfig", "VSMProtocol", "VSMStats"]


@dataclass
class VSMConfig:
    """Timing/size parameters of the VSM layer."""

    request_bytes: int = 16          # fault request / forward messages
    control_bytes: int = 16          # invalidation + acknowledgement
    fault_overhead_cycles: float = 400.0   # local trap + handler entry
    handler_cycles: float = 200.0    # remote handler per protocol message

    def validate(self) -> None:
        if self.request_bytes < 1 or self.control_bytes < 1:
            raise ValueError("VSM message sizes must be >= 1 byte")
        if self.fault_overhead_cycles < 0 or self.handler_cycles < 0:
            raise ValueError("VSM overheads must be >= 0")


class VSMStats:
    """Protocol event counters plus fault-latency distribution."""

    def __init__(self) -> None:
        self.read_faults = 0
        self.write_faults = 0
        self.pages_transferred = 0
        self.page_bytes_moved = 0
        self.invalidations = 0
        self.control_messages = 0
        self.fault_latency = TallyMonitor("vsm_fault_latency")

    def summary(self) -> dict:
        return {
            "read_faults": self.read_faults,
            "write_faults": self.write_faults,
            "faults": self.read_faults + self.write_faults,
            "pages_transferred": self.pages_transferred,
            "page_bytes_moved": self.page_bytes_moved,
            "invalidations": self.invalidations,
            "control_messages": self.control_messages,
            "fault_latency": self.fault_latency.summary(),
        }


class _PageEntry:
    """Manager-side state of one page."""

    __slots__ = ("owner", "copyset")

    def __init__(self, home: int) -> None:
        self.owner = home           # data initially lives at the home
        self.copyset: set[int] = set()


class VSMProtocol:
    """Central page directory + fault transactions over the network."""

    def __init__(self, network: MultiNodeModel,
                 cfg: Optional[VSMConfig] = None) -> None:
        self.network = network
        self.cfg = cfg if cfg is not None else VSMConfig()
        self.cfg.validate()
        self.stats = VSMStats()
        # (region, page) -> _PageEntry
        self._pages: dict[tuple[str, int], _PageEntry] = {}
        # region -> {node -> app-side view dict}
        self._views: dict[str, dict[int, dict]] = {}
        # Page faults reach the node driver as global events.
        network.register_event(VSMFault,
                               lambda node_id, fault: self.handle_fault(fault))

    # -- helpers -----------------------------------------------------------

    def home_of(self, region: str, page: int) -> int:
        """Round-robin page manager assignment."""
        return page % self.network.n_nodes

    def _entry(self, region: str, page: int) -> _PageEntry:
        key = (region, page)
        entry = self._pages.get(key)
        if entry is None:
            entry = _PageEntry(self.home_of(region, page))
            self._pages[key] = entry
        return entry

    def owner_of(self, region: str, page: int) -> int:
        return self._entry(region, page).owner

    def copyset_of(self, region: str, page: int) -> set[int]:
        return set(self._entry(region, page).copyset)

    def _register_view(self, fault: VSMFault) -> None:
        self._views.setdefault(fault.region_name, {})[fault.node] = \
            fault.view

    def _drop_right(self, region: str, node: int, page: int) -> None:
        view = self._views.get(region, {}).get(node)
        if view is not None:
            view.pop(page, None)

    def _set_right(self, region: str, node: int, page: int,
                   right: str) -> None:
        view = self._views.get(region, {}).get(node)
        if view is not None:
            view[page] = right

    # -- message plumbing -----------------------------------------------------

    def _send(self, src: int, dst: int, nbytes: int):
        """Generator: move one protocol message, waiting for delivery."""
        if src == dst:
            return
        sim = self.network.sim
        msg = Message(src, dst, nbytes, synchronous=False)
        done = Event(sim, f"vsm-msg{msg.id}")
        msg.on_deliver = done.trigger
        self.network.inject(msg)
        delivered = yield done
        if isinstance(delivered, Exception):     # reliable transport gave up
            raise delivered
        if self.cfg.handler_cycles:
            yield self.cfg.handler_cycles

    def _send_page(self, src: int, dst: int, page_bytes: int):
        if src == dst:
            return
        self.stats.pages_transferred += 1
        self.stats.page_bytes_moved += page_bytes
        yield from self._send(src, dst, page_bytes)

    def _send_control(self, src: int, dst: int):
        if src == dst:
            return
        self.stats.control_messages += 1
        yield from self._send(src, dst, self.cfg.control_bytes)

    # -- fault transactions ------------------------------------------------------

    def handle_fault(self, fault: VSMFault):
        """Generator run inside the faulting node's driver process (the
        network's handler of :class:`VSMFault`)."""
        sim = self.network.sim
        t0 = sim.now
        self._register_view(fault)
        if self.cfg.fault_overhead_cycles:
            yield self.cfg.fault_overhead_cycles
        if fault.is_write:
            self.stats.write_faults += 1
            yield from self._write_fault(fault)
        else:
            self.stats.read_faults += 1
            yield from self._read_fault(fault)
        self.stats.fault_latency.record(sim.now - t0)

    def _read_fault(self, fault: VSMFault):
        region, page, node = fault.region_name, fault.page, fault.node
        entry = self._entry(region, page)
        home = self.home_of(region, page)
        # 1. ask the manager.
        yield from self._request(node, home)
        # 2. manager forwards to the owner; owner ships the page and is
        #    demoted to reader (it keeps a read-only copy).
        owner = entry.owner
        if owner != home:
            yield from self._request(home, owner)
        yield from self._send_page(owner, node, fault.page_bytes)
        if owner != node:
            self._set_right(region, owner, page, "R")
            entry.copyset.add(owner)
        entry.copyset.add(node)
        fault.view[page] = "R"

    def _write_fault(self, fault: VSMFault):
        region, page, node = fault.region_name, fault.page, fault.node
        entry = self._entry(region, page)
        home = self.home_of(region, page)
        sim = self.network.sim
        # 1. ask the manager.
        yield from self._request(node, home)
        # 2. invalidate every other copy, in parallel (inv + ack pairs).
        victims = (entry.copyset | {entry.owner}) - {node}
        if victims:
            procs = []
            for victim in sorted(victims):
                self.stats.invalidations += 1
                self._drop_right(region, victim, page)
                procs.append(sim.process(
                    self._invalidate_one(home, victim),
                    name=f"vsm-inv-{region}-{page}-{victim}"))
            yield sim.all_of([p.terminated for p in procs])
        # 3. page transfer to the writer, unless it already holds a copy.
        had_copy = node in entry.copyset or entry.owner == node
        if not had_copy:
            yield from self._send_page(entry.owner, node, fault.page_bytes)
        # 4. ownership moves; the writer is the only holder.
        entry.owner = node
        entry.copyset = {node}
        fault.view[page] = "W"

    def _request(self, src: int, dst: int):
        if src == dst:
            return
        self.stats.control_messages += 1
        yield from self._send(src, dst, self.cfg.request_bytes)

    def _invalidate_one(self, home: int, victim: int):
        """Invalidation to ``victim`` plus its acknowledgement to home."""
        yield from self._send_control(home, victim)
        yield from self._send_control(victim, home)
