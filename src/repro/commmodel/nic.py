"""The abstract processor — a node's interface to the network (Fig 3b).

"Each abstract processor component within the multi-node model reads an
incoming operation trace, processes the compute operations and
dispatches the communication requests to a router component."

The NIC implements the four message-passing operations of Table 1:

* ``send``  — synchronous: the sender blocks until the message has been
  delivered at the destination node (the acknowledgement path is
  modelled as instantaneous; a documented simplification).
* ``asend`` — asynchronous: the sender pays only the software send
  overhead and continues; the message travels independently.
* ``recv``  — synchronous: blocks until a message *from the named
  source* has arrived, then pays the receive overhead.
* ``arecv`` — asynchronous: consumes an already-arrived message, or
  pre-posts a receive that will absorb the message on arrival, without
  blocking either way.

Arrived messages are buffered per source in FIFO order, so messages
between a given pair are matched in order.

As an extension (modelling the transputer's occam ``ALT``), ``recv_any``
blocks until a message from *any* of a set of sources arrives — the
primitive self-scheduling runtimes (task farms) are built on.
:class:`RecvAnyEvent` is its task-level trace representation (a global
event outside Table 1).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Optional

from ..core.config import NetworkConfig
from ..pearl import Event, Simulator, TallyMonitor
from .message import Message

__all__ = ["NIC", "NICStats", "RecvAnyEvent"]


class RecvAnyEvent:
    """Task-level 'receive from any of ``sources``' global event.

    Not a Table-1 operation: an extension the drivers accept alongside
    the standard five communication operations.
    """

    __slots__ = ("sources",)

    is_global_event = True
    code = None

    def __init__(self, sources: Iterable[int]) -> None:
        self.sources = frozenset(int(s) for s in sources)
        if not self.sources:
            raise ValueError("recv_any needs at least one source")

    def __repr__(self) -> str:
        return f"recv_any(sources={sorted(self.sources)})"


class NICStats:
    """Per-node communication statistics."""

    __slots__ = ("messages_sent", "messages_received", "bytes_sent",
                 "bytes_received", "send_wait", "recv_wait", "pre_posted")

    def __init__(self) -> None:
        self.messages_sent = 0
        self.messages_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.send_wait = TallyMonitor("send_wait")
        self.recv_wait = TallyMonitor("recv_wait")
        self.pre_posted = 0

    def summary(self) -> dict:
        return {
            "messages_sent": self.messages_sent,
            "messages_received": self.messages_received,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "send_wait": self.send_wait.summary(),
            "recv_wait": self.recv_wait.summary(),
            "pre_posted_receives": self.pre_posted,
        }


class NIC:
    """Network interface of one node.

    ``inject`` is supplied by the network model and hands a message to
    the switching engine; ``on_delivery(msg, event)`` registers the
    sender-side completion event for synchronous sends.
    """

    __slots__ = ("sim", "node_id", "cfg", "inject", "stats", "_arrivals",
                 "_waiting", "_preposted", "_sync_events", "_injector")

    def __init__(self, sim: Simulator, node_id: int, cfg: NetworkConfig,
                 inject: Callable[[Message], None],
                 injector=None) -> None:
        self.sim = sim
        self.node_id = node_id
        self.cfg = cfg
        self.inject = inject
        # Optional repro.faults.FaultInjector: the send path waits out
        # this node's NIC-stall windows before injecting.
        self._injector = injector
        self.stats = NICStats()
        self._arrivals: dict[int, deque[Message]] = {}
        # FIFO of (event, source-filter) — a filter is a frozenset of
        # acceptable sources, so recv(s) and recv_any({...}) share one
        # ordered queue (first matching waiter wins).
        self._waiting: deque[tuple[Event, frozenset]] = deque()
        self._preposted: dict[int, int] = {}
        self._sync_events: dict[int, Event] = {}

    # -- network-side interface -------------------------------------------

    def arrival(self, msg: Message) -> None:
        """Called by the network model when ``msg`` is fully delivered."""
        self.stats.messages_received += 1
        self.stats.bytes_received += msg.size
        observer = self.sim.observer
        if observer is not None:
            observer.instant("nic", "arrival", self.sim.now,
                             f"nic{self.node_id}",
                             {"src": msg.src, "bytes": msg.size})
        src = msg.src
        for i, (ev, sources) in enumerate(self._waiting):
            if src in sources:
                del self._waiting[i]
                ev.trigger(msg)
                return
        if self._preposted.get(src, 0) > 0:
            # An arecv already posted for this source absorbs the message.
            self._preposted[src] -= 1
            return
        self._arrivals.setdefault(src, deque()).append(msg)
        self._report_buffered()

    def sender_completion(self, msg: Message) -> None:
        """Called at delivery time to unblock a synchronous sender."""
        ev = self._sync_events.pop(msg.id, None)
        if ev is not None:
            ev.trigger(msg)

    def sender_failure(self, msg: Message, err: Exception) -> None:
        """Unblock a synchronous sender with a delivery failure.

        The reliable transport calls this when ``msg`` exhausted its
        retry budget; the blocked :meth:`send` re-raises ``err`` in the
        sending process.
        """
        ev = self._sync_events.pop(msg.id, None)
        if ev is not None:
            ev.trigger(err)

    # -- Table-1 operations (generators; ``yield from`` in a process) ------

    def send(self, dest: int, size: int, payload: object = None):
        """Synchronous send: returns (via StopIteration) the Message."""
        msg = Message(self.node_id, dest, size, synchronous=True,
                      payload=payload)
        self.stats.messages_sent += 1
        self.stats.bytes_sent += size
        if self.cfg.send_overhead:
            yield self.cfg.send_overhead
        if self._injector is not None:
            yield from self._injector.stall(self.node_id)
        done = Event(self.sim, f"send{msg.id}.done")
        self._sync_events[msg.id] = done
        t0 = self.sim.now
        self.inject(msg)
        completed = yield done
        if isinstance(completed, Exception):
            raise completed
        self.stats.send_wait.record(self.sim.now - t0)
        return msg

    def asend(self, dest: int, size: int, payload: object = None):
        """Asynchronous send: overhead only, message travels on its own."""
        msg = Message(self.node_id, dest, size, synchronous=False,
                      payload=payload)
        self.stats.messages_sent += 1
        self.stats.bytes_sent += size
        if self.cfg.send_overhead:
            yield self.cfg.send_overhead
        if self._injector is not None:
            yield from self._injector.stall(self.node_id)
        self.inject(msg)
        return msg

    def recv(self, source: int):
        """Synchronous receive from ``source``; returns the Message."""
        return (yield from self.recv_any((source,)))

    def recv_any(self, sources):
        """Synchronous receive from any of ``sources`` (occam-ALT style).

        Buffered messages win in arrival order across the sources;
        otherwise blocks until the first matching arrival.
        """
        t0 = self.sim.now
        sources = frozenset(sources)
        best: Optional[deque] = None
        best_key = None
        for src in sources:
            queue = self._arrivals.get(src)
            if queue:
                key = (queue[0].t_deliver, queue[0].id)
                if best_key is None or key < best_key:
                    best, best_key = queue, key
        if best is not None:
            msg = best.popleft()
            self._report_buffered()
        else:
            ev = Event(self.sim,
                       f"nic{self.node_id}.recv_any({sorted(sources)})")
            self._waiting.append((ev, sources))
            msg = yield ev
        self.stats.recv_wait.record(self.sim.now - t0)
        if self.cfg.recv_overhead:
            yield self.cfg.recv_overhead
        return msg

    def arecv(self, source: int):
        """Asynchronous receive: never blocks on the network.

        Consumes an already-buffered message if present, otherwise
        pre-posts so the next arrival from ``source`` is absorbed on
        delivery.  Returns the Message or None.
        """
        buffered = self._arrivals.get(source)
        msg: Optional[Message] = None
        if buffered:
            msg = buffered.popleft()
            self._report_buffered()
        else:
            self._preposted[source] = self._preposted.get(source, 0) + 1
            self.stats.pre_posted += 1
        if self.cfg.recv_overhead:
            yield self.cfg.recv_overhead
        return msg

    # -- introspection ------------------------------------------------------

    @property
    def buffered_messages(self) -> int:
        return sum(len(q) for q in self._arrivals.values())

    def _report_buffered(self) -> None:
        observer = self.sim.observer
        if observer is not None:
            observer.counter(self.sim.now, f"nic{self.node_id}.buffered",
                             self.buffered_messages, cat="nic")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<NIC node={self.node_id} sent={self.stats.messages_sent} "
                f"recv={self.stats.messages_received}>")
