"""Message channels — Pearl's synchronous and asynchronous object messages.

Pearl models communicate by sending messages between simulation objects.
:class:`Channel` provides both flavours used by the Mermaid templates:

* **asynchronous** (``capacity=None`` or a positive bound): the sender
  deposits the message and continues (blocking only when a bounded buffer
  is full);
* **synchronous / rendezvous** (``capacity=0``): sender and receiver must
  meet — whichever arrives first blocks for the other, exactly the
  semantics of Mermaid's blocking ``send``/``recv`` operations.

Both :meth:`Channel.send` and :meth:`Channel.receive` return kernel
:class:`~repro.pearl.kernel.Event` objects that the calling process must
``yield``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from .errors import ChannelClosedError, SimulationError
from .kernel import Event, Simulator

__all__ = ["Channel"]


class Channel:
    """A FIFO message channel between simulation processes.

    Parameters
    ----------
    sim:
        Owning simulator.
    capacity:
        ``None`` — unbounded asynchronous buffer;
        ``0`` — rendezvous (synchronous);
        ``k > 0`` — bounded asynchronous buffer of ``k`` messages.
    name:
        Diagnostic label.
    """

    __slots__ = ("sim", "name", "capacity", "_buffer", "_senders",
                 "_receivers", "closed", "sent_count", "received_count",
                 "max_buffered")

    def __init__(self, sim: Simulator, capacity: Optional[int] = None,
                 name: str = "") -> None:
        if capacity is not None and capacity < 0:
            raise SimulationError(f"channel capacity must be >= 0, got {capacity}")
        self.sim = sim
        self.name = name or "channel"
        self.capacity = capacity
        self._buffer: deque = deque()
        # Pending senders: (event_to_wake_sender, message)
        self._senders: deque = deque()
        # Pending receivers: event to trigger with the message
        self._receivers: deque = deque()
        self.closed = False
        self.sent_count = 0
        self.received_count = 0
        self.max_buffered = 0

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        """Number of buffered (deposited but not yet received) messages."""
        return len(self._buffer)

    @property
    def waiting_receivers(self) -> int:
        return len(self._receivers)

    @property
    def waiting_senders(self) -> int:
        return len(self._senders)

    # -- operations ----------------------------------------------------------

    def send(self, message: Any) -> Event:
        """Deposit ``message``; yield the returned event to complete the send.

        For a rendezvous channel the event triggers when a receiver takes
        the message.  For a buffered channel it triggers immediately
        unless the buffer is full.
        """
        if self.closed:
            raise ChannelClosedError(f"send on closed channel {self.name!r}")
        sim = self.sim
        done = Event(sim, f"{self.name}.send")
        self.sent_count += 1
        observer = sim.observer
        if observer is not None:
            observer.channel(sim.now, self.name, "send", sim.current_process)
        if self._receivers:
            # A receiver is already waiting: hand over directly.
            recv_ev = self._receivers.popleft()
            recv_ev.trigger(message)
            done.trigger(None)
            return done
        if self.capacity == 0:
            # Rendezvous: block until a receiver arrives.
            self._senders.append((done, message))
            return done
        if self.capacity is not None and len(self._buffer) >= self.capacity:
            # Bounded buffer full: block until space frees.
            self._senders.append((done, message))
            return done
        self._buffer.append(message)
        if len(self._buffer) > self.max_buffered:
            self.max_buffered = len(self._buffer)
        done.trigger(None)
        return done

    def receive(self) -> Event:
        """Take the next message; yield the returned event to obtain it."""
        sim = self.sim
        got = Event(sim, f"{self.name}.recv")
        observer = sim.observer
        if observer is not None:
            observer.channel(sim.now, self.name, "recv", sim.current_process)
        if self._buffer:
            message = self._buffer.popleft()
            self.received_count += 1
            got.trigger(message)
            # Buffer space freed: admit a blocked sender, if any.
            if self._senders:
                send_ev, pending = self._senders.popleft()
                self._buffer.append(pending)
                send_ev.trigger(None)
            return got
        if self._senders:
            # Rendezvous (or full-buffer) sender waiting: meet it now.
            send_ev, message = self._senders.popleft()
            self.received_count += 1
            send_ev.trigger(None)
            got.trigger(message)
            return got
        if self.closed:
            raise ChannelClosedError(f"receive on drained closed channel {self.name!r}")
        self._receivers.append(got)
        return got

    def try_receive(self) -> tuple[bool, Any]:
        """Non-blocking receive: ``(True, message)`` or ``(False, None)``."""
        if self._buffer:
            message = self._buffer.popleft()
            self.received_count += 1
            if self._senders:
                send_ev, pending = self._senders.popleft()
                self._buffer.append(pending)
                send_ev.trigger(None)
            return True, message
        if self._senders:
            send_ev, message = self._senders.popleft()
            self.received_count += 1
            send_ev.trigger(None)
            return True, message
        return False, None

    def close(self) -> None:
        """Mark the channel closed; further sends raise, drains still work."""
        self.closed = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        cap = "inf" if self.capacity is None else self.capacity
        return (f"<Channel {self.name!r} cap={cap} buf={len(self._buffer)} "
                f"rx-wait={len(self._receivers)} tx-wait={len(self._senders)}>")
