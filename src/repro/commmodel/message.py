"""Messages and packets.

The router "is responsible for further handling the transmission.  This
may include splitting up messages into multiple packets" (Section 4.2).
A :class:`Message` is what the abstract processor injects; the switching
engine splits it into :class:`Packet` objects according to the
configured maximum packet payload, and delivery completes when every
packet has arrived.
"""

from __future__ import annotations

import itertools
from typing import Optional

__all__ = ["Message", "Packet", "packet_payloads", "reset_message_ids"]

_message_ids = itertools.count()


def reset_message_ids() -> None:
    """Restart the global message-id counter from zero.

    Message ids only need to be unique within one simulation, but they
    leak into trace record names (``pkt<id>.<index>``), so anything
    comparing traces against a golden snapshot must pin the counter
    first — otherwise the ids depend on how many messages earlier
    tests created.
    """
    global _message_ids
    _message_ids = itertools.count()


def packet_payloads(size: int, max_payload: int) -> list[int]:
    """Payload bytes of each packet of a ``size``-byte message: as many
    ``max_payload`` packets as fit, then the remainder.  A zero-byte
    message still sends one (header-only) packet.  The one packetization
    rule: the switching engines (:meth:`Message.split`) and the static
    bounds analyzer both read it."""
    if size <= 0:
        return [0]
    full, rest = divmod(size, max_payload)
    return [max_payload] * full + ([rest] if rest else [])


class Message:
    """One application-level message travelling source → destination."""

    __slots__ = ("id", "src", "dst", "size", "synchronous", "payload",
                 "on_deliver", "t_inject", "t_deliver", "n_packets",
                 "_packets_remaining", "corrupted", "internal")

    def __init__(self, src: int, dst: int, size: int, synchronous: bool,
                 payload: object = None) -> None:
        self.id = next(_message_ids)
        self.src = src
        self.dst = dst
        self.size = size
        self.synchronous = synchronous
        # Host-side payload: carried for the instrumented program's own
        # logic (master/worker patterns etc.); the simulator never
        # inspects it and it contributes nothing to timing beyond `size`.
        self.payload = payload
        # Optional delivery override: protocol-internal traffic (e.g.
        # the VSM layer's page/invalidation messages) sets a callback
        # here so delivery bypasses the destination's application NIC.
        self.on_deliver = None
        self.t_inject: float = 0.0
        self.t_deliver: Optional[float] = None
        self.n_packets = 0
        self._packets_remaining = 0
        # Fault-injection state: `corrupted` is set when any packet is
        # corrupted in flight (the reliable transport discards such a
        # copy); `internal` marks a transport-layer attempt copy so the
        # model keeps it out of application-level metrics.
        self.corrupted = False
        self.internal = False

    @property
    def delivered(self) -> bool:
        return self.t_deliver is not None

    @property
    def latency(self) -> float:
        """Injection-to-delivery latency in cycles (delivered messages)."""
        if self.t_deliver is None:
            raise ValueError(f"message {self.id} not yet delivered")
        return self.t_deliver - self.t_inject

    def split(self, max_payload: int, header_bytes: int) -> list["Packet"]:
        """Packetize: each packet carries up to ``max_payload`` bytes plus
        a ``header_bytes`` header (see :func:`packet_payloads`)."""
        packets = [Packet(self, i, p, header_bytes)
                   for i, p in enumerate(packet_payloads(self.size,
                                                         max_payload))]
        self.n_packets = len(packets)
        self._packets_remaining = len(packets)
        return packets

    def packet_arrived(self) -> bool:
        """Count one packet delivery; True when the message is complete."""
        self._packets_remaining -= 1
        if self._packets_remaining < 0:
            raise ValueError(f"message {self.id}: too many packet arrivals")
        return self._packets_remaining == 0

    def __repr__(self) -> str:
        return (f"<Message {self.id} {self.src}->{self.dst} {self.size}B "
                f"{'sync' if self.synchronous else 'async'}>")


class Packet:
    """One network packet of a message."""

    __slots__ = ("message", "index", "payload_bytes", "header_bytes")

    def __init__(self, message: Message, index: int, payload_bytes: int,
                 header_bytes: int) -> None:
        self.message = message
        self.index = index
        self.payload_bytes = payload_bytes
        self.header_bytes = header_bytes

    @property
    def total_bytes(self) -> int:
        return self.payload_bytes + self.header_bytes

    @property
    def src(self) -> int:
        return self.message.src

    @property
    def dst(self) -> int:
        return self.message.dst

    def __repr__(self) -> str:
        return (f"<Packet {self.message.id}.{self.index} "
                f"{self.total_bytes}B {self.src}->{self.dst}>")
