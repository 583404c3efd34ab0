"""Reliable transport — ack/timeout/retransmit over a lossy network.

With faults injected, the raw switching engines may drop or corrupt
packets; :class:`ReliableTransport` is the protocol layer that makes
message delivery survive it.  Each *logical* message is carried by one
or more *physical* attempt copies:

* an attempt copy is injected into the switching engine and its
  delivery acknowledged through the copy's ``on_deliver`` hook (the
  ack path is instantaneous, matching the NIC's Table-1 simplification);
* an unacknowledged attempt is retransmitted after a timeout that grows
  by ``backoff_factor`` per retry;
* a copy that arrives corrupted is discarded (checksum model) and the
  sender retransmits immediately;
* when the retry budget (``1 + max_retries`` attempts) is exhausted the
  sender falls back **once** to degraded routing — a shortest path
  avoiding currently-suspect links — with a fresh budget;
* only when that fails too does the sender raise
  :class:`DeliveryFailed`, which the model surfaces with the partial
  :class:`~repro.commmodel.network.CommResult` attached.

The logical message is delivered to the application exactly once, on
the first acknowledged attempt; late duplicate copies are absorbed
silently (their acks find the sender process already gone).
"""

from __future__ import annotations

from ..commmodel.message import Message
from ..pearl import Event, TallyMonitor
from .plan import FaultPlan

__all__ = ["DeliveryFailed", "ReliableTransport"]


class DeliveryFailed(RuntimeError):
    """A message exhausted its retry budget (including the degraded-
    routing fallback) and could not be delivered.

    For synchronous sends this propagates out of the blocked
    ``NIC.send``; :meth:`MultiNodeModel.run_bodies`, the run loop of
    every network mode, attaches the partial simulation result as
    ``err.result`` before re-raising.  Failed asynchronous sends are
    only counted (nobody is blocked on them).
    """

    def __init__(self, src: int, dst: int, message_id: int,
                 attempts: int) -> None:
        super().__init__(
            f"message {message_id} ({src}->{dst}) undeliverable after "
            f"{attempts} attempt(s)")
        self.src = src
        self.dst = dst
        self.message_id = message_id
        self.attempts = attempts
        self.result = None

    def partial_row(self) -> dict:
        """Fault-metric columns salvaged from the partial result.

        Sweep/campaign error rows carry the same ``dropped`` /
        ``retransmissions`` / ``delivery_failed`` columns as successful
        faulted rows (``repro.parallel.execute_variant`` merges this
        dict into the ``on_error="capture"`` row), so row reductions
        never have to special-case failed variants.  Without a partial
        result the failure itself is still counted.
        """
        res = self.result
        if res is None or res.fault_summary is None:
            return {"dropped": 0, "retransmissions": 0,
                    "delivery_failed": 1}
        return {
            "dropped": res.fault_summary.get("dropped", 0),
            "retransmissions": res.retransmissions,
            "delivery_failed": res.delivery_failures,
        }


class ReliableTransport:
    """Per-message retransmit state machine between the NICs and the
    switching engine.

    ``deliver_app(msg)`` hands an acknowledged logical message to the
    application side (NIC arrival + sync-sender completion);
    ``fail_app(msg, err)`` unblocks a synchronous sender with the
    failure instead.
    """

    def __init__(self, sim, engine, injector, plan: FaultPlan, topo,
                 deliver_app, fail_app) -> None:
        self.sim = sim
        self.engine = engine
        self.injector = injector
        self.cfg = plan.transport
        self.topo = topo
        self.deliver_app = deliver_app
        self.fail_app = fail_app
        self.attempts = 0
        self.retransmissions = 0
        self.delivered = 0
        self.delivered_with_retry = 0
        self.delivery_failed = 0
        self.fallbacks = 0
        self.corrupt_discards = 0
        self.retries = TallyMonitor("retries")
        self.e2e_latency = TallyMonitor("transport_latency")
        #: (message id, src, dst, delivery time, attempts) in delivery
        #: order — the metamorphic identity tests compare this log.
        self.delivery_log: list[tuple[int, int, int, float, int]] = []
        self.failures: list[dict] = []

    # -- NIC-facing API -----------------------------------------------------

    def inject(self, msg: Message) -> None:
        """Accept one logical message; a sender process carries it."""
        msg.t_inject = self.sim.now
        self.sim.process(self._sender(msg), name=f"xport{msg.id}")

    # -- the per-message sender process -------------------------------------

    def _sender(self, msg: Message):
        sim = self.sim
        cfg = self.cfg
        outstanding: list[Event] = []
        timeout = cfg.timeout_cycles
        budget = 1 + cfg.max_retries
        attempts = 0
        path = None
        fallback_used = False
        while True:
            if attempts == budget:
                alt = None
                if cfg.degraded_routing and not fallback_used:
                    alt = self._degraded_path(msg)
                if alt is None:
                    self._fail(msg, attempts)
                    return
                fallback_used = True
                path = alt
                budget += 1 + cfg.max_retries
                timeout = cfg.timeout_cycles
                self.fallbacks += 1
                self.injector.report("fallback_route", f"node{msg.src}",
                                     {"message": msg.id, "path": list(alt)})
            attempts += 1
            if attempts > 1:
                self.retransmissions += 1
                self.injector.report("retransmit", f"node{msg.src}",
                                     {"message": msg.id, "attempt": attempts})
            phys = Message(msg.src, msg.dst, msg.size, synchronous=False)
            phys.internal = True
            done = Event(sim, f"xport{msg.id}.attempt{attempts}")
            phys.on_deliver = done.trigger
            outstanding.append(done)
            self.attempts += 1
            self.engine.inject(phys, path=path)
            timer = sim.timer(timeout, name=f"xport{msg.id}.timer{attempts}")
            while True:
                choice = sim.any_of([*outstanding, timer.event],
                                    name=f"xport{msg.id}.wait")
                idx, value = yield choice
                if idx == len(outstanding):
                    break                  # timeout: retransmit
                outstanding.pop(idx)
                if value.corrupted:
                    # Checksum failure: discard the copy and resend now.
                    self.corrupt_discards += 1
                    timer.cancel()
                    break
                timer.cancel()
                self._complete(msg, attempts)
                return
            timeout *= cfg.backoff_factor

    def _degraded_path(self, msg: Message):
        avoid = self.injector.suspect_links(self.sim.now)
        if not avoid:
            return None
        return self.topo.shortest_path_avoiding(msg.src, msg.dst, avoid)

    def _complete(self, msg: Message, attempts: int) -> None:
        msg.t_deliver = self.sim.now
        self.delivered += 1
        if attempts > 1:
            self.delivered_with_retry += 1
        self.retries.record(attempts - 1)
        self.e2e_latency.record(msg.latency)
        self.delivery_log.append(
            (msg.id, msg.src, msg.dst, self.sim.now, attempts))
        self.deliver_app(msg)

    def _fail(self, msg: Message, attempts: int) -> None:
        self.delivery_failed += 1
        self.retries.record(attempts - 1)
        self.failures.append({
            "message": msg.id, "src": msg.src, "dst": msg.dst,
            "attempts": attempts, "time": self.sim.now,
        })
        self.injector.report("delivery_failed", f"node{msg.src}",
                             {"message": msg.id, "dst": msg.dst,
                              "attempts": attempts})
        err = DeliveryFailed(msg.src, msg.dst, msg.id, attempts)
        self.fail_app(msg, err)

    # -- reporting ----------------------------------------------------------

    def summary(self) -> dict:
        return {
            "attempts": self.attempts,
            "retransmissions": self.retransmissions,
            "delivered": self.delivered,
            "delivered_with_retry": self.delivered_with_retry,
            "delivery_failed": self.delivery_failed,
            "fallbacks": self.fallbacks,
            "corrupt_discards": self.corrupt_discards,
            "retries": self.retries.summary(),
            "latency": self.e2e_latency.summary(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<ReliableTransport delivered={self.delivered} "
                f"retransmissions={self.retransmissions} "
                f"failed={self.delivery_failed}>")
