"""The multi-node communication model template (Fig 3b).

Builds the whole interconnect — abstract processors (NICs), routers
(the switching engine's per-packet transfer processes), links, and the
physical topology — and drives one task-level operation stream per
node.  This *is* Mermaid's fast-prototyping mode: "if fast prototyping
of a multicomputer is the primary goal, then the communication model
can be used directly".
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from ..config import MachineConfig
from ..observe import MetricRegistry
from ..operations.ops import OpCode, Operation
from ..pearl import DeadlockError, Simulator, TallyMonitor
from ..topology import build_topology
from .message import Message
from .nic import NIC, RecvAnyEvent
from .routing import make_routing
from .switching import make_switching

__all__ = ["MultiNodeModel", "CommResult", "NodeActivity"]


class NodeActivity:
    """Time breakdown for one node's abstract processor."""

    __slots__ = ("node", "compute_cycles", "send_wait_cycles",
                 "recv_wait_cycles", "overhead_cycles", "ops_processed",
                 "finish_time")

    def __init__(self, node: int) -> None:
        self.node = node
        self.compute_cycles = 0.0
        self.send_wait_cycles = 0.0
        self.recv_wait_cycles = 0.0
        self.overhead_cycles = 0.0
        self.ops_processed = 0
        self.finish_time = 0.0

    @property
    def comm_cycles(self) -> float:
        return (self.send_wait_cycles + self.recv_wait_cycles
                + self.overhead_cycles)

    def busy_fraction(self, horizon: float) -> float:
        return self.compute_cycles / horizon if horizon > 0 else 0.0

    def summary(self) -> dict:
        return {
            "node": self.node,
            "compute_cycles": self.compute_cycles,
            "send_wait_cycles": self.send_wait_cycles,
            "recv_wait_cycles": self.recv_wait_cycles,
            "overhead_cycles": self.overhead_cycles,
            "ops_processed": self.ops_processed,
            "finish_time": self.finish_time,
        }


class CommResult:
    """Outcome of one communication-model simulation."""

    def __init__(self, machine: MachineConfig, total_cycles: float,
                 activity: list[NodeActivity], message_latency: TallyMonitor,
                 engine_summary: dict, link_utilization: dict,
                 events_executed: int = 0,
                 fault_summary: Optional[dict] = None) -> None:
        self.machine = machine
        self.total_cycles = total_cycles
        self.activity = activity
        self.message_latency = message_latency
        self.engine_summary = engine_summary
        self.link_utilization = link_utilization
        self.events_executed = events_executed
        #: fault-injection counters (``None`` for fault-free runs): the
        #: injector's summary plus, under ``"transport"``, the reliable
        #: transport's retry/delivery counters.
        self.fault_summary = fault_summary

    @property
    def seconds(self) -> float:
        return self.total_cycles / self.machine.node.cpu.clock_hz

    @property
    def messages_delivered(self) -> int:
        return self.engine_summary["messages_delivered"]

    @property
    def retransmissions(self) -> int:
        """Reliable-transport retransmissions (0 for fault-free runs)."""
        if self.fault_summary is None:
            return 0
        return self.fault_summary.get("transport", {}).get(
            "retransmissions", 0)

    @property
    def delivery_failures(self) -> int:
        """Messages abandoned by the transport (0 for fault-free runs)."""
        if self.fault_summary is None:
            return 0
        return self.fault_summary.get("transport", {}).get(
            "delivery_failed", 0)

    def parallel_efficiency(self) -> float:
        """Mean node busy (compute) fraction — the load-balance view."""
        if self.total_cycles <= 0 or not self.activity:
            return 0.0
        return (sum(a.compute_cycles for a in self.activity)
                / (self.total_cycles * len(self.activity)))

    def summary(self) -> dict:
        out = {
            "machine": self.machine.name,
            "total_cycles": self.total_cycles,
            "seconds": self.seconds,
            "parallel_efficiency": self.parallel_efficiency(),
            "message_latency": self.message_latency.summary(),
            "engine": self.engine_summary,
            "nodes": [a.summary() for a in self.activity],
        }
        # Only faulted runs carry the key, keeping fault-free summaries
        # (and their golden snapshots) byte-identical to seed.
        if self.fault_summary is not None:
            out["faults"] = self.fault_summary
        return out

    def __repr__(self) -> str:
        return (f"<CommResult cycles={self.total_cycles:.0f} "
                f"msgs={self.messages_delivered} "
                f"eff={self.parallel_efficiency():.2f}>")


class MultiNodeModel:
    """The communication model: topology + routers + links + NICs.

    Feed it one task-level operation stream per node via :meth:`run`.
    In hybrid mode (:mod:`repro.hybrid`) the streams come from the
    single-node computational models; in fast-prototyping mode they come
    straight from a trace generator.
    """

    def __init__(self, machine: MachineConfig,
                 sim: Optional[Simulator] = None,
                 registry: Optional[MetricRegistry] = None,
                 faults=None) -> None:
        machine.validate()
        self.machine = machine
        self.sim = sim if sim is not None else Simulator()
        self.topology = build_topology(machine.network.topology)
        self.routing = make_routing(machine.network.routing, self.topology)
        # Fault injection (repro.faults): an empty/absent plan builds
        # nothing at all, so the fault-free path is the seed path.
        # Imported lazily, so the fault-free import graph has no faults
        # module: commmodel -> faults points up the layer order, one of
        # the two edges tests/test_layers.py allows (see ALLOWED there).
        self.fault_plan = None
        self.injector = None
        self.transport = None
        if faults is not None:
            from ..faults import FaultInjector, as_fault_plan
            self.fault_plan = as_fault_plan(faults)
            if self.fault_plan is not None:
                self.injector = FaultInjector(self.fault_plan,
                                              self.topology, self.sim)
        self.engine = make_switching(self.sim, machine.network,
                                     self.topology, self.routing,
                                     self._on_delivery,
                                     injector=self.injector)
        if self.injector is not None and self.fault_plan.transport.enabled:
            from ..faults import ReliableTransport
            self.transport = ReliableTransport(
                self.sim, self.engine, self.injector, self.fault_plan,
                self.topology, self._deliver_app, self._fail_delivery)
        #: where a layer that builds its own messages (NICs, the VSM
        #: protocol) hands them over: reliable transport when a plan
        #: enables one, else the switching engine
        self.inject = (self.transport.inject if self.transport is not None
                       else self.engine.inject)
        # Only endpoints (compute nodes) get NICs and drivers; switch
        # nodes of multistage interconnects are routing-only.
        self.nics = [NIC(self.sim, i, machine.network, self.inject,
                         injector=self.injector)
                     for i in range(self.topology.n_endpoints)]
        self.message_latency = TallyMonitor("message_latency")
        self.activity = [NodeActivity(i)
                         for i in range(self.topology.n_endpoints)]
        self.registry = registry if registry is not None else MetricRegistry()
        self.registry.register("network.message_latency",
                               self.message_latency)
        self.engine.register_metrics(self.registry)
        if self.injector is not None:
            self.registry.register("faults", self.injector.summary)
            if self.transport is not None:
                self.registry.register("faults.transport",
                                       self.transport.summary)
        for nic in self.nics:
            self.registry.register(f"node{nic.node_id}.nic",
                                   nic.stats.summary)
        for act in self.activity:
            self.registry.register(f"node{act.node}.activity", act.summary)
        #: handlers of the global events that have no Table-1 opcode,
        #: by event type; a layer above adds its own (the VSM protocol
        #: registers its page faults) through :meth:`register_event`
        self._event_handlers = {RecvAnyEvent: self._recv_any}

    @property
    def n_nodes(self) -> int:
        return self.topology.n_endpoints

    # -- delivery plumbing ---------------------------------------------------

    def _on_delivery(self, msg: Message) -> None:
        """Switching-engine callback: one *physical* message arrived."""
        if msg.internal:
            # A reliable-transport attempt copy: the transport's sender
            # process owns completion (ack) via the on_deliver hook;
            # attempt copies stay out of application-level metrics.
            msg.on_deliver(msg)
            return
        self._deliver_app(msg)

    def _deliver_app(self, msg: Message) -> None:
        """Deliver one application-level message: every non-internal
        physical arrival (:meth:`_on_delivery`) and every acknowledged
        *logical* message of the reliable transport, so both paths
        record the same metrics."""
        self.message_latency.record(msg.latency)
        observer = self.sim.observer
        if observer is not None:
            observer.instant("message", "deliver", self.sim.now,
                             f"node{msg.dst}",
                             {"src": msg.src, "dst": msg.dst,
                              "bytes": msg.size, "latency": msg.latency})
        if msg.on_deliver is not None:
            # Protocol-internal traffic (VSM pages, invalidations, ...):
            # handled by its own layer, never enters the application NIC.
            msg.on_deliver(msg)
            return
        self.nics[msg.dst].arrival(msg)
        if msg.synchronous:
            self.nics[msg.src].sender_completion(msg)

    def _fail_delivery(self, msg: Message, err: Exception) -> None:
        """Reliable-transport failure path: surface ``err`` to whoever is
        blocked on ``msg`` — the protocol layer that owns it (through
        its ``on_deliver`` hook) or a synchronous sender; other
        asynchronous failures are counter-only."""
        if msg.on_deliver is not None:
            msg.on_deliver(err)
        elif msg.synchronous:
            self.nics[msg.src].sender_failure(msg, err)

    # -- node driver -------------------------------------------------------------

    def register_event(self, kind: type, handler) -> None:
        """Route global events of type ``kind`` (``code is None``) to
        ``handler(node_id, event)``, a generator whose return value is
        what the node thread resumes with."""
        self._event_handlers[kind] = handler

    def _recv_any(self, node_id: int, event: RecvAnyEvent):
        """Handler of :class:`RecvAnyEvent`: the first message from any
        of its sources, as ``(source, payload)``."""
        cfg = self.machine.network
        act = self.activity[node_id]
        t0 = self.sim.now
        msg = yield from self.nics[node_id].recv_any(event.sources)
        waited = self.sim.now - t0
        act.overhead_cycles += min(cfg.recv_overhead, waited)
        act.recv_wait_cycles += max(waited - cfg.recv_overhead, 0.0)
        return (msg.src, msg.payload)

    def node_driver(self, node_id: int, ops: Iterator[Operation],
                    payload_source=None, result_sink=None):
        """Process body: execute one node's task-level operation stream.

        ``payload_source()`` supplies the host payload of the send being
        processed (execution-driven mode); ``result_sink(value)`` is
        called after each communication operation with the received
        payload (or None), so an interleaved node thread can be resumed
        with it.
        """
        for op in ops:
            yield from self.handle_op(node_id, op, payload_source,
                                      result_sink)
        self.activity[node_id].finish_time = self.sim.now

    def handle_op(self, node_id: int, op: Operation,
                  payload_source=None, result_sink=None):
        """Process one task-level operation or global event (generator;
        the step of every node driver, and of every SMP CPU's
        communication)."""
        nic = self.nics[node_id]
        act = self.activity[node_id]
        cfg = self.machine.network
        sim = self.sim
        if self.injector is not None:
            # Node pauses gate the whole operation stream, the global
            # events without an opcode (VSM page faults) included.
            yield from self.injector.pause(node_id)
        act.ops_processed += 1
        code = op.code
        if code is None:
            handler = self._event_handlers.get(type(op))
            if handler is None:
                raise ValueError(f"node {node_id}: no model here handles "
                                 f"the global event {op!r}")
            result = yield from handler(node_id, op)
            if result_sink:
                result_sink(result)
            return
        if code == OpCode.COMPUTE:
            act.compute_cycles += op.arg2
            yield op.arg2
        elif code == OpCode.SEND:
            t0 = sim.now
            payload = payload_source() if payload_source else None
            yield from nic.send(op.peer, op.size, payload)
            waited = sim.now - t0
            act.overhead_cycles += min(cfg.send_overhead, waited)
            act.send_wait_cycles += max(waited - cfg.send_overhead, 0.0)
            if result_sink:
                result_sink(None)
        elif code == OpCode.ASEND:
            t0 = sim.now
            payload = payload_source() if payload_source else None
            yield from nic.asend(op.peer, op.size, payload)
            act.overhead_cycles += sim.now - t0
            if result_sink:
                result_sink(None)
        elif code == OpCode.RECV:
            t0 = sim.now
            msg = yield from nic.recv(op.peer)
            waited = sim.now - t0
            act.overhead_cycles += min(cfg.recv_overhead, waited)
            act.recv_wait_cycles += max(waited - cfg.recv_overhead, 0.0)
            if result_sink:
                result_sink(msg.payload)
        elif code == OpCode.ARECV:
            t0 = sim.now
            msg = yield from nic.arecv(op.peer)
            act.overhead_cycles += sim.now - t0
            if result_sink:
                result_sink(msg.payload if msg is not None else None)
        else:
            raise ValueError(
                f"node {node_id}: computational operation {op!r} in a "
                "task-level trace; run it through the hybrid model "
                "(repro.hybrid) or extract tasks first")

    # -- top-level run --------------------------------------------------------------

    def run(self, per_node_ops: Sequence[Iterable[Operation]],
            until: Optional[float] = None) -> CommResult:
        """Simulate the machine driven by one op stream per node."""
        if len(per_node_ops) != self.n_nodes:
            raise ValueError(
                f"expected {self.n_nodes} op streams (one per node), got "
                f"{len(per_node_ops)}")
        for node_id, ops in enumerate(per_node_ops):
            self.sim.process(self.node_driver(node_id, iter(ops)),
                             name=f"node{node_id}")
        if self.transport is not None:
            from ..faults.transport import DeliveryFailed
        else:
            DeliveryFailed = ()      # matches nothing in the except below
        try:
            self.sim.run(until=until, check_deadlock=True)
        except DeadlockError as err:
            raise DeadlockError(
                err.blocked,
                diagnostics=self._deadlock_diagnostics(err.blocked),
            ) from None
        except DeliveryFailed as err:
            # Surface the partial result so callers can inspect how far
            # the machine got before the message was abandoned.
            err.result = self.result()
            raise
        return self.result()

    def _deadlock_diagnostics(self, blocked: Sequence[str]) -> list:
        """RT001 diagnostics naming what each blocked process waits on.

        Inspects NIC state: posted-but-unmatched receives (with their
        source filters), synchronous sends still awaiting delivery, and
        messages that arrived but were never consumed — the difference
        between "recv with no send" and "send stuck in the network".
        """
        from ..diagnostics import Diagnostic, Severity
        nic_by_name = {f"node{nic.node_id}": nic for nic in self.nics}
        out = []
        for name in blocked:
            nic = nic_by_name.get(name)
            if nic is None:
                detail = "internal process (router/link) blocked"
            else:
                waits = [sorted(sources) for _, sources in nic._waiting]
                pending_sends = len(nic._sync_events)
                if waits:
                    detail = "; ".join(
                        f"receive posted for source(s) {w}, no message"
                        for w in waits)
                elif pending_sends:
                    detail = (f"{pending_sends} synchronous send(s) still "
                              f"awaiting delivery")
                else:
                    detail = "blocked outside the NIC"
                buffered = nic.buffered_messages
                if buffered:
                    detail += (f" ({buffered} buffered message(s) never "
                               f"consumed)")
            out.append(Diagnostic(
                rule="RT001", severity=Severity.ERROR,
                message=f"process {name!r}: {detail}",
                subject=f"run:{self.machine.name}", location=name,
                hint="run `repro check` on the trace set for a static "
                     "wait-for-graph analysis"))
        return out

    def result(self) -> CommResult:
        fault_summary = None
        if self.injector is not None:
            fault_summary = self.injector.summary()
            if self.transport is not None:
                fault_summary["transport"] = self.transport.summary()
        return CommResult(
            self.machine, self.sim.now, self.activity, self.message_latency,
            self.engine.summary(), self.engine.link_utilizations(),
            events_executed=self.sim.events_executed,
            fault_summary=fault_summary)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<MultiNodeModel {self.machine.name!r} "
                f"n={self.n_nodes} {self.machine.network.switching}>")
