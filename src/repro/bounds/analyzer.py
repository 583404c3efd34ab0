"""Static performance-bound analysis — simulation's analytic floor.

``compute_bounds`` derives three families of *certified lower bounds*
from an operation trace set plus the machine description, without ever
constructing a simulator (this module imports neither
:mod:`repro.pearl` nor :mod:`repro.commmodel.network`):

**Critical path.**  A cross-node abstract execution propagates each
node's clock through its trace: compute advances it by the duration,
sends pay the NIC software overhead and (synchronously) the
contention-free network transit, blocking receives wait for a matching
send's earliest-possible delivery.  Each blocking receive of a
``(source, destination)`` pair claims the *earliest unclaimed*
delivery estimate of that pair; asynchronous receives and
``RecvAnyEvent`` never wait and claim nothing.  Op-order (FIFO)
matching would be wrong here: the NIC satisfies a currently-blocked
synchronous receive in preference to an outstanding ``arecv``
pre-post, so a message can reach a *later* receive op than op order
suggests, and charging the blocking receive the later send's delivery
would overestimate.  Earliest-unclaimed is sound: when the i-th
blocking receive of a pair completes in any real execution, at least
``i`` messages of the pair have been consumed (one per completed
blocking receive), all delivered by then — so the i-th smallest
delivery estimate, which is what the abstract receive waits for, can
never exceed the real completion time.  Every per-op cost is the
contention-free minimum, so each node's finish time — and their
maximum, the task-graph critical path — lower-bounds the simulated
``total_cycles`` of *any* correct kernel.

**Link loads.**  Every message is packetized exactly as
:meth:`repro.commmodel.message.Message.split` does and routed over the
configured routing function; per-link wire bytes therefore equal the
simulated ``Link.bytes_moved`` for deterministic routing (fault-free),
and ``bytes / effective_bandwidth`` lower-bounds the link's busy time.
For adaptive (``random_minimal``) routing the load is the expectation
over the routing RNG — an equal split across the minimal-path DAG —
and the report is marked ``routing_exact=False``.

**Message classes.**  LogP-style per-class bounds: ``o + L + o``
latency with ``L`` the pipelined transit of the switching discipline,
and a bandwidth gap ``g`` — the class's serialization time at the
slowest link of its route.

Contention-free transit formulas (``R`` routing cycles, ``lam`` wire
latency, ``bw_l`` effective link bandwidth, wire packet sizes
``b_1..b_K``), each matching the corresponding engine's
``_packet_process`` with zero resource waiting:

* store-and-forward: ``sum_l(R + b_1/bw_l + lam)``
* virtual cut-through: ``sum_l(R + h/bw_l + lam) + (b_1-h)/bw_last``
* wormhole: ``sum_l(R + f/bw_l + lam) + max_l((b_1-f)/bw_l)``

plus, for multi-packet messages, ``sum_{k>=2} max_l(b_k/bw_l)``: all
packets of one message serialize through the path's bottleneck link,
whose per-packet occupancy is ``b_k/bw_l`` under all three disciplines.
(The per-``k`` maximum is attained at the same minimum-bandwidth link
for every ``k``, so the sum equals the single-bottleneck-link bound.)
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from ..commmodel.message import packet_payloads
from ..commmodel.routing import RandomMinimalRouting, make_routing
from ..config import MachineConfig, NetworkConfig
from ..operations.ops import OpCode, Operation
from ..topology import Topology, build_topology
from .model import BoundReport, LinkLoad, MessageClassBound, NodeBound

__all__ = ["compute_bounds"]


def _packet_wire_sizes(size: int, cfg: NetworkConfig) -> List[int]:
    """Wire bytes (payload + header) per packet, as the engine splits."""
    return [p + cfg.header_bytes
            for p in packet_payloads(size, cfg.packet_bytes)]


def _transit_cycles(cfg: NetworkConfig, scales: Sequence[float],
                    wire_sizes: Sequence[int], spacing: bool) -> float:
    """Contention-free inject-to-delivery lower bound over one path.

    ``scales`` holds the bandwidth multiplier of each path link in
    order.  ``spacing=False`` drops the multi-packet serialization term
    (used for adaptive routing, where packets may take disjoint paths).
    """
    bws = [cfg.link_bandwidth * s for s in scales]
    if not bws:
        return 0.0
    b1 = wire_sizes[0]
    per_hop = cfg.routing_cycles + cfg.link_latency
    if cfg.switching == "store_and_forward":
        head = sum(per_hop + b1 / bw for bw in bws)
    elif cfg.switching == "virtual_cut_through":
        body = max(b1 - cfg.header_bytes, 0)
        head = sum(per_hop + cfg.header_bytes / bw for bw in bws) \
            + body / bws[-1]
    else:  # wormhole
        body = max(b1 - cfg.flit_bytes, 0)
        head = sum(per_hop + cfg.flit_bytes / bw for bw in bws) \
            + max(body / bw for bw in bws)
    if spacing:
        bottleneck = min(bws)
        head += sum(b / bottleneck for b in wire_sizes[1:])
    return head


def _gap_cycles(cfg: NetworkConfig, scales: Sequence[float],
                wire_sizes: Sequence[int]) -> float:
    """Serialization of the whole message at the slowest route link."""
    if not scales:
        return 0.0
    bottleneck = cfg.link_bandwidth * min(scales)
    return sum(b / bottleneck for b in wire_sizes)


def _expected_shares(topo: Topology, dist: Sequence[int], src: int,
                     ) -> Dict[Tuple[int, int], float]:
    """Expected per-edge crossing count of one random-minimal packet.

    ``dist[u]`` is the hop distance from ``u`` to the destination.  A
    unit of probability mass starts at ``src`` and, at every node,
    splits equally among the neighbours one hop closer — exactly
    :class:`RandomMinimalRouting`'s uniform next-hop sampling.
    """
    mass: Dict[int, float] = {src: 1.0}
    shares: Dict[Tuple[int, int], float] = {}
    for d in range(dist[src], 0, -1):
        for u in [u for u, m in mass.items() if dist[u] == d and m > 0]:
            options = [v for v in topo.neighbors(u) if dist[v] == d - 1]
            share = mass.pop(u) / len(options)
            for v in options:
                shares[(u, v)] = shares.get((u, v), 0.0) + share
                mass[v] = mass.get(v, 0.0) + share
    return shares


class _NodeState:
    """Abstract-execution state of one processor."""

    __slots__ = ("node", "ops", "idx", "t", "serial", "blocked")

    def __init__(self, node: int, ops: List[Any]) -> None:
        self.node = node
        self.ops = ops
        self.idx = 0
        self.t = 0.0
        self.serial = 0.0
        self.blocked = False

    @property
    def done(self) -> bool:
        return self.idx >= len(self.ops)


class _BoundAnalyzer:
    """One-shot analysis context; see module docstring for the math."""

    def __init__(self, machine: MachineConfig,
                 traces: Iterable[Iterable[Any]], subject: str) -> None:
        machine.validate()
        self.machine = machine
        self.cfg = machine.network
        self.subject = subject
        self.topo = build_topology(machine.network.topology)
        self.routing = make_routing(machine.network.routing, self.topo)
        self.adaptive = isinstance(self.routing, RandomMinimalRouting)
        self.n_nodes = self.topo.n_endpoints
        ops_per_node = [list(t) for t in traces][:self.n_nodes]
        while len(ops_per_node) < self.n_nodes:
            ops_per_node.append([])
        self.states = [_NodeState(i, ops)
                       for i, ops in enumerate(ops_per_node)]
        # Best bandwidth multiplier anywhere: adaptive transits assume
        # the luckiest possible path, keeping the bound sound.
        self.best_scale = max(
            (self.topo.link_capacity(u, v) for (u, v) in self.topo.links()),
            default=1.0)
        # Min-heaps of unclaimed delivery estimates per (src, dst) pair;
        # only blocking receives pop (see module docstring).
        self.queues: Dict[Tuple[int, int], List[float]] = {}
        self.link_bytes: Dict[Tuple[int, int], float] = {}
        self.link_packets: Dict[Tuple[int, int], float] = {}
        self.classes: Dict[Tuple[int, int, int], int] = {}
        self.all_deliveries: List[float] = []
        self.n_messages = 0
        self.total_bytes = 0.0
        self._path_cache: Dict[Tuple[int, int],
                               Tuple[int, Tuple[float, ...]]] = {}
        self._share_cache: Dict[Tuple[int, int],
                                Dict[Tuple[int, int], float]] = {}
        self._dist_cache: Dict[int, List[int]] = {}
        self._transit_cache: Dict[Tuple[int, int, int], float] = {}

    # -- routing geometry ---------------------------------------------------

    def _dist_to(self, dst: int) -> List[int]:
        dist = self._dist_cache.get(dst)
        if dist is None:
            dist = self.topo.shortest_path_lengths(dst)
            self._dist_cache[dst] = dist
        return dist

    def _path_info(self, src: int, dst: int) -> Tuple[int, Tuple[float, ...]]:
        """(hops, per-link bandwidth multipliers) for the class route."""
        key = (src, dst)
        info = self._path_cache.get(key)
        if info is None:
            if self.adaptive:
                hops = self._dist_to(dst)[src]
                info = (hops, (self.best_scale,) * hops)
            else:
                path = self.routing.path(src, dst)
                info = (len(path) - 1,
                        tuple(self.topo.link_capacity(path[i], path[i + 1])
                              for i in range(len(path) - 1)))
            self._path_cache[key] = info
        return info

    def _transit(self, src: int, dst: int, size: int) -> float:
        key = (src, dst, size)
        t = self._transit_cache.get(key)
        if t is None:
            _, scales = self._path_info(src, dst)
            t = _transit_cycles(self.cfg, scales,
                                _packet_wire_sizes(size, self.cfg),
                                spacing=not self.adaptive)
            self._transit_cache[key] = t
        return t

    def _account_message(self, src: int, dst: int, size: int) -> None:
        wire = _packet_wire_sizes(size, self.cfg)
        total = float(sum(wire))
        self.n_messages += 1
        self.total_bytes += total
        self.classes[(src, dst, size)] = \
            self.classes.get((src, dst, size), 0) + 1
        if self.adaptive:
            shares = self._share_cache.get((src, dst))
            if shares is None:
                shares = _expected_shares(self.topo, self._dist_to(dst), src)
                self._share_cache[(src, dst)] = shares
            for edge, frac in shares.items():
                self.link_bytes[edge] = \
                    self.link_bytes.get(edge, 0.0) + total * frac
                self.link_packets[edge] = \
                    self.link_packets.get(edge, 0.0) + len(wire) * frac
        else:
            path = self.routing.path(src, dst)
            for i in range(len(path) - 1):
                edge = (path[i], path[i + 1])
                self.link_bytes[edge] = \
                    self.link_bytes.get(edge, 0.0) + total
                self.link_packets[edge] = \
                    self.link_packets.get(edge, 0.0) + len(wire)

    # -- abstract execution ------------------------------------------------------

    def _valid_peer(self, node: int, peer: int) -> bool:
        return 0 <= peer < self.n_nodes and peer != node

    def _advance(self, st: _NodeState) -> bool:
        """Run one node until it blocks or finishes; True if it moved."""
        cfg = self.cfg
        progressed = False
        while not st.done:
            op = st.ops[st.idx]
            if isinstance(op, Operation):
                code = op.code
                if code == OpCode.COMPUTE:
                    st.t += op.duration
                    st.serial += op.duration
                elif code in (OpCode.SEND, OpCode.ASEND):
                    st.serial += cfg.send_overhead
                    peer = op.peer
                    if self._valid_peer(st.node, peer):
                        inject = st.t + cfg.send_overhead
                        est = inject + self._transit(st.node, peer, op.size)
                        heapq.heappush(
                            self.queues.setdefault((st.node, peer), []), est)
                        self.all_deliveries.append(est)
                        self._account_message(st.node, peer, op.size)
                        # Synchronous send blocks until delivery.
                        st.t = est if code == OpCode.SEND \
                            else st.t + cfg.send_overhead
                    else:
                        # Malformed peer: the TR passes flag it; pay the
                        # software overhead only so the bound stays sound.
                        st.t += cfg.send_overhead
                elif code in (OpCode.RECV, OpCode.ARECV):
                    st.serial += cfg.recv_overhead
                    peer = op.peer
                    if code == OpCode.RECV \
                            and self._valid_peer(st.node, peer):
                        queue = self.queues.get((peer, st.node))
                        if not queue:
                            st.blocked = True
                            return progressed
                        est = heapq.heappop(queue)
                        st.t = max(st.t, est) + cfg.recv_overhead
                    else:
                        # arecv never blocks (it pre-posts when the
                        # message has not arrived) and claims no
                        # estimate: the NIC may hand "its" message to a
                        # blocked synchronous receive instead, so any
                        # claim here could starve a later recv into a
                        # too-late estimate.  Paying o_r only is sound.
                        st.t += cfg.recv_overhead
                # Computational opcodes (LOAD/ADD/...) carry node-model
                # time that task-level bounds cannot see; ignored.
            elif hasattr(op, "sources"):
                # RecvAnyEvent (duck-typed to keep imports sim-free):
                # never waits and, like arecv, claims no estimate.
                st.serial += cfg.recv_overhead
                st.t += cfg.recv_overhead
            st.idx += 1
            st.blocked = False
            progressed = True
        return progressed

    def run(self) -> BoundReport:
        progressed = True
        while progressed:
            progressed = False
            for st in self.states:
                if not st.done:
                    progressed = self._advance(st) or progressed
        stalled = tuple(st.node for st in self.states if not st.done)
        critical_path = max(
            [st.t for st in self.states] + self.all_deliveries,
            default=0.0)
        cfg = self.cfg
        loads = []
        for (u, v) in sorted(self.link_bytes):
            bw = cfg.link_bandwidth * self.topo.link_capacity(u, v)
            nbytes = self.link_bytes[(u, v)]
            loads.append(LinkLoad(
                src=u, dst=v, bytes=nbytes,
                packets=self.link_packets[(u, v)],
                demand_cycles=nbytes / bw, bandwidth=bw))
        classes = []
        for (src, dst, size) in sorted(self.classes):
            hops, scales = self._path_info(src, dst)
            wire = _packet_wire_sizes(size, cfg)
            transit = self._transit(src, dst, size)
            classes.append(MessageClassBound(
                src=src, dst=dst, size=size,
                count=self.classes[(src, dst, size)], hops=hops,
                transit_cycles=transit,
                latency_cycles=cfg.send_overhead + transit
                + cfg.recv_overhead,
                gap_cycles=_gap_cycles(cfg, scales, wire),
                o_send=cfg.send_overhead, o_recv=cfg.recv_overhead))
        report = BoundReport(
            machine=self.machine.name, subject=self.subject,
            n_nodes=self.n_nodes, switching=cfg.switching,
            routing=cfg.routing, routing_exact=not self.adaptive,
            converged=not stalled,
            nodes=[NodeBound(node=st.node, serial_cycles=st.serial,
                             finish_lower=st.t, n_ops=len(st.ops))
                   for st in self.states],
            link_loads=loads, message_classes=classes,
            critical_path_cycles=critical_path,
            stalled_nodes=stalled, n_messages=self.n_messages,
            total_bytes=self.total_bytes)
        # Aggregate link serialization is a second independent lower
        # bound — but only when the static loads are certain.
        report.cycle_lower_bound = max(
            critical_path,
            report.max_link_demand_cycles if report.routing_exact else 0.0)
        return report


def compute_bounds(machine: MachineConfig,
                   traces: Iterable[Iterable[Any]],
                   subject: str = "") -> BoundReport:
    """Statically bound one task-level workload on one machine.

    ``traces`` is a :class:`~repro.operations.trace.TraceSet` or any
    per-node sequence of operation iterables (the same shapes
    :meth:`Workbench.run_comm_only` accepts).  Returns a
    :class:`~repro.bounds.model.BoundReport`; never constructs a
    simulator.
    """
    return _BoundAnalyzer(machine, traces, subject).run()
