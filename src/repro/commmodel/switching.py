"""Switching strategies — "a configurable ... switching strategy" (Sec 4.2).

Three classic multicomputer switching disciplines, all modelled at the
packet level on top of the kernel's FIFO link resources:

* **store-and-forward** — a packet is received completely at each router
  before moving on; per-hop cost is the full packet serialization time.
* **virtual cut-through** — a packet starts forwarding as soon as its
  header has been routed; when blocked it is buffered entirely at the
  blocking router (upstream links are freed while the body streams out).
* **wormhole** — the header flit acquires links hop by hop and the body
  streams through the held path; a blocked worm keeps its partial path
  occupied (the characteristic wormhole behaviour).  On rings and tori
  a second, *dateline* virtual channel breaks the dimensional cycles so
  dimension-order wormhole routing stays deadlock-free.

Each engine exposes ``inject(message)``; delivery is reported through a
callback so the network model can hand the message to the destination's
abstract processor.

Hot-path contract: a packet is one Pearl process, and each of its
yields is exactly one scheduled kernel entry.  Per hop, the body
allocates only what the schedule needs (the VC acquire event).  Each
distinct node path resolves once to a cached route: a tuple of links
with their per-hop constants (header cycles, the dateline VC).  Fault
and observed runs walk the same bodies.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..core.config import ConfigError, NetworkConfig
from ..pearl import Simulator, TallyMonitor
from ..topology import Topology
from .link import Link
from .message import Message, Packet
from .routing import RoutingFunction

__all__ = ["SwitchingEngine", "StoreAndForward", "VirtualCutThrough",
           "Wormhole", "make_switching"]

DeliverFn = Callable[[Message], None]


class SwitchingEngine:
    """Base class: owns the links and the packet-level statistics."""

    #: virtual channels instantiated per link (overridden by Wormhole).
    n_vcs = 1

    def __init__(self, sim: Simulator, cfg: NetworkConfig, topo: Topology,
                 routing: RoutingFunction, deliver: DeliverFn,
                 injector=None) -> None:
        self.sim = sim
        self.cfg = cfg
        self.topo = topo
        self.routing = routing
        self.deliver = deliver
        # Optional repro.faults.FaultInjector; every transfer process
        # consults it per link crossing when set (None = seed path).
        self.injector = injector
        self.links: dict[tuple[int, int], Link] = {
            (u, v): Link(sim, u, v, cfg, self.n_vcs,
                         bandwidth_scale=topo.link_capacity(u, v))
            for (u, v) in topo.links()}
        self.packet_latency = TallyMonitor("packet_latency")
        self.packet_hops = TallyMonitor("packet_hops")
        self.messages_injected = 0
        self.messages_delivered = 0
        # node path -> resolved route (see _resolve), one per distinct path
        self._routes: dict[tuple[int, ...], tuple] = {}

    # -- public API -------------------------------------------------------

    def inject(self, message: Message,
               path: Optional[list[int]] = None) -> None:
        """Packetize ``message`` and launch one transfer process per packet.

        ``path`` overrides the routing function for every packet — the
        reliable transport's degraded-routing fallback steers retries
        around suspect links with it.
        """
        src, dst = message.src, message.dst
        if src == dst:
            raise ConfigError(
                f"message {message.id}: source equals destination ({src})")
        message.t_inject = self.sim.now
        self.messages_injected += 1
        packets = message.split(self.cfg.packet_bytes, self.cfg.header_bytes)
        fixed = self._route(path) if path is not None else None
        routing = self.routing
        process = self.sim.process
        for pkt in packets:
            # Per-packet path: deterministic routers return the cached
            # path, adaptive (random-minimal) routers sample a fresh one.
            route = fixed if fixed is not None \
                else self._route(routing.path(src, dst))
            process(self._packet_process(pkt, route),
                    name=f"pkt{message.id}.{pkt.index}")

    # -- per-strategy transfer process --------------------------------------

    def _resolve(self, path: tuple[int, ...]) -> tuple:
        """The route a transfer process walks for ``path``: its links
        with every per-hop constant the strategy needs precomputed."""
        raise NotImplementedError

    def _packet_process(self, pkt: Packet, route: tuple):
        raise NotImplementedError

    # -- shared helpers ---------------------------------------------------------

    def _route(self, path: list[int]) -> tuple:
        key = tuple(path)
        route = self._routes.get(key)
        if route is None:
            route = self._routes[key] = self._resolve(key)
        return route

    def _path_links(self, path: tuple[int, ...]) -> list[Link]:
        return [self.links[(path[i], path[i + 1])]
                for i in range(len(path) - 1)]

    def _packet_done(self, pkt: Packet, t_start: float) -> None:
        self.packet_latency.record(self.sim.now - t_start)
        msg = pkt.message
        observer = self.sim.observer
        if observer is not None:
            observer.span("network", f"pkt{msg.id}.{pkt.index}", t_start,
                          self.sim.now - t_start, "network",
                          {"src": msg.src, "dst": msg.dst,
                           "bytes": pkt.total_bytes})
        if msg.packet_arrived():
            msg.t_deliver = self.sim.now
            self.messages_delivered += 1
            self.deliver(msg)

    def link_utilizations(self, horizon: Optional[float] = None) -> dict:
        h = horizon if horizon is not None else self.sim.now
        return {f"{u}->{v}": link.utilization(h)
                for (u, v), link in self.links.items()}

    def max_link_utilization(self, horizon: Optional[float] = None) -> float:
        h = horizon if horizon is not None else self.sim.now
        if not self.links:
            return 0.0
        return max(link.utilization(h) for link in self.links.values())

    def summary(self) -> dict:
        return {
            "strategy": type(self).__name__,
            "messages_injected": self.messages_injected,
            "messages_delivered": self.messages_delivered,
            "packet_latency": self.packet_latency.summary(),
            "packet_hops": self.packet_hops.summary(),
        }

    def register_metrics(self, registry) -> None:
        """Expose this engine's monitors in a
        :class:`~repro.observe.MetricRegistry`."""
        registry.register("network.packet_latency", self.packet_latency)
        registry.register("network.packet_hops", self.packet_hops)
        registry.register("network.traffic", lambda: {
            "messages_injected": self.messages_injected,
            "messages_delivered": self.messages_delivered,
        })
        registry.register("network.link_utilization",
                          self.link_utilizations)


class StoreAndForward(SwitchingEngine):
    """Full packet received at each hop before forwarding."""

    def _resolve(self, path: tuple[int, ...]) -> tuple:
        # hops of (link, vc)
        return tuple((link, link.vcs[0]) for link in self._path_links(path))

    def _packet_process(self, pkt: Packet, route: tuple):
        t0 = self.sim.now
        self.packet_hops.record(len(route))
        routing_cycles = self.cfg.routing_cycles
        injector = self.injector
        nbytes = pkt.total_bytes
        for link, vc in route:
            if injector is not None:
                verdict = yield from link.cross_faults(injector, pkt)
                if verdict == "drop":
                    return
            if routing_cycles:
                yield routing_cycles
            yield vc.acquire()
            transfer = link.transfer_cycles(nbytes)
            link.account(nbytes, transfer)
            yield transfer
            vc.release()
            if link.latency:
                yield link.latency
        self._packet_done(pkt, t0)


class VirtualCutThrough(SwitchingEngine):
    """Forward on header arrival; buffer the whole packet when blocked."""

    def _resolve(self, path: tuple[int, ...]) -> tuple:
        # hops of (link, vc, header serialization cycles)
        header_bytes = self.cfg.header_bytes
        return tuple((link, link.vcs[0], link.transfer_cycles(header_bytes))
                     for link in self._path_links(path))

    def _packet_process(self, pkt: Packet, route: tuple):
        t0 = self.sim.now
        self.packet_hops.record(len(route))
        routing_cycles = self.cfg.routing_cycles
        nbytes = pkt.total_bytes
        body_bytes = max(nbytes - self.cfg.header_bytes, 0)
        injector = self.injector
        for link, vc, header_t in route:
            if injector is not None:
                verdict = yield from link.cross_faults(injector, pkt)
                if verdict == "drop":
                    return
            if routing_cycles:
                yield routing_cycles
            # Released behind the body below, which the static leak
            # check cannot see.
            yield vc.acquire()             # repro: noqa[PY012]
            body_t = link.transfer_cycles(body_bytes)
            link.account(nbytes, header_t + body_t)
            yield header_t
            # The body streams behind the header: the link stays occupied
            # for body_t more cycles, but this packet's header moves on.
            if body_t > 0:
                vc.release_after(body_t)
            else:
                vc.release()
            if link.latency:
                yield link.latency
        # Tail arrival at the destination.
        if body_bytes:
            yield route[-1][0].transfer_cycles(body_bytes)
        self._packet_done(pkt, t0)


class Wormhole(SwitchingEngine):
    """Header flit reserves the path; body streams; tail releases.

    Virtual channel 0 is the default; packets that cross a ring/torus
    wraparound link switch to the dateline channel (VC 1) for the rest
    of their path, which breaks the cyclic channel dependency and keeps
    dimension-order wormhole routing deadlock-free.
    """

    n_vcs = 2

    def _resolve(self, path: tuple[int, ...]) -> tuple:
        """``(hops, bottleneck)``: hops of (link, vc, flit cycles, header
        flit cycles incl. wire latency), the VC already switched past a
        dateline; the slowest link sets the body's streaming rate."""
        flit_bytes = self.cfg.flit_bytes
        hops = []
        vc_index = 0
        for i, link in enumerate(self._path_links(path)):
            flit_t = link.transfer_cycles(flit_bytes)
            hops.append((link, link.vcs[vc_index], flit_t,
                         flit_t + link.latency))
            if self.topo.is_wrap_edge(path[i], path[i + 1]):
                vc_index = 1
        bottleneck = min((hop[0] for hop in hops),
                         key=lambda link: link.bandwidth)
        return tuple(hops), bottleneck

    def _packet_process(self, pkt: Packet, route: tuple):
        t0 = self.sim.now
        hops, bottleneck = route
        self.packet_hops.record(len(hops))
        cfg = self.cfg
        routing_cycles = cfg.routing_cycles
        nbytes = pkt.total_bytes
        held = []
        injector = self.injector
        try:
            for link, vc, _flit_t, header_t in hops:
                if injector is not None:
                    # A dropped worm releases its partial path through
                    # the finally below (tail never advances).
                    verdict = yield from link.cross_faults(injector, pkt)
                    if verdict == "drop":
                        return
                if routing_cycles:
                    yield routing_cycles
                # Released through the `held` list in the finally
                # below, which the static leak check cannot see.
                yield vc.acquire()         # repro: noqa[PY012]
                held.append(vc)
                # Header flit crosses this hop.
                yield header_t
            # Path is held end to end: stream the body (everything after
            # the header flit) through the pipeline, at the bottleneck
            # link's rate (links may differ, e.g. fat-tree levels).
            body_t = bottleneck.transfer_cycles(
                max(nbytes - cfg.flit_bytes, 0))
            for link, _vc, flit_t, _header_t in hops:
                link.account(nbytes, flit_t + body_t)
            if body_t:
                yield body_t
        finally:
            # Tail flit passed: free the whole path.
            for vc in held:
                vc.release()
        self._packet_done(pkt, t0)


def make_switching(sim: Simulator, cfg: NetworkConfig, topo: Topology,
                   routing: RoutingFunction, deliver: DeliverFn,
                   injector=None) -> SwitchingEngine:
    """Build the engine named by ``NetworkConfig.switching``."""
    engines = {
        "store_and_forward": StoreAndForward,
        "virtual_cut_through": VirtualCutThrough,
        "wormhole": Wormhole,
    }
    try:
        engine_cls = engines[cfg.switching]
    except KeyError:
        raise ConfigError(f"unknown switching strategy {cfg.switching!r}") \
            from None
    return engine_cls(sim, cfg, topo, routing, deliver, injector)
