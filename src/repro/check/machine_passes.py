"""Machine-config analyzer passes (``MC`` rules).

A machine description that passes ``MachineConfig.validate()`` can
still be unusable: a routing strategy that cannot reach every endpoint
pair, or parameter combinations that are individually legal but
mutually absurd.  These passes reject such configs in milliseconds —
before a sweep burns hours simulating a doomed variant.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from typing import TYPE_CHECKING, Iterator, Optional

from .diagnostics import Diagnostic, Severity
from .passes import CheckContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..topology.topologies import Topology

__all__ = ["MachineContractPass", "TopologyReachabilityPass",
           "RoutingValidityPass", "ParameterConsistencyPass",
           "MACHINE_PASSES", "routing_memo"]

#: Above this endpoint count, routing validity samples pairs instead of
#: enumerating all O(n^2) of them.
_EXHAUSTIVE_ENDPOINTS = 64

#: routing-validity findings per ``(topology, routing)`` while a
#: :func:`routing_memo` block runs; ``None`` outside one
_ROUTE_FINDINGS: ContextVar[Optional[dict]] = \
    ContextVar("route_findings", default=None)


@contextlib.contextmanager
def routing_memo() -> Iterator[None]:
    """Walk each ``(topology, routing)`` pair's routes once in the block.

    Routing validity depends on nothing else, and a sweep's variants
    mostly share their interconnect (a bandwidth x switching sweep never
    changes it), so a sweep's pre-flight runs inside one block.  The
    memo is scoped to the block, not the process: outside one, every
    check walks its routes, and sees a patched ``make_routing``.
    """
    token = _ROUTE_FINDINGS.set({})
    try:
        yield
    finally:
        _ROUTE_FINDINGS.reset(token)


def _build_topology(ctx: CheckContext) -> Optional["Topology"]:
    from ..topology import build_topology
    if ctx.machine is None:
        return None
    try:
        return build_topology(ctx.machine.network.topology)
    except Exception:
        return None        # TopologyReachabilityPass reports this


class MachineContractPass:
    """The dataclass contract: every ``validate()`` rule, as MC001."""

    name = "machine-contract"
    rules = ("MC001",)
    gating = True          # later passes need a well-formed config

    def run(self, ctx: CheckContext) -> list[Diagnostic]:
        if ctx.machine is None:
            return []
        from ..core.config import ConfigError
        try:
            ctx.machine.validate()
        except ConfigError as exc:
            return [ctx.diag("MC001", Severity.ERROR, str(exc),
                             location="validate()")]
        return []


class TopologyReachabilityPass:
    """Every endpoint pair must be connected through the interconnect."""

    name = "machine-topology"
    rules = ("MC002",)
    gating = True          # routing over a disconnected graph is moot

    def run(self, ctx: CheckContext) -> list[Diagnostic]:
        if ctx.machine is None:
            return []
        from ..core.config import ConfigError
        from ..topology import build_topology
        try:
            topo = build_topology(ctx.machine.network.topology)
        except ConfigError as exc:
            return [ctx.diag("MC002", Severity.ERROR,
                             f"topology cannot be built: {exc}",
                             location="network.topology")]
        out: list[Diagnostic] = []
        if not topo.is_connected():
            dist = topo.shortest_path_lengths(0)
            unreachable = [v for v in range(topo.n_endpoints)
                           if dist[v] < 0]
            out.append(ctx.diag(
                "MC002", Severity.ERROR,
                f"topology {topo.kind} is disconnected: endpoints "
                f"{unreachable[:8]} unreachable from endpoint 0",
                location="network.topology"))
        for node in range(topo.n_endpoints):
            if topo.degree(node) == 0 and topo.n > 1:
                out.append(ctx.diag(
                    "MC002", Severity.ERROR,
                    f"endpoint {node} has no links",
                    location=f"network.topology node {node}"))
        return out


class RoutingValidityPass:
    """The routing function must produce valid paths for endpoint pairs.

    A valid path starts at the source, ends at the destination, follows
    only existing topology links, and visits no node twice.  All pairs
    are checked up to 64 endpoints; beyond that a deterministic sample
    (every pair involving endpoints 0 and n-1, plus a stride-based
    subset) keeps the pass fast.  Inside a :func:`routing_memo` block a
    ``(topology, routing)`` pair is walked once, and its findings are
    rebound to each later machine's subject.
    """

    name = "machine-routing"
    rules = ("MC003",)
    gating = False

    def run(self, ctx: CheckContext) -> list[Diagnostic]:
        memo = _ROUTE_FINDINGS.get()
        if memo is None or ctx.machine is None:
            return self._walk(ctx)
        net = ctx.machine.network
        key = (repr(net.topology), net.routing)
        if key not in memo:
            memo[key] = self._walk(ctx)
        return [ctx.diag(d.rule, d.severity, d.message, d.location, d.hint)
                for d in memo[key]]

    def _walk(self, ctx: CheckContext) -> list[Diagnostic]:
        topo = _build_topology(ctx)
        if topo is None or ctx.machine is None:
            return []
        from ..commmodel.routing import make_routing
        from ..core.config import ConfigError
        try:
            routing = make_routing(ctx.machine.network.routing, topo)
        except ConfigError as exc:
            return [ctx.diag("MC003", Severity.ERROR,
                             f"routing cannot be constructed: {exc}",
                             location="network.routing")]
        out: list[Diagnostic] = []
        for src, dst in self._pairs(topo.n_endpoints):
            try:
                path = routing.path(src, dst)
            except Exception as exc:       # noqa: BLE001 - reported below
                out.append(ctx.diag(
                    "MC003", Severity.ERROR,
                    f"routing failed for {src}->{dst}: "
                    f"{type(exc).__name__}: {exc}",
                    location=f"route {src}->{dst}"))
                continue
            problem = self._path_problem(topo, src, dst, path)
            if problem:
                out.append(ctx.diag(
                    "MC003", Severity.ERROR,
                    f"route {src}->{dst} invalid: {problem} "
                    f"(path {path[:12]})",
                    location=f"route {src}->{dst}"))
            if len(out) >= 8:              # enough evidence; stop early
                break
        return out

    @staticmethod
    def _pairs(n: int) -> list[tuple[int, int]]:
        if n <= _EXHAUSTIVE_ENDPOINTS:
            return [(s, d) for s in range(n) for d in range(n) if s != d]
        stride = max(n // 32, 1)
        sample = sorted({0, n - 1, *range(0, n, stride)})
        return [(s, d) for s in sample for d in sample if s != d]

    @staticmethod
    def _path_problem(topo: "Topology", src: int, dst: int,
                      path: list[int]) -> str:
        if not path or path[0] != src:
            return f"does not start at source {src}"
        if path[-1] != dst:
            return f"does not end at destination {dst}"
        if len(set(path)) != len(path):
            return "revisits a node (routing loop)"
        for u, v in zip(path, path[1:]):
            if v not in topo.neighbors(u):
                return f"uses nonexistent link {u}->{v}"
        return ""


class ParameterConsistencyPass:
    """Cross-field sanity of the Table-1 latency/bandwidth parameters."""

    name = "machine-parameters"
    rules = ("MC004",)
    gating = False

    def run(self, ctx: CheckContext) -> list[Diagnostic]:
        if ctx.machine is None:
            return []
        net = ctx.machine.network
        node = ctx.machine.node
        out: list[Diagnostic] = []

        def warn(message: str, location: str, hint: str = "") -> None:
            out.append(ctx.diag("MC004", Severity.WARNING, message,
                                location=location, hint=hint))

        if net.flit_bytes > net.packet_bytes + net.header_bytes:
            warn(f"flit_bytes {net.flit_bytes} exceeds a whole packet "
                 f"({net.packet_bytes} payload + {net.header_bytes} "
                 f"header)", "network.flit_bytes",
                 "a packet should span at least one flit")
        if net.header_bytes >= net.packet_bytes:
            warn(f"header_bytes {net.header_bytes} >= packet_bytes "
                 f"{net.packet_bytes}: headers dominate every packet",
                 "network.header_bytes")
        if node.cpu.clock_hz > 1e11:
            warn(f"clock_hz {node.cpu.clock_hz:g} exceeds 100 GHz",
                 "node.cpu.clock_hz")
        if net.link_bandwidth > 4096:
            warn(f"link_bandwidth {net.link_bandwidth:g} bytes/cycle is "
                 f"implausibly high", "network.link_bandwidth")
        sizes = [lvl.data.size_bytes for lvl in node.cache_levels]
        for upper, lower in zip(sizes, sizes[1:]):
            if lower < upper:
                warn(f"cache level of {lower} bytes sits below a larger "
                     f"level of {upper} bytes (inverted hierarchy)",
                     "node.cache_levels")
        return out


#: The standard machine pipeline, in execution order.
MACHINE_PASSES: tuple = (MachineContractPass(), TopologyReachabilityPass(),
                         RoutingValidityPass(), ParameterConsistencyPass())
