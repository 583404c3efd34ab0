"""Trace analyzer passes (``TR`` rules).

Beyond per-operation structure (``TR001``–``TR003``) and per-pair
send/recv counts (``TR004``), the traces get a *positional* analysis: an
abstract execution of the communication operations that mirrors the
blocking semantics of the multi-node model (synchronous ``send`` blocks
until delivery, ``recv`` blocks until a matching message exists,
``asend``/``arecv`` never block).  When the abstract execution stalls,
the wait-for graph over the blocked nodes is built and searched for
cycles — a cycle is a deadlock the simulation *will* hit (``TR005``);
blocked nodes off every cycle are starved receives (``TR006``).

For purely synchronous traces the abstraction is exact: communication
progress is a monotone counter dataflow, so the stall result does not
depend on the order nodes are advanced in.  Traces using ``arecv``
pre-posting are matched heuristically (the NIC's "waiting receiver
beats older pre-post" arrival rule is time-dependent), so findings on
such traces are demoted to warnings.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from ..diagnostics import Diagnostic, Severity
from ..operations.ops import OpCode
from .passes import CheckContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..operations.trace import Trace

__all__ = ["TraceStructuralPass", "MatchedCountsPass", "DeadlockPass",
           "TRACE_PASSES", "communication_matrix", "structural_diagnostics"]

_SENDS = (OpCode.SEND, OpCode.ASEND)
_RECVS = (OpCode.RECV, OpCode.ARECV)


def _comm_code(op: object) -> Optional[OpCode]:
    """The op's code if it is a Table-1 communication op, else None.

    Tolerates :class:`~repro.commmodel.nic.RecvAnyEvent` extension
    objects (``code is None``) living in task-level traces.
    """
    code = getattr(op, "code", None)
    return code if isinstance(code, OpCode) else None


def structural_diagnostics(trace: "Trace", n_nodes: Optional[int],
                           subject: str = "") -> list[Diagnostic]:
    """TR001/TR002/TR003 findings for a single node's trace.

    Peers are range-checked only when ``n_nodes`` is given.
    """
    out: list[Diagnostic] = []
    node = trace.node

    def diag(rule: str, message: str, i: int) -> None:
        out.append(Diagnostic(rule=rule, severity=Severity.ERROR,
                              message=f"node {node} op {i}: {message}",
                              subject=subject,
                              location=f"node {node} op {i}"))

    for i, op in enumerate(trace):
        code = _comm_code(op)
        if code is None:
            code = getattr(op, "code", None)
        if code in _SENDS:
            if op.size < 0:
                diag("TR001", "negative size", i)
            _peer_diag(out, node, op.peer, n_nodes, i, subject)
        elif code in _RECVS:
            _peer_diag(out, node, op.peer, n_nodes, i, subject)
        elif code is OpCode.COMPUTE:
            if op.duration < 0:
                diag("TR001", "negative compute duration", i)
        elif code in (OpCode.LOAD, OpCode.STORE, OpCode.IFETCH,
                      OpCode.BRANCH, OpCode.CALL, OpCode.RET):
            if op.address < 0:
                diag("TR001", f"negative address {op.address}", i)
    return out


def _peer_diag(out: list[Diagnostic], node: int, peer: int,
               n_nodes: Optional[int], i: int, subject: str) -> None:
    if peer == node:
        out.append(Diagnostic(
            rule="TR002", severity=Severity.ERROR,
            message=f"node {node} op {i}: self-communication",
            subject=subject, location=f"node {node} op {i}"))
    elif peer < 0 or (n_nodes is not None and peer >= n_nodes):
        out.append(Diagnostic(
            rule="TR003", severity=Severity.ERROR,
            message=f"node {node} op {i}: peer {peer} out of range",
            subject=subject, location=f"node {node} op {i}"))


class TraceStructuralPass:
    """Per-operation contract: sizes, durations, addresses, peers."""

    name = "trace-structure"
    rules = ("TR001", "TR002", "TR003")
    gating = True      # matching/deadlock are meaningless on ghost peers

    def run(self, ctx: CheckContext) -> list[Diagnostic]:
        traces = ctx.traces
        if traces is None:
            return []
        n = ctx.n_nodes if ctx.n_nodes is not None else len(traces)
        out: list[Diagnostic] = []
        for t in traces:
            out.extend(structural_diagnostics(t, n, ctx.subject))
        return out


def communication_matrix(traces: Iterable["Trace"]
                         ) -> tuple[list[list[int]], list[list[int]]]:
    """Return ``(sends, recvs)`` matrices.

    ``sends[src][dst]`` counts messages src sends to dst;
    ``recvs[src][dst]`` counts receives posted at dst naming src.
    """
    ts = list(traces)
    n = len(ts)
    sends = [[0] * n for _ in range(n)]
    recvs = [[0] * n for _ in range(n)]
    for t in ts:
        for op in t:
            if op.code in _SENDS:
                if 0 <= op.peer < n:
                    sends[t.node][op.peer] += 1
            elif op.code in _RECVS:
                if 0 <= op.peer < n:
                    recvs[op.peer][t.node] += 1
    return sends, recvs


class MatchedCountsPass:
    """Count-level matching per ordered node pair."""

    name = "trace-matched-counts"
    rules = ("TR004",)
    gating = False

    def run(self, ctx: CheckContext) -> list[Diagnostic]:
        traces = ctx.traces
        if traces is None:
            return []
        sends, recvs = communication_matrix(traces)
        n = len(sends)
        out: list[Diagnostic] = []
        for src in range(n):
            for dst in range(n):
                if sends[src][dst] != recvs[src][dst]:
                    out.append(ctx.diag(
                        "TR004", Severity.ERROR,
                        f"unmatched communication {src}->{dst}: "
                        f"{sends[src][dst]} send(s) vs "
                        f"{recvs[src][dst]} recv(s)",
                        location=f"pair {src}->{dst}"))
        return out


class _NodeState:
    """Abstract-execution state of one node."""

    __slots__ = ("node", "ops", "pc")

    def __init__(self, node: int, ops: list) -> None:
        self.node = node
        self.ops = ops          # [(trace index, op)]
        self.pc = 0

    @property
    def done(self) -> bool:
        return self.pc >= len(self.ops)

    @property
    def head(self):
        return self.ops[self.pc]


class DeadlockPass:
    """Abstract execution + wait-for-graph cycle detection (TR005/TR006).

    Blocking rules mirror :class:`repro.commmodel.nic.NIC`:

    * ``send``/``asend`` deposit a message for the destination and
      complete (a synchronous send waits only for network transit,
      which always terminates in a connected, deadlock-free network);
    * ``recv src`` blocks until a deposited message from ``src`` is
      available;
    * ``arecv src`` consumes an available message or pre-posts a claim
      against the next one, never blocking;
    * ``recv_any`` consumes from any listed source, blocking until one
      has a message.
    """

    name = "trace-deadlock"
    rules = ("TR005", "TR006")
    gating = False

    def run(self, ctx: CheckContext) -> list[Diagnostic]:
        traces = ctx.traces
        if traces is None or ctx.has_error("TR00"):
            return []
        states = [self._comm_ops(t) for t in traces]
        buffered: dict[tuple[int, int], int] = {}    # (src, dst) -> avail
        preposted: dict[tuple[int, int], int] = {}   # (src, dst) -> claims
        stats = {"prepost": False}

        progress = True
        while progress:
            progress = False
            for st in states:
                while not st.done:
                    if not self._advance(st, buffered, preposted, stats):
                        break
                    progress = True

        blocked = [st for st in states if not st.done]
        if not blocked:
            return []
        severity = Severity.WARNING if stats["prepost"] else Severity.ERROR
        return self._stall_diagnostics(ctx, blocked, severity)

    # -- abstract execution ------------------------------------------------

    @staticmethod
    def _comm_ops(trace: "Trace") -> _NodeState:
        ops = []
        for i, op in enumerate(trace):
            code = _comm_code(op)
            if code in _SENDS or code in _RECVS:
                ops.append((i, op))
            elif getattr(op, "code", None) is None and \
                    hasattr(op, "sources"):       # RecvAnyEvent extension
                ops.append((i, op))
        return _NodeState(trace.node, ops)

    def _advance(self, st: _NodeState, buffered: dict, preposted: dict,
                 stats: dict) -> bool:
        """Try to complete the head op; return True on progress."""
        _, op = st.head
        node = st.node
        code = _comm_code(op)
        if code in _SENDS:
            key = (node, op.peer)
            if preposted.get(key, 0) > 0:
                preposted[key] -= 1          # absorbed by an arecv claim
            else:
                buffered[key] = buffered.get(key, 0) + 1
            st.pc += 1
            return True
        if code is OpCode.RECV:
            key = (op.peer, node)
            if buffered.get(key, 0) > 0:
                buffered[key] -= 1
                st.pc += 1
                return True
            return False
        if code is OpCode.ARECV:
            key = (op.peer, node)
            if buffered.get(key, 0) > 0:
                buffered[key] -= 1
            else:
                preposted[key] = preposted.get(key, 0) + 1
                stats["prepost"] = True
            st.pc += 1
            return True
        # RecvAnyEvent: consume from the lowest-numbered ready source.
        for src in sorted(op.sources):
            key = (src, node)
            if buffered.get(key, 0) > 0:
                buffered[key] -= 1
                st.pc += 1
                return True
        return False

    # -- stall analysis -----------------------------------------------------

    def _waits_on(self, st: _NodeState) -> list[int]:
        """Peer node(s) the blocked head op is waiting for."""
        _, op = st.head
        code = _comm_code(op)
        if code is OpCode.RECV:
            return [op.peer]
        return sorted(getattr(op, "sources", ()))

    def _stall_diagnostics(self, ctx: CheckContext,
                           blocked: list[_NodeState],
                           severity: Severity) -> list[Diagnostic]:
        blocked_ids = {st.node for st in blocked}
        by_node = {st.node: st for st in blocked}

        # Follow one wait-for edge per node to find a cycle (prefer
        # edges that stay inside the blocked set).
        cycles: list[tuple[int, ...]] = []
        seen_cycles: set[tuple[int, ...]] = set()
        for start in sorted(blocked_ids):
            path: list[int] = []
            index: dict[int, int] = {}
            cur = start
            while cur in blocked_ids and cur not in index:
                index[cur] = len(path)
                path.append(cur)
                peers = [p for p in self._waits_on(by_node[cur])
                         if p in blocked_ids]
                if not peers:
                    break
                cur = peers[0]
            if cur in index:
                cycle = tuple(path[index[cur]:])
                lo = cycle.index(min(cycle))
                canon = cycle[lo:] + cycle[:lo]
                if canon not in seen_cycles:
                    seen_cycles.add(canon)
                    cycles.append(canon)

        out: list[Diagnostic] = []
        on_cycle: set[int] = set()
        for cycle in cycles:
            on_cycle.update(cycle)
            where = " -> ".join(
                f"node {u} (op {by_node[u].head[0]})" for u in cycle)
            out.append(ctx.diag(
                "TR005", severity,
                f"static deadlock: cyclic wait {where} -> node {cycle[0]}",
                location=f"nodes {list(cycle)}",
                hint="every node in the cycle blocks on a receive whose "
                     "matching send comes later in the sender's trace"))
        for st in blocked:
            if st.node in on_cycle:
                continue
            i, _op = st.head
            waits = self._waits_on(st)
            stuck = [p for p in waits if p in blocked_ids]
            if stuck:
                why = f"transitively blocked behind node {stuck[0]}"
            else:
                why = "no matching send remains"
            out.append(ctx.diag(
                "TR006", severity,
                f"node {st.node} op {i}: receive from "
                f"{waits[0] if len(waits) == 1 else waits} can never "
                f"complete ({why})",
                location=f"node {st.node} op {i}"))
        return out


#: The standard trace pipeline, in execution order.
TRACE_PASSES: tuple = (TraceStructuralPass(), MatchedCountsPass(),
                       DeadlockPass())
