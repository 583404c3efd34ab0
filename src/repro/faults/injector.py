"""The fault injector — a :class:`FaultPlan` interpreted against one run.

The injector sits at the link/NIC boundary of the communication model
(DESIGN.md decision 12): the switching engines consult it once per
packet per link crossing, the NICs consult it on every send, and the
node drivers consult it once per operation.  The Pearl kernel itself is
untouched — faults are ordinary model behaviour (waits, early returns,
flag flips), not scheduler magic.

Randomness: one ``numpy`` Generator per directed link, seeded
``[plan.seed, src, dst]``, so a link's drop/corrupt stream depends only
on the plan seed and the link identity — never on global draw order.
That makes results reproducible across processes and makes the drop
decision monotone in ``drop_prob`` for a fixed seed (the metamorphic
tests' central property).  Links whose effective probabilities are both
zero consume no draws at all.
"""

from __future__ import annotations

import numpy as np

from ..topology import Topology
from .plan import FaultPlan, NodeWindow

__all__ = ["FaultInjector"]


def _window_until(windows: list[NodeWindow], node: int, now: float) -> float:
    """Latest ``end`` over windows matching ``node`` active at ``now``
    (``now`` itself when none is active)."""
    until = now
    for w in windows:
        if (w.node is None or w.node == node) and w.start <= now < w.end:
            until = max(until, w.end)
    return until


class FaultInjector:
    """Stateful interpreter of one :class:`FaultPlan` for one simulation.

    All decisions are pure functions of (plan, link/node identity, and
    the per-link RNG stream position); the injector also owns the
    ``faults.*`` counters surfaced through the metric registry and
    ``CommResult.fault_summary``.
    """

    def __init__(self, plan: FaultPlan, topo: Topology, sim) -> None:
        self.plan = plan
        self.topo = topo
        self.sim = sim
        self._rngs: dict[tuple[int, int], np.random.Generator] = {}
        self._probs: dict[tuple[int, int], tuple[float, float]] = {}
        self.dropped = 0
        self.corrupted = 0
        self.dropped_by_link: dict[str, int] = {}
        self.down_waits = 0
        self.down_wait_cycles = 0.0
        self.nic_stall_count = 0
        self.nic_stall_cycles = 0.0
        self.node_pause_count = 0
        self.node_pause_cycles = 0.0

    def report(self, kind: str, tid: str, args: dict) -> None:
        """Tell the simulation's observer of one fault event: an instant
        of category ``faults`` on track ``tid`` (a link or a node)."""
        observer = self.sim.observer
        if observer is not None:
            observer.instant("faults", kind, self.sim.now, tid, args)

    # -- link drop/corrupt --------------------------------------------------

    def _link_probs(self, u: int, v: int) -> tuple[float, float]:
        """Effective (drop, corrupt) for link (u, v): last matching
        :class:`~repro.faults.plan.LinkFault` rule wins."""
        cached = self._probs.get((u, v))
        if cached is not None:
            return cached
        drop = corrupt = 0.0
        for rule in self.plan.link_faults:
            if ((rule.src is None or rule.src == u)
                    and (rule.dst is None or rule.dst == v)):
                drop, corrupt = rule.drop_prob, rule.corrupt_prob
        self._probs[(u, v)] = (drop, corrupt)
        return drop, corrupt

    def _rng(self, u: int, v: int) -> np.random.Generator:
        rng = self._rngs.get((u, v))
        if rng is None:
            rng = np.random.default_rng([self.plan.seed, u, v])
            self._rngs[(u, v)] = rng
        return rng

    def crossing(self, u: int, v: int, pkt) -> str:
        """Fault verdict for one packet crossing link (u, v):
        ``"ok"``, ``"drop"``, or ``"corrupt"`` (counters updated)."""
        drop, corrupt = self._link_probs(u, v)
        if drop == 0.0 and corrupt == 0.0:
            return "ok"
        x = float(self._rng(u, v).random())
        if x < drop:
            self.dropped += 1
            key = f"{u}->{v}"
            self.dropped_by_link[key] = self.dropped_by_link.get(key, 0) + 1
            self.report("drop", "link" + key,
                        {"message": pkt.message.id, "packet": pkt.index})
            return "drop"
        if x < drop + corrupt:
            pkt.message.corrupted = True
            self.corrupted += 1
            self.report("corrupt", f"link{u}->{v}",
                        {"message": pkt.message.id, "packet": pkt.index})
            return "corrupt"
        return "ok"

    # -- link down windows --------------------------------------------------

    def down_delay(self, u: int, v: int, now: float) -> float:
        """Cycles until link (u, v) comes back up (0.0 when it is up)."""
        until = now
        for w in self.plan.link_down:
            if ((w.src is None or w.src == u)
                    and (w.dst is None or w.dst == v)
                    and w.start <= now < w.end):
                until = max(until, w.end)
        return until - now

    def record_down_wait(self, u: int, v: int, delay: float, pkt) -> None:
        self.down_waits += 1
        self.down_wait_cycles += delay
        self.report("down_wait", f"link{u}->{v}",
                    {"message": pkt.message.id, "delay": delay})

    # -- NIC stalls and node pauses ----------------------------------------

    def stall(self, node: int):
        """Generator: wait out any active NIC-stall window for ``node``."""
        sim = self.sim
        while True:
            until = _window_until(self.plan.nic_stalls, node, sim.now)
            if until <= sim.now:
                return
            delay = until - sim.now
            self.nic_stall_count += 1
            self.nic_stall_cycles += delay
            self.report("nic_stall", f"node{node}", {"until": until})
            yield delay

    def pause(self, node: int):
        """Generator: wait out any active pause window for ``node``."""
        sim = self.sim
        while True:
            until = _window_until(self.plan.node_pauses, node, sim.now)
            if until <= sim.now:
                return
            delay = until - sim.now
            self.node_pause_count += 1
            self.node_pause_cycles += delay
            self.report("node_pause", f"node{node}", {"until": until})
            yield delay

    # -- degraded-routing support ------------------------------------------

    def suspect_links(self, now: float) -> set[tuple[int, int]]:
        """Links a degraded route should avoid: down right now, or with
        an effective drop probability of 1.0 (a dead wire)."""
        out: set[tuple[int, int]] = set()
        for (u, v) in self.topo.links():
            if self.down_delay(u, v, now) > 0.0:
                out.add((u, v))
            elif self._link_probs(u, v)[0] >= 1.0:
                out.add((u, v))
        return out

    # -- reporting ----------------------------------------------------------

    def summary(self) -> dict:
        return {
            "dropped": self.dropped,
            "corrupted": self.corrupted,
            "dropped_by_link": dict(sorted(self.dropped_by_link.items())),
            "down_waits": self.down_waits,
            "down_wait_cycles": self.down_wait_cycles,
            "nic_stalls": self.nic_stall_count,
            "nic_stall_cycles": self.nic_stall_cycles,
            "node_pauses": self.node_pause_count,
            "node_pause_cycles": self.node_pause_cycles,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<FaultInjector plan={self.plan.name or 'unnamed'!r} "
                f"dropped={self.dropped} corrupted={self.corrupted}>")
