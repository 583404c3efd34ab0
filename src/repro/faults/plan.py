"""Declarative fault plans — *what* goes wrong, *when*, and *how often*.

A :class:`FaultPlan` is a JSON-serializable description of the faults
to inject into one communication-model run: link down/up windows,
per-link packet drop/corruption probabilities (drawn from a seeded,
per-link RNG stream so results are reproducible and order-independent),
NIC send-path stalls, and whole-node pauses.  The plan is pure data —
the :class:`~repro.faults.injector.FaultInjector` interprets it against
a concrete topology at simulation time.

Determinism contract: a simulation is a pure function of (machine,
workload, *fault plan*); :meth:`FaultPlan.digest` is the stable content
hash that extends the PR-1 result-cache key, and an *empty* plan is
normalized away entirely (:func:`as_fault_plan` returns ``None``) so a
fault-free run takes exactly the seed code path.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Optional

from ..config import ConfigError

__all__ = ["DownWindow", "FaultPlan", "LinkFault", "NodeWindow",
           "TransportConfig", "as_fault_plan"]


@dataclass
class LinkFault:
    """Per-crossing drop/corruption probabilities for matching links.

    ``src``/``dst`` of ``None`` are wildcards; when several rules match
    a link, the *last* matching rule wins (declaration order).  One
    uniform draw per packet crossing decides the outcome: drop on
    ``x < drop_prob``, corrupt on ``drop_prob <= x < drop_prob +
    corrupt_prob`` — so raising ``drop_prob`` with a fixed seed can
    only turn deliveries into drops, never the reverse (the
    monotonicity property the metamorphic tests rely on).
    """

    drop_prob: float = 0.0
    corrupt_prob: float = 0.0
    src: Optional[int] = None
    dst: Optional[int] = None


@dataclass
class DownWindow:
    """Link outage: matching links carry nothing in ``[start, end)``.

    Packets arriving at a down link wait for the window to end (the
    wire is dead, not the packet), so outages alone never lose data —
    they add latency and, under wormhole switching, hold paths.
    """

    start: float
    end: float
    src: Optional[int] = None
    dst: Optional[int] = None


@dataclass
class NodeWindow:
    """A per-node fault window (NIC stall or node pause).

    ``node`` of ``None`` matches every node.  As a NIC stall the window
    blocks the send path (send/asend wait it out before injecting); as
    a node pause it blocks the node's operation stream entirely.
    """

    start: float
    end: float
    node: Optional[int] = None


@dataclass
class TransportConfig:
    """Reliable-transport (ack/timeout/retransmit) parameters.

    The transport engages only when the plan is non-empty.  Each
    logical message is sent as physical copies: an unacknowledged copy
    is retransmitted after ``timeout_cycles`` (multiplied by
    ``backoff_factor`` per retry); after ``1 + max_retries`` attempts
    the sender falls back once to degraded routing (a path avoiding
    currently-suspect links) with a fresh budget, and only then raises
    :class:`~repro.faults.transport.DeliveryFailed`.
    """

    enabled: bool = True
    timeout_cycles: float = 20_000.0
    backoff_factor: float = 2.0
    max_retries: int = 4
    degraded_routing: bool = True


@dataclass
class FaultPlan:
    """A complete, serializable fault-injection schedule."""

    name: str = ""
    seed: int = 0
    link_faults: list[LinkFault] = field(default_factory=list)
    link_down: list[DownWindow] = field(default_factory=list)
    nic_stalls: list[NodeWindow] = field(default_factory=list)
    node_pauses: list[NodeWindow] = field(default_factory=list)
    transport: TransportConfig = field(default_factory=TransportConfig)

    # -- validation --------------------------------------------------------

    def validate(self) -> "FaultPlan":
        """Raise :class:`~repro.config.ConfigError` on a bad plan."""
        for rule in self.link_faults:
            for label, p in (("drop_prob", rule.drop_prob),
                             ("corrupt_prob", rule.corrupt_prob)):
                if not 0.0 <= p <= 1.0:
                    raise ConfigError(f"link fault {label} {p} not in [0, 1]")
            if rule.drop_prob + rule.corrupt_prob > 1.0:
                raise ConfigError(
                    f"link fault drop_prob + corrupt_prob "
                    f"{rule.drop_prob + rule.corrupt_prob} exceeds 1.0")
        for w in self.link_down:
            if w.start < 0 or w.end < w.start:
                raise ConfigError(
                    f"down window [{w.start}, {w.end}) is not a valid "
                    f"non-negative interval")
        for w in (*self.nic_stalls, *self.node_pauses):
            if w.start < 0 or w.end < w.start:
                raise ConfigError(
                    f"node window [{w.start}, {w.end}) is not a valid "
                    f"non-negative interval")
        t = self.transport
        if t.timeout_cycles <= 0:
            raise ConfigError(
                f"transport timeout_cycles must be > 0, got "
                f"{t.timeout_cycles}")
        if t.backoff_factor < 1.0:
            raise ConfigError(
                f"transport backoff_factor must be >= 1.0, got "
                f"{t.backoff_factor}")
        if t.max_retries < 0:
            raise ConfigError(
                f"transport max_retries must be >= 0, got {t.max_retries}")
        return self

    def is_empty(self) -> bool:
        """True when the plan injects nothing (no fault has any effect).

        An empty plan is behaviourally identical to no plan at all —
        :func:`as_fault_plan` normalizes it to ``None`` so the model
        takes the exact fault-free code path (the differential harness
        asserts bit-identical output).
        """
        if any(r.drop_prob > 0.0 or r.corrupt_prob > 0.0
               for r in self.link_faults):
            return False
        return not any(w.end > w.start for w in
                       (*self.link_down, *self.nic_stalls,
                        *self.node_pauses))

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "link_faults": [asdict(r) for r in self.link_faults],
            "link_down": [asdict(w) for w in self.link_down],
            "nic_stalls": [asdict(w) for w in self.nic_stalls],
            "node_pauses": [asdict(w) for w in self.node_pauses],
            "transport": asdict(self.transport),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        known = {"name", "seed", "link_faults", "link_down", "nic_stalls",
                 "node_pauses", "transport"}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown fault-plan field(s): {sorted(unknown)}")
        return cls(
            name=data.get("name", ""),
            seed=int(data.get("seed", 0)),
            link_faults=[LinkFault(**r)
                         for r in data.get("link_faults", [])],
            link_down=[DownWindow(**w) for w in data.get("link_down", [])],
            nic_stalls=[NodeWindow(**w)
                        for w in data.get("nic_stalls", [])],
            node_pauses=[NodeWindow(**w)
                         for w in data.get("node_pauses", [])],
            transport=TransportConfig(**data.get("transport", {})),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read fault plan {path}: {exc}") \
                from None
        return cls.from_json(text)

    def digest(self) -> str:
        """Stable content hash of the plan's *behaviour*.

        ``name`` is a display label and excluded, so relabelling a plan
        does not invalidate cached sweep rows keyed on this digest.
        """
        payload = {k: v for k, v in self.to_dict().items() if k != "name"}
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    # -- derivation ---------------------------------------------------------

    def scaled(self, factor: float, name: str = "") -> "FaultPlan":
        """A copy with drop/corrupt probabilities scaled by ``factor``
        — the natural fault-severity sweep axis:
        ``sweep.run(runner, faults=[plan.scaled(f) for f in (0, 1, 2)])``.

        The pair is clamped *jointly*: ``drop_prob`` saturates at 1.0
        first and ``corrupt_prob`` takes at most the remainder, so every
        rung keeps ``drop_prob + corrupt_prob <= 1.0`` (the one-draw
        outcome partition :class:`LinkFault` documents and
        :meth:`validate` enforces) while ``drop_prob`` stays monotone in
        ``factor`` — raising severity can only turn deliveries into
        drops, never the reverse.

        ``factor == 0`` is the fault-free baseline rung: *all* fault
        content (windows included) is cleared, so the plan normalizes to
        ``None`` via :func:`as_fault_plan` and the rung takes the seed
        code path bit-for-bit, sharing its cache key with fault-free
        runs.
        """
        if factor < 0:
            raise ConfigError(f"scale factor must be >= 0, got {factor}")
        plan = copy.deepcopy(self)
        if factor == 0:
            plan.link_faults = []
            plan.link_down = []
            plan.nic_stalls = []
            plan.node_pauses = []
        for rule in plan.link_faults:
            rule.drop_prob = min(1.0, rule.drop_prob * factor)
            rule.corrupt_prob = min(1.0 - rule.drop_prob,
                                    rule.corrupt_prob * factor)
        plan.name = name or (f"{self.name or 'plan'}x{factor:g}")
        return plan


def as_fault_plan(faults: Any) -> Optional[FaultPlan]:
    """Normalize a ``faults=`` argument to a validated plan or ``None``.

    Accepts ``None``, a :class:`FaultPlan`, a plan dict, or a path to a
    plan JSON file.  Empty plans normalize to ``None`` — the model then
    builds no injector at all, keeping fault-free runs on the seed code
    path (zero overhead when off).
    """
    if faults is None:
        return None
    if isinstance(faults, FaultPlan):
        plan = faults
    elif isinstance(faults, dict):
        plan = FaultPlan.from_dict(faults)
    elif isinstance(faults, (str, Path)):
        plan = FaultPlan.load(faults)
    else:
        raise ConfigError(
            f"cannot interpret {type(faults).__name__} as a fault plan "
            f"(expected FaultPlan, dict, path, or None)")
    plan.validate()
    return None if plan.is_empty() else plan
