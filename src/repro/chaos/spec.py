"""Declarative chaos-campaign specs — fault-plan *families* as data.

A :class:`CampaignSpec` is the JSON-serializable description of one
chaos campaign: a shared *base* fault plan (seed + transport budget +
optional baseline probabilities), a list of *generators* that expand
into a family of named :class:`~repro.faults.FaultPlan` rungs against a
concrete topology, and a list of *SLO* declarations the reduction layer
(:mod:`repro.chaos.slo`) folds the resulting rows into.

Generators (the scenario families from the ROADMAP item):

``severity_ladder``
    ``base.scaled(f)`` for each factor — the drop/corrupt severity
    axis.  Factor 0 is the fault-free baseline rung (bit-identical to a
    fault-free run, shared cache key).
``single_link_down``
    One rung per topology link, taking that link (both directions by
    default) down for a window — the exhaustive "survives any single
    link down" pack.
``correlated_links``
    One rung per declared link *group*, all links in a group failing
    together with the given probabilities (shared-conduit cuts,
    switch-neighborhood failures).
``rolling_outage``
    A whole-network outage window rolled forward in time, one rung per
    step — "does it matter *when* the blip happens".

Every campaign implicitly starts with a ``baseline`` rung (no plan at
all) so the SLO layer always has a fault-free reference row.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from ..config import ConfigError
from ..faults import DownWindow, FaultPlan, LinkFault, as_fault_plan
from ..topology import Topology

__all__ = ["CampaignSpec", "Rung", "as_campaign_spec",
           "GENERATOR_KINDS", "SLO_KINDS"]

GENERATOR_KINDS = ("severity_ladder", "single_link_down",
                   "correlated_links", "rolling_outage")
SLO_KINDS = ("availability", "retransmission_budget", "latency_inflation",
             "single_link_survival")


@dataclass
class Rung:
    """One campaign scenario: a label, a normalized plan, coordinates.

    ``plan`` is ``None`` for effect-free rungs (the baseline, a
    severity-0 ladder rung): those take the seed fault-free code path
    and share the fault-free cache key.  ``coords`` are the row
    coordinates the runner merges into the metric row (generator kind,
    severity factor, link name, ...).
    """

    label: str
    plan: Optional[FaultPlan]
    coords: dict = field(default_factory=dict)


def _require(spec: dict, kind: str, key: str) -> Any:
    if key not in spec:
        raise ConfigError(f"{kind} generator requires {key!r}")
    return spec[key]


@dataclass
class CampaignSpec:
    """A complete, serializable chaos-campaign description."""

    name: str = ""
    base: Optional[FaultPlan] = None
    generators: list[dict] = field(default_factory=list)
    slos: list[dict] = field(default_factory=list)

    # -- validation ---------------------------------------------------------

    def validate(self) -> "CampaignSpec":
        """Raise :class:`~repro.config.ConfigError` on a bad spec."""
        if not self.generators:
            raise ConfigError("campaign spec has no generators")
        if self.base is not None:
            self.base.validate()
        for gen in self.generators:
            kind = gen.get("kind")
            if kind not in GENERATOR_KINDS:
                raise ConfigError(
                    f"unknown generator kind {kind!r}; choose from: "
                    + ", ".join(GENERATOR_KINDS))
            self._validate_generator(gen)
        kinds = [g["kind"] for g in self.generators]
        for slo in self.slos:
            kind = slo.get("kind")
            if kind not in SLO_KINDS:
                raise ConfigError(
                    f"unknown SLO kind {kind!r}; choose from: "
                    + ", ".join(SLO_KINDS))
            if (kind == "single_link_survival"
                    and "single_link_down" not in kinds):
                raise ConfigError(
                    "single_link_survival SLO requires a "
                    "single_link_down generator")
        return self

    def _validate_generator(self, gen: dict) -> None:
        kind = gen["kind"]
        if kind == "severity_ladder":
            factors = _require(gen, kind, "factors")
            if not factors:
                raise ConfigError("severity_ladder has no factors")
            for f in factors:
                if not isinstance(f, (int, float)) or f < 0:
                    raise ConfigError(
                        f"severity factor {f!r} must be a number >= 0")
            if self.base is None or not self.base.link_faults:
                raise ConfigError(
                    "severity_ladder needs a base plan with link_faults "
                    "to scale")
        elif kind == "single_link_down":
            end = _require(gen, kind, "end")
            start = gen.get("start", 0.0)
            if start < 0 or end <= start:
                raise ConfigError(
                    f"single_link_down window [{start}, {end}) is not a "
                    f"valid non-empty interval")
        elif kind == "correlated_links":
            groups = _require(gen, kind, "groups")
            if not groups:
                raise ConfigError("correlated_links has no groups")
            for group in groups:
                if not group:
                    raise ConfigError("correlated_links group is empty")
                for link in group:
                    if (not isinstance(link, (list, tuple))
                            or len(link) != 2):
                        raise ConfigError(
                            f"correlated link {link!r} must be a "
                            f"[src, dst] pair")
            p = gen.get("drop_prob", 0.0)
            c = gen.get("corrupt_prob", 0.0)
            if not (0.0 <= p <= 1.0 and 0.0 <= c <= 1.0 and p + c <= 1.0):
                raise ConfigError(
                    f"correlated_links probabilities ({p}, {c}) must be "
                    f"in [0, 1] with sum <= 1")
            if p == 0.0 and c == 0.0:
                raise ConfigError(
                    "correlated_links needs drop_prob or corrupt_prob")
        elif kind == "rolling_outage":
            window = _require(gen, kind, "window")
            count = _require(gen, kind, "count")
            step = gen.get("step", window)
            if window <= 0 or step <= 0 or count < 1:
                raise ConfigError(
                    f"rolling_outage needs window > 0, step > 0, "
                    f"count >= 1 (got {window}, {step}, {count})")

    # -- plan-family expansion ---------------------------------------------

    def _carrier(self) -> FaultPlan:
        """A fresh plan inheriting the base's seed and transport budget
        but none of its fault content — the chassis every non-ladder
        generator mounts its own faults on."""
        plan = FaultPlan()
        if self.base is not None:
            plan.seed = self.base.seed
            plan.transport = copy.deepcopy(self.base.transport)
        return plan

    def rungs(self, topo: Topology) -> list[Rung]:
        """Expand the generator list against ``topo`` into the ordered
        campaign rung family, ``baseline`` first.

        Every plan is validated and normalized through
        :func:`~repro.faults.as_fault_plan`, so effect-free rungs carry
        ``plan=None`` and run on the seed fault-free path.
        """
        self.validate()
        out = [Rung("baseline", None, {"generator": "baseline"})]
        seen = {"baseline"}
        for gi, gen in enumerate(self.generators):
            for rung in self._expand(gi, gen, topo):
                if rung.label in seen:
                    raise ConfigError(
                        f"duplicate campaign rung label {rung.label!r}")
                seen.add(rung.label)
                rung.plan = as_fault_plan(rung.plan)
                out.append(rung)
        return out

    def _expand(self, gi: int, gen: dict, topo: Topology) -> list[Rung]:
        kind = gen["kind"]
        if kind == "severity_ladder":
            assert self.base is not None
            ladder = gen.get("name", f"ladder{gi}")
            return [
                Rung(f"{ladder}x{f:g}",
                     self.base.scaled(f, name=f"{ladder}x{f:g}"),
                     {"generator": kind, "ladder": ladder, "severity": f})
                for f in gen["factors"]]
        if kind == "single_link_down":
            start = gen.get("start", 0.0)
            end = gen["end"]
            both = gen.get("bidirectional", True)
            links = sorted(topo.links())
            if both:
                links = [(u, v) for u, v in links if u < v]
            rungs = []
            for u, v in links:
                plan = self._carrier()
                plan.link_down = [DownWindow(start, end, src=u, dst=v)]
                if both:
                    plan.link_down.append(DownWindow(start, end,
                                                     src=v, dst=u))
                arrow = "-" if both else ">"
                label = f"link{u}{arrow}{v}-down"
                plan.name = label
                rungs.append(Rung(label, plan,
                                  {"generator": kind,
                                   "link": f"{u}{arrow}{v}"}))
            return rungs
        if kind == "correlated_links":
            p = gen.get("drop_prob", 0.0)
            c = gen.get("corrupt_prob", 0.0)
            rungs = []
            for group_i, group in enumerate(gen["groups"]):
                plan = self._carrier()
                plan.link_faults = [
                    LinkFault(drop_prob=p, corrupt_prob=c,
                              src=int(u), dst=int(v))
                    for u, v in group]
                label = gen.get("name", f"corr{gi}") + f".g{group_i}"
                plan.name = label
                links = ",".join(f"{int(u)}>{int(v)}" for u, v in group)
                rungs.append(Rung(label, plan,
                                  {"generator": kind, "links": links}))
            return rungs
        if kind == "rolling_outage":
            window = gen["window"]
            step = gen.get("step", window)
            rungs = []
            for i in range(gen["count"]):
                start = i * step
                plan = self._carrier()
                plan.link_down = [DownWindow(start, start + window)]
                label = gen.get("name", f"roll{gi}") + f".t{start:g}"
                plan.name = label
                rungs.append(Rung(label, plan,
                                  {"generator": kind,
                                   "window_start": start}))
            return rungs
        raise ConfigError(f"unknown generator kind {kind!r}")

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "base": self.base.to_dict() if self.base is not None else None,
            "generators": copy.deepcopy(self.generators),
            "slos": copy.deepcopy(self.slos),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        known = {"name", "base", "generators", "slos"}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown campaign-spec field(s): {sorted(unknown)}")
        base = data.get("base")
        return cls(
            name=data.get("name", ""),
            base=FaultPlan.from_dict(base) if base is not None else None,
            generators=copy.deepcopy(list(data.get("generators", []))),
            slos=copy.deepcopy(list(data.get("slos", []))),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "CampaignSpec":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(
                f"cannot read campaign spec {path}: {exc}") from None
        return cls.from_json(text)

    def digest(self) -> str:
        """Stable content hash of the campaign's *behaviour* (the
        display ``name`` is excluded, mirroring
        :meth:`~repro.faults.FaultPlan.digest`)."""
        payload = {k: v for k, v in self.to_dict().items() if k != "name"}
        if payload["base"] is not None:
            payload["base"].pop("name", None)
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


def as_campaign_spec(spec: Any) -> CampaignSpec:
    """Normalize a ``campaign=`` argument to a validated spec.

    Accepts a :class:`CampaignSpec`, a spec dict, or a path to a spec
    JSON file (mirroring :func:`~repro.faults.as_fault_plan`).
    """
    if isinstance(spec, CampaignSpec):
        return spec.validate()
    if isinstance(spec, dict):
        return CampaignSpec.from_dict(spec).validate()
    if isinstance(spec, (str, Path)):
        return CampaignSpec.load(spec).validate()
    raise ConfigError(
        f"cannot interpret {type(spec).__name__} as a campaign spec "
        f"(expected CampaignSpec, dict, or path)")
