"""Verdicts, counterexamples and certificates of a verification run."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Optional

from ..diagnostics import Diagnostic, Report, Severity
from .schedule import Perturbation

__all__ = ["ClusterVerdict", "VerifyResult", "canonical_digest",
           "flatten_summary", "summary_diff"]


def canonical_digest(value: Any) -> str:
    """sha256 hex digest over canonical JSON (sorted keys, no spaces)."""
    payload = json.dumps(value, sort_keys=True, separators=(",", ":"),
                         default=repr)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _flatten_into(value: Any, prefix: str, out: dict[str, Any]) -> None:
    if isinstance(value, dict):
        for key in sorted(value, key=str):
            _flatten_into(value[key],
                          f"{prefix}.{key}" if prefix else str(key), out)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _flatten_into(item, f"{prefix}[{i}]", out)
    elif isinstance(value, (bool, int, float, str)) or value is None:
        out[prefix or "value"] = value
    else:
        # Foreign scalars (numpy integers, Fractions, ...): coerce to a
        # stable primitive so fingerprints compare across processes.
        try:
            out[prefix or "value"] = float(value)
        except (TypeError, ValueError):
            out[prefix or "value"] = repr(value)


def flatten_summary(value: Any) -> dict[str, Any]:
    """Flatten a nested result summary to ``{"a.b[2].c": leaf}``.

    The flat path map is what fingerprints hash and what counterexample
    diffs are computed over — two schedules differ exactly where their
    flat maps differ.
    """
    out: dict[str, Any] = {}
    _flatten_into(value, "", out)
    return out


def summary_diff(baseline: dict[str, Any], witness: dict[str, Any],
                 limit: int = 8) -> list[dict[str, Any]]:
    """The minimal two-schedule counterexample: paths whose values differ."""
    diffs: list[dict[str, Any]] = []
    for path in sorted(set(baseline) | set(witness)):
        a = baseline.get(path, "<absent>")
        b = witness.get(path, "<absent>")
        if a != b:
            diffs.append({"path": path, "baseline": a, "witness": b})
    if len(diffs) > limit:
        extra = len(diffs) - limit
        diffs = diffs[:limit]
        diffs.append({"path": "...", "baseline":
                      f"{extra} more differing value(s)", "witness": ""})
    return diffs


@dataclass
class ClusterVerdict:
    """The explorer's verdict for one contention cluster.

    ``verdict`` is ``"race"``, ``"deadlock"``, ``"benign"`` or
    ``"truncated"``; ``witness`` is the perturbation that exposed a race
    or deadlock, ``counterexample`` the differing result paths.
    """

    rule: str                    # originating rule (KD001/KD002/BURST)
    obj: str                     # resource / channel / burst site
    kind: str                    # "acquire" | "send" | "recv" | "dispatch"
    time: float                  # instant the representative site occurred
    procs: tuple[str, ...]       # contending target names (representative)
    verdict: str
    planned: int                 # alternative orderings planned
    explored: int                # alternative orderings actually run
    instances: int = 1           # structurally identical sites in class
    sampled: int = 1             # sites whose orderings were planned
    fingerprints: tuple[str, ...] = ()
    witness: Optional[Perturbation] = None
    deadlock: tuple[str, ...] = ()
    counterexample: list[dict[str, Any]] = field(default_factory=list)

    def site(self) -> str:
        return f"{self.obj} at t={self.time:g}"

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "rule": self.rule, "obj": self.obj, "kind": self.kind,
            "time": self.time, "procs": list(self.procs),
            "verdict": self.verdict, "planned": self.planned,
            "explored": self.explored, "instances": self.instances,
            "sampled": self.sampled,
            "fingerprints": sorted(self.fingerprints),
        }
        if self.witness is not None:
            out["witness"] = self.witness.to_dict()
        if self.deadlock:
            out["deadlock"] = list(self.deadlock)
        if self.counterexample:
            out["counterexample"] = list(self.counterexample)
        return out


@dataclass
class VerifyResult:
    """Everything one :meth:`ScheduleExplorer.explore` call established."""

    mode: str                          # "dpor" | "naive"
    budget: int                        # schedule budget (baseline included)
    baseline_fingerprint: str
    verdicts: list[ClusterVerdict]
    schedules_planned: int             # baseline + all planned orderings
    schedules_explored: int            # schedules actually executed
    skipped: int                       # orderings mooted by early verdicts
    frontier: list[Perturbation]       # planned but unexplored orderings

    def _by_verdict(self, verdict: str) -> list[ClusterVerdict]:
        return [v for v in self.verdicts if v.verdict == verdict]

    @property
    def races(self) -> list[ClusterVerdict]:
        return self._by_verdict("race")

    @property
    def deadlocks(self) -> list[ClusterVerdict]:
        return self._by_verdict("deadlock")

    @property
    def benign(self) -> list[ClusterVerdict]:
        return self._by_verdict("benign")

    @property
    def truncated(self) -> list[ClusterVerdict]:
        return self._by_verdict("truncated")

    @property
    def ok(self) -> bool:
        """Schedule-independent as far as explored: no race, no deadlock."""
        return not self.races and not self.deadlocks

    @property
    def certificate(self) -> str:
        """Digest of the explored schedule space.

        Stable across kernels, worker counts and dict ordering: it
        hashes the baseline fingerprint, every cluster's identity,
        verdict and observed outcome fingerprints, and the exploration
        counts.  :class:`repro.parallel.ResultCache` folds it into
        result keys; the golden harness pins it across kernels.
        """
        payload = {
            "format": "repro-verify-certificate/v1",
            "mode": self.mode,
            "budget": self.budget,
            "baseline": self.baseline_fingerprint,
            "planned": self.schedules_planned,
            "explored": self.schedules_explored,
            "frontier": len(self.frontier),
            "clusters": sorted(
                ({"rule": v.rule, "obj": v.obj, "kind": v.kind,
                  "time": v.time, "procs": list(v.procs),
                  "verdict": v.verdict, "instances": v.instances,
                  "sampled": v.sampled,
                  "fingerprints": sorted(v.fingerprints)}
                 for v in self.verdicts),
                key=canonical_digest),
        }
        return canonical_digest(payload)

    # -- reporting -------------------------------------------------------

    def report(self, subject: str = "verify") -> Report:
        """All verdicts as ``KV0xx`` diagnostics (races/deadlocks fail)."""
        report = Report(subject=subject)
        for v in self.verdicts:
            if v.verdict == "race":
                assert v.witness is not None
                example = ""
                if v.counterexample:
                    first = v.counterexample[0]
                    example = (f"; e.g. {first['path']}: "
                               f"{first['baseline']} -> {first['witness']}")
                report.add(Diagnostic(
                    rule="KV001", severity=Severity.ERROR,
                    message=f"confirmed race on {v.site()}: "
                            f"{v.witness.describe()} changes "
                            f"{len(v.counterexample)} result value(s)"
                            f"{example}",
                    subject=subject, location=v.site(),
                    hint="the outcome depends on same-time tie-breaking; "
                         "stagger the contending operations or make the "
                         "arbitration explicit in the model"))
            elif v.verdict == "deadlock":
                assert v.witness is not None
                report.add(Diagnostic(
                    rule="KV003", severity=Severity.ERROR,
                    message=f"reachable deadlock on {v.site()}: "
                            f"{v.witness.describe()} leaves "
                            f"{', '.join(v.deadlock)} blocked forever",
                    subject=subject, location=v.site(),
                    hint="an alternative same-time ordering reaches a "
                         "wait cycle; impose an ordering or add the "
                         "missing completion path"))
            elif v.verdict == "benign":
                sites = (f" ({v.sampled} of {v.instances} sites sampled)"
                         if v.instances > 1 else "")
                report.add(Diagnostic(
                    rule="KV002", severity=Severity.NOTE,
                    message=f"cluster on {v.site()} "
                            f"({', '.join(v.procs)}) proven benign: all "
                            f"{v.explored} alternative ordering(s) "
                            f"reproduce the baseline result{sites}",
                    subject=subject, location=v.site()))
            else:
                report.add(Diagnostic(
                    rule="KV004", severity=Severity.WARNING,
                    message=f"cluster on {v.site()} undecided: explored "
                            f"{v.explored}/{v.planned} ordering(s) before "
                            f"the budget ran out",
                    subject=subject, location=v.site(),
                    hint="re-run with a larger --budget to finish the "
                         "cluster"))
        if self.frontier:
            report.add(Diagnostic(
                rule="KV004", severity=Severity.NOTE,
                message=f"schedule frontier: {len(self.frontier)} planned "
                        f"ordering(s) unexplored within budget "
                        f"{self.budget}; first: "
                        f"{self.frontier[0].describe()}",
                subject=subject))
        return report

    def to_dict(self) -> dict[str, Any]:
        return {
            "mode": self.mode,
            "budget": self.budget,
            "ok": self.ok,
            "certificate": self.certificate,
            "baseline_fingerprint": self.baseline_fingerprint,
            "schedules_planned": self.schedules_planned,
            "schedules_explored": self.schedules_explored,
            "skipped": self.skipped,
            "frontier": [p.to_dict() for p in self.frontier],
            "clusters": [v.to_dict() for v in self.verdicts],
        }
