"""SLO reduction — fold campaign rows into pass/fail verdicts.

The campaign runner produces one metric row per rung (uniform schema:
``rung``, generator coordinates, ``total_cycles`` / ``mean_latency`` /
``delivered`` / ``dropped`` / ``retransmissions`` / ``delivery_failed``,
plus ``error`` on captured failures).  This module reduces those rows
against the spec's declared service-level objectives:

``availability``
    At least ``min_fraction`` of the non-baseline rungs delivered every
    message (no captured error, ``delivery_failed == 0``).
``retransmission_budget``
    No rung spent more than ``max_retransmissions`` retransmissions.
``latency_inflation``
    No rung's mean message latency exceeded ``max_factor`` times the
    baseline rung's.
``single_link_survival``
    Every ``single_link_down`` rung delivered all messages within
    ``max_retransmissions`` — "survives any single link down within N
    retransmissions".

Separately, :func:`check_ladder_monotonicity` promotes the metamorphic
drop-probability monotonicity property (PR 5's per-pair test) to a
ladder-wide invariant: within each severity ladder, sorted by factor,
``dropped`` and ``retransmissions`` must be non-decreasing.  A
violation is a *campaign bug or determinism regression*, reported
structurally rather than folded into an SLO.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..config import ConfigError

__all__ = ["SLOVerdict", "evaluate_slos", "check_ladder_monotonicity"]

#: Counters the ladder invariant requires to be non-decreasing in
#: severity (for a fixed seed, raising drop_prob can only turn
#: deliveries into drops — see ``LinkFault``).
_MONOTONE_COLUMNS = ("dropped", "retransmissions")


@dataclass
class SLOVerdict:
    """One evaluated objective: what was asked, what happened."""

    kind: str
    params: dict
    passed: bool
    detail: str
    worst: Optional[dict] = field(default=None)

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "params": dict(self.params),
               "passed": self.passed, "detail": self.detail}
        if self.worst is not None:
            out["worst"] = dict(self.worst)
        return out


def _clean(row: dict) -> bool:
    """A rung that delivered everything: no captured error, no
    exhausted retry budgets."""
    return not row.get("error") and not row.get("delivery_failed", 0)


def _worst(rows: list[dict], column: str) -> Optional[dict]:
    best = None
    for row in rows:
        value = row.get(column)
        if value is None:
            continue
        if best is None or value > best[1]:
            best = (row, value)
    if best is None:
        return None
    return {"rung": best[0].get("rung", "?"), column: best[1]}


def _eval_availability(slo: dict, rows: list[dict],
                       baseline: Optional[dict]) -> SLOVerdict:
    min_fraction = float(slo.get("min_fraction", 1.0))
    faulted = [r for r in rows if r.get("generator") != "baseline"]
    if not faulted:
        return SLOVerdict("availability", slo, False,
                          "no faulted rungs to judge")
    ok = sum(1 for r in faulted if _clean(r))
    fraction = ok / len(faulted)
    failed = [r.get("rung", "?") for r in faulted if not _clean(r)]
    detail = (f"{ok}/{len(faulted)} faulted rungs fully delivered "
              f"({fraction:.2%} vs required {min_fraction:.2%})")
    if failed:
        detail += "; failed: " + ", ".join(str(x) for x in failed)
    return SLOVerdict("availability", slo, fraction >= min_fraction,
                      detail)


def _eval_retransmission_budget(slo: dict, rows: list[dict],
                                baseline: Optional[dict]) -> SLOVerdict:
    budget = slo.get("max_retransmissions")
    if budget is None:
        raise ConfigError(
            "retransmission_budget SLO requires max_retransmissions")
    worst = _worst(rows, "retransmissions")
    if worst is None:
        return SLOVerdict("retransmission_budget", slo, False,
                          "no rung reported retransmissions")
    passed = worst["retransmissions"] <= budget
    detail = (f"worst rung {worst['rung']!r} used "
              f"{worst['retransmissions']} retransmissions "
              f"(budget {budget})")
    return SLOVerdict("retransmission_budget", slo, passed, detail, worst)


def _eval_latency_inflation(slo: dict, rows: list[dict],
                            baseline: Optional[dict]) -> SLOVerdict:
    max_factor = slo.get("max_factor")
    if max_factor is None:
        raise ConfigError("latency_inflation SLO requires max_factor")
    if baseline is None or not baseline.get("mean_latency"):
        return SLOVerdict("latency_inflation", slo, False,
                          "no baseline latency to compare against")
    ref = baseline["mean_latency"]
    worst = None
    for row in rows:
        if row.get("generator") == "baseline":
            continue
        lat = row.get("mean_latency")
        if not lat:
            continue
        factor = lat / ref
        if worst is None or factor > worst[1]:
            worst = (row, factor)
    if worst is None:
        return SLOVerdict("latency_inflation", slo, False,
                          "no faulted rung reported latency")
    row, factor = worst
    detail = (f"worst rung {row.get('rung', '?')!r} inflated mean "
              f"latency {factor:.3g}x over baseline "
              f"(limit {max_factor}x)")
    return SLOVerdict(
        "latency_inflation", slo, factor <= max_factor, detail,
        {"rung": row.get("rung", "?"), "inflation": factor})


def _eval_single_link_survival(slo: dict, rows: list[dict],
                               baseline: Optional[dict]) -> SLOVerdict:
    budget = slo.get("max_retransmissions")
    if budget is None:
        raise ConfigError(
            "single_link_survival SLO requires max_retransmissions")
    pack = [r for r in rows if r.get("generator") == "single_link_down"]
    if not pack:
        return SLOVerdict("single_link_survival", slo, False,
                          "campaign has no single_link_down rungs")
    bad = [r for r in pack
           if not _clean(r) or r.get("retransmissions", 0) > budget]
    worst = _worst(pack, "retransmissions")
    if bad:
        names = ", ".join(str(r.get("rung", "?")) for r in bad)
        detail = (f"{len(bad)}/{len(pack)} single-link-down rungs "
                  f"violated the budget ({budget}): {names}")
        return SLOVerdict("single_link_survival", slo, False, detail,
                          worst)
    detail = (f"all {len(pack)} single-link-down rungs delivered within "
              f"{budget} retransmissions")
    return SLOVerdict("single_link_survival", slo, True, detail, worst)


_EVALUATORS = {
    "availability": _eval_availability,
    "retransmission_budget": _eval_retransmission_budget,
    "latency_inflation": _eval_latency_inflation,
    "single_link_survival": _eval_single_link_survival,
}


def evaluate_slos(slos: list[dict], rows: list[dict]) -> list[SLOVerdict]:
    """Evaluate every declared SLO against the campaign rows."""
    baseline = next(
        (r for r in rows if r.get("generator") == "baseline"), None)
    verdicts = []
    for slo in slos:
        kind = slo.get("kind")
        evaluator = _EVALUATORS.get(kind)
        if evaluator is None:
            raise ConfigError(f"unknown SLO kind {kind!r}")
        verdicts.append(evaluator(slo, rows, baseline))
    return verdicts


def check_ladder_monotonicity(rows: list[dict]) -> list[dict]:
    """Ladder-wide promotion of the drop-prob monotonicity property.

    Groups severity-ladder rows by ladder name, orders each ladder by
    severity factor, and requires ``dropped`` and ``retransmissions``
    to be non-decreasing.  Returns structured violation records (empty
    list = invariant holds); rows with a captured ``error`` or missing
    counters are skipped rather than blamed.
    """
    ladders: dict[str, list[dict]] = {}
    for row in rows:
        if row.get("generator") != "severity_ladder":
            continue
        if row.get("error") is not None and row.get("error") != "":
            continue
        ladders.setdefault(str(row.get("ladder", "")), []).append(row)
    violations = []
    for name, group in sorted(ladders.items()):
        group.sort(key=lambda r: r.get("severity", 0.0))
        for column in _MONOTONE_COLUMNS:
            prev = None
            for row in group:
                value = row.get(column)
                if value is None:
                    continue
                if prev is not None and value < prev[1]:
                    violations.append({
                        "ladder": name,
                        "column": column,
                        "rung": row.get("rung", "?"),
                        "severity": row.get("severity"),
                        "value": value,
                        "prev_rung": prev[0].get("rung", "?"),
                        "prev_severity": prev[0].get("severity"),
                        "prev_value": prev[1],
                        "detail": (
                            f"{column} fell from {prev[1]} at severity "
                            f"{prev[0].get('severity')} to {value} at "
                            f"severity {row.get('severity')} in ladder "
                            f"{name!r}"),
                    })
                prev = (row, value)
    return violations
