"""Campaign execution — the fault-plan family as one sweep job.

A chaos campaign is a design-space sweep with the fault plan as the
axis: :func:`campaign_points` expands a
:class:`~repro.chaos.spec.CampaignSpec` against the machine's topology
into one sweep point per rung — ``(coords, machine, plan)``, the plan a
coordinate of the point — and :func:`run_campaign` runs them as a
single :class:`~repro.parallel.ParallelSweepRunner` job.  Cache lookup,
error capture, progress, crash recovery, cancellation and time budgets
are therefore exactly an ordinary sweep's: plan digests key the result
cache, so a re-run of an unchanged campaign is pure cache hits; the
severity-0 / baseline rungs (plan ``None``) share their key with
ordinary fault-free sweep rows and are simulated once; and a rung that
keeps killing its worker becomes a ``WorkerCrashed: variant ...`` error
row the SLO reduction sees, like any sweep variant.

:meth:`ChaosResult.from_rows` is the pure reduction of the rung rows:
:mod:`repro.chaos.slo` folds them into SLO verdicts plus the
ladder-wide monotonicity invariant check.  The result has deterministic
text and JSON reports (wall times and cache statistics are kept out of
the JSON payload so two runs of the same campaign are byte-identical).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Optional

from ..analysis import format_table
from ..config import MachineConfig
from ..observe import MetricRegistry, Tracer
from ..parallel import ParallelSweepRunner, ResultCache
from ..topology import build_topology
from .slo import SLOVerdict, check_ladder_monotonicity, evaluate_slos
from .spec import CampaignSpec, as_campaign_spec

__all__ = ["AppCampaignRunner", "ChaosResult", "campaign_points",
           "campaign_row", "run_campaign"]

#: report column order — explicit so captured-error rows (which lack
#: the simulation metrics) render against the same header.
_REPORT_COLUMNS = ("rung", "generator", "total_cycles", "mean_latency",
                   "delivered", "dropped", "retransmissions",
                   "delivery_failed")


def campaign_row(result) -> dict:
    """Uniform campaign metrics from a :class:`CommResult`.

    Every rung reports the same columns; fault counters are zero for
    fault-free rungs (baseline, severity 0) rather than absent, so SLO
    reductions and the monotonicity checker never see a ragged schema.
    ``delivered`` counts *logical* messages: the transport's delivery
    count under faults, the engine's otherwise (they coincide when no
    copy is ever retransmitted).
    """
    row = {
        "total_cycles": result.total_cycles,
        "mean_latency": result.message_latency.mean,
        "events": result.events_executed,
        "delivered": result.messages_delivered,
        "dropped": 0,
        "corrupted": 0,
        "retransmissions": 0,
        "delivery_failed": 0,
    }
    summary = result.fault_summary
    if summary is not None:
        transport = summary.get("transport", {})
        row["delivered"] = transport.get("delivered",
                                         result.messages_delivered)
        row["dropped"] = summary.get("dropped", 0)
        row["corrupted"] = summary.get("corrupted", 0)
        row["retransmissions"] = result.retransmissions
        row["delivery_failed"] = result.delivery_failures
    return row


class AppCampaignRunner:
    """Picklable rung runner over a bundled task-level app.

    Calls ``MultiNodeModel(machine, faults=plan).run(app traces)`` and
    reduces the result with :func:`campaign_row` — the ``repro chaos``
    CLI's runner, usable directly from tests and notebooks.  The
    deterministic ``repr`` doubles as the cache workload id.
    """

    def __init__(self, app: str, *, size: int = 1024,
                 repeats: int = 4) -> None:
        from ..apps import task_app
        self.app = task_app(app)
        self.size = size
        self.repeats = repeats

    def _traces(self, n_nodes: int) -> list:
        from ..apps import TASK_APPS
        app = TASK_APPS[self.app]
        return app.build(n_nodes, **{app.size_kw: self.size,
                                     app.repeats_kw: self.repeats})

    def __call__(self, machine: MachineConfig, faults=None) -> dict:
        from ..commmodel import MultiNodeModel
        model = MultiNodeModel(machine, faults=faults)
        result = model.run(list(self._traces(model.n_nodes)))
        return campaign_row(result)

    def __repr__(self) -> str:
        return (f"AppCampaignRunner({self.app!r}, size={self.size}, "
                f"repeats={self.repeats})")


def campaign_points(spec: CampaignSpec, machine: MachineConfig
                    ) -> list[tuple[dict, MachineConfig, Any]]:
    """The campaign's rungs as sweep points, in rung order: the rung
    label and generator coordinates, the machine, the rung's plan."""
    topo = build_topology(machine.network.topology)
    return [({"rung": rung.label, **rung.coords}, machine, rung.plan)
            for rung in spec.rungs(topo)]


@dataclass
class ChaosResult:
    """Everything a chaos campaign produced: rows, verdicts, invariants.

    ``to_dict()``/``to_json()`` are deterministic — wall times and
    cache statistics are excluded so two runs of the same campaign
    serialize byte-identically (``tests/test_chaos.py`` compares them).
    """

    campaign: str
    rows: list[dict]
    verdicts: list[SLOVerdict]
    violations: list[dict]
    cache_stats: Optional[dict] = field(default=None)

    @classmethod
    def from_rows(cls, spec: CampaignSpec, rows: list[dict],
                  cache_stats: Optional[dict] = None) -> "ChaosResult":
        """Reduce a campaign's rung rows (in rung order) to its
        verdicts and invariant violations.  Pure: the served job
        derives its result document from stored rows with it."""
        return cls(campaign=spec.name or "campaign", rows=rows,
                   verdicts=evaluate_slos(spec.slos, rows),
                   violations=check_ladder_monotonicity(rows),
                   cache_stats=cache_stats)

    @property
    def ok(self) -> bool:
        """Campaign verdict: every SLO passed and the ladder
        monotonicity invariant held."""
        return (all(v.passed for v in self.verdicts)
                and not self.violations)

    # -- reports ------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "campaign": self.campaign,
            "ok": self.ok,
            "rungs": len(self.rows),
            "rows": [{k: v for k, v in row.items() if k != "wall_time_s"}
                     for row in self.rows],
            "verdicts": [v.to_dict() for v in self.verdicts],
            "violations": [dict(v) for v in self.violations],
        }

    def to_json(self, indent: int = 2) -> str:
        import json
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def format(self) -> str:
        columns = list(_REPORT_COLUMNS)
        if any("error" in row for row in self.rows):
            columns.append("error")
        if any("wall_time_s" in row for row in self.rows):
            columns.append("wall_time_s")
        lines = [format_table(
            self.rows, columns=columns,
            title=f"chaos campaign {self.campaign!r} "
                  f"({len(self.rows)} rungs):")]
        for v in self.verdicts:
            lines.append(f"  [{'PASS' if v.passed else 'FAIL'}] "
                         f"{v.kind}: {v.detail}")
        if self.violations:
            lines.append(f"  [FAIL] ladder monotonicity: "
                         f"{len(self.violations)} violation(s)")
            for violation in self.violations:
                lines.append(f"    - {violation['detail']}")
        elif any(r.get("generator") == "severity_ladder"
                 for r in self.rows):
            lines.append("  [PASS] ladder monotonicity: dropped/"
                         "retransmissions non-decreasing in severity")
        lines.append(f"campaign verdict: {'PASS' if self.ok else 'FAIL'} "
                     f"({sum(v.passed for v in self.verdicts)}/"
                     f"{len(self.verdicts)} SLOs, "
                     f"{len(self.violations)} invariant violations)")
        return "\n".join(lines)

    # -- observe integration -------------------------------------------------

    def emit_trace(self, tracer: Tracer) -> None:
        """Chrome-trace the campaign onto ``tracer``: one instant per
        rung (rung index as the timestamp — deterministic), counter
        tracks for the headline fault metrics, and an explicit fault
        record per SLO failure / invariant violation."""
        for i, row in enumerate(self.rows):
            ts = float(i)
            args = {c: row.get(c) for c in _REPORT_COLUMNS}
            if "error" in row:
                args["error"] = row["error"]
            tracer.instant("chaos", f"rung:{row.get('rung', i)}", ts,
                           "campaign", args)
            for counter in ("dropped", "retransmissions",
                            "delivery_failed"):
                tracer.counter(ts, f"chaos.{counter}",
                               row.get(counter, 0), cat="chaos")
        base = float(len(self.rows))
        for i, v in enumerate(self.verdicts):
            if not v.passed:
                tracer.instant("faults", "slo_failed", base + i, "campaign",
                               {"kind": v.kind, "detail": v.detail})
        for i, violation in enumerate(self.violations):
            tracer.instant("faults", "monotonicity_violation",
                           base + len(self.verdicts) + i, "campaign",
                           dict(violation))

    def register_metrics(self, registry: MetricRegistry) -> None:
        """Expose the campaign reduction as a ``chaos.campaign`` metric
        source (snapshot-able next to the model's own registries)."""
        def _summary() -> dict:
            return {
                "rungs": len(self.rows),
                "errors": sum(1 for r in self.rows if "error" in r),
                "slos_passed": sum(v.passed for v in self.verdicts),
                "slos_failed": sum(not v.passed for v in self.verdicts),
                "violations": len(self.violations),
                "dropped": sum(r.get("dropped", 0) for r in self.rows),
                "retransmissions": sum(r.get("retransmissions", 0)
                                       for r in self.rows),
                "delivery_failed": sum(r.get("delivery_failed", 0)
                                       for r in self.rows),
                "ok": int(self.ok),
            }
        registry.register("chaos.campaign", _summary)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<ChaosResult {self.campaign!r} rungs={len(self.rows)} "
                f"ok={self.ok}>")


def run_campaign(campaign: Any, machine: MachineConfig, runner: Callable,
                 *, workload_id: Optional[str] = None, workers: int = 1,
                 cache: Optional[ResultCache | str] = None,
                 progress: Optional[Callable[[int, int, dict], None]] = None,
                 timing: bool = False, tracer: Optional[Tracer] = None,
                 registry: Optional[MetricRegistry] = None) -> ChaosResult:
    """Run one chaos campaign end to end.

    ``campaign`` is anything :func:`~repro.chaos.spec.as_campaign_spec`
    accepts (spec object, dict, or JSON path); ``runner`` must be
    picklable and accept ``runner(machine, faults=plan)`` (e.g. an
    :class:`AppCampaignRunner`).  ``workers`` sizes the pool of the one
    sweep job the rungs run as; ``cache`` is a
    :class:`~repro.parallel.ResultCache` or a cache directory path, and
    the job's hit/miss/store counts come back as
    ``result.cache_stats`` — the same at every worker count.
    ``progress(done, total, row)`` follows the sweep contract: cached
    rungs first, during the scan, then executed rungs in rung order.
    """
    spec = as_campaign_spec(campaign)
    if cache is not None:
        # A handle of the campaign's own: its counters are this job's.
        cache = ResultCache(cache.root if isinstance(cache, ResultCache)
                            else cache)
    rows = ParallelSweepRunner(workers=workers, cache=cache).run(
        runner, campaign_points(spec, machine), workload_id=workload_id,
        progress=progress, timing=timing)
    result = ChaosResult.from_rows(
        spec, rows, asdict(cache.stats) if cache is not None else None)
    if tracer is not None:
        result.emit_trace(tracer)
    if registry is not None:
        result.register_metrics(registry)
    return result
