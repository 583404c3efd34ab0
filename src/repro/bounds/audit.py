"""Post-hoc bound audit of a ``ResultCache`` directory.

Every sweep row the parallel runner caches carries the full machine
config (``machine_config`` meta) and the workload id that produced it.
For rows whose workload id is reconstructible (a stochastic sweep
job's id, whose one home is :func:`repro.tracegen.sweep_workload_id`
and its reader :func:`~repro.tracegen.traces_from_workload_id` --
generation is seeded, so the exact trace set is recoverable), the audit
recomputes the static bound for the row's machine and cross-checks the cached
``total_cycles`` against it: any historical row below its own critical
path (PB001) is a latent kernel/model bug or a corrupted cache, caught
without golden files.  Rows that cannot be audited — fault-injected
metrics, foreign workload ids, rows predating the ``machine_config``
meta — are skipped with a recorded reason, never silently.

The audit is embarrassingly parallel (one row at a time) and
deterministic: rows are processed in sorted-key order,
:func:`repro.parallel.run_sharded` maps them over the shared
:class:`~repro.parallel.WorkerPool` and returns results in item order,
and every computed quantity is pure arithmetic — the JSON output is
byte-identical for any worker count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..config import MachineConfig
from ..diagnostics import Diagnostic, Report, reports_to_dict
from ..parallel.cache import row_entry
from ..store import Store
from ..tracegen import traces_from_workload_id
from .analyzer import compute_bounds
from .passes import DEFAULT_GAP_THRESHOLD, cross_check

__all__ = ["audit_cache", "AuditResult"]

#: Metric keys that mark a row as fault-injected: dropped traffic makes
#: fewer bytes cross the links than the static analysis routes, so the
#: bounds do not apply.
_FAULT_METRIC_KEYS = ("dropped", "retransmissions", "delivery_failed")


def _audit_entry(key: str, store: Store,
                 gap_threshold: Optional[float] = DEFAULT_GAP_THRESHOLD
                 ) -> Dict[str, Any]:
    """Audit one cache entry (module-level: picklable)."""
    row: Dict[str, Any] = {"key": key, "status": "skipped",
                           "diagnostics": []}
    entry = store.get(key, row_entry)
    if entry is None:
        row["reason"] = "unreadable cache entry"
        return row
    metrics = entry["metrics"]
    if "total_cycles" not in metrics:
        row["reason"] = "no total_cycles metric"
        return row
    if any(k in metrics for k in _FAULT_METRIC_KEYS):
        row["reason"] = "fault-injected row (bounds assume lossless links)"
        return row
    machine_dict = entry.get("machine_config")
    if not isinstance(machine_dict, dict):
        row["reason"] = "no machine_config meta (row predates bound audit)"
        return row
    workload_id = entry.get("workload_id")
    if not isinstance(workload_id, str):
        row["reason"] = "no workload_id meta"
        return row
    try:
        machine = MachineConfig.from_dict(machine_dict)
        machine.validate()
    except Exception as exc:  # noqa: BLE001 - any bad config skips
        row["reason"] = f"unusable machine_config ({exc})"
        return row
    traces = traces_from_workload_id(workload_id, machine.n_nodes)
    if traces is None:
        row["reason"] = f"workload id {workload_id!r} is not reconstructible"
        return row
    subject = f"cache:{key[:12]}"
    report = compute_bounds(machine, traces, subject=subject)
    diags = cross_check(report, float(metrics["total_cycles"]),
                        subject=subject,
                        location=f"machine {machine.name}",
                        gap_threshold=gap_threshold)
    row.update({
        "status": "checked",
        "machine": machine.name,
        "workload_id": workload_id,
        "simulated_cycles": float(metrics["total_cycles"]),
        "cycle_lower_bound": report.cycle_lower_bound,
        "critical_path_cycles": report.critical_path_cycles,
        "diagnostics": [d.to_dict() for d in diags],
    })
    return row


@dataclass
class AuditResult:
    """Outcome of one cache audit (row order = sorted entry keys)."""

    cache_dir: str
    rows: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def n_checked(self) -> int:
        return sum(1 for r in self.rows if r["status"] == "checked")

    @property
    def n_skipped(self) -> int:
        return sum(1 for r in self.rows if r["status"] == "skipped")

    @property
    def diagnostics(self) -> List[Diagnostic]:
        return [Diagnostic.from_dict(d)
                for r in self.rows for d in r["diagnostics"]]

    @property
    def ok(self) -> bool:
        from ..diagnostics import Severity
        return not any(d.severity is Severity.ERROR
                       for d in self.diagnostics)

    def reports(self) -> List[Report]:
        """One report per audited row (skipped rows have none)."""
        out = []
        for r in self.rows:
            if r["status"] != "checked":
                continue
            report = Report(subject=f"cache:{r['key'][:12]}")
            report.extend(Diagnostic.from_dict(d)
                          for d in r["diagnostics"])
            out.append(report)
        return out

    def to_dict(self) -> Dict[str, Any]:
        """The shared check/lint JSON schema plus an ``audit`` block."""
        return reports_to_dict(self.reports(), audit={
            "rows": len(self.rows),
            "checked": self.n_checked,
            "skipped": self.n_skipped,
            "skips": [{"key": r["key"], "reason": r.get("reason", "")}
                      for r in self.rows if r["status"] == "skipped"],
        })

    def format(self) -> str:
        lines = [f"audited {len(self.rows)} cache row(s): "
                 f"{self.n_checked} checked, {self.n_skipped} skipped"]
        for r in self.rows:
            if r["status"] == "skipped":
                lines.append(f"  skip {r['key'][:12]}  {r.get('reason', '')}")
        diags = self.diagnostics
        for d in diags:
            lines.append("  " + d.format())
        if not diags:
            lines.append("  all checked rows within bounds")
        return "\n".join(lines)


def audit_cache(cache_dir: str, workers: int = 1,
                gap_threshold: Optional[float] = DEFAULT_GAP_THRESHOLD
                ) -> AuditResult:
    """Cross-check every row of a :class:`ResultCache` directory."""
    from ..parallel.pool import run_sharded
    root = Path(cache_dir).expanduser()
    if not root.is_dir():
        raise FileNotFoundError(f"no cache directory at {root}")
    store = Store(root)
    fn = functools.partial(_audit_entry, store=store,
                           gap_threshold=gap_threshold)
    rows = run_sharded(fn, store.keys(), workers=workers)
    return AuditResult(cache_dir=str(root), rows=rows)
