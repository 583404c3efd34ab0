"""Kernel determinism sanitizer (``KD`` rules).

The Pearl kernel breaks same-time ties with a global monotone sequence
number, so a given program always replays identically.  But a schedule
whose *outcome* depends on that tie-break is fragile: reordering two
model statements, or running the same model on a kernel with a
different tie-break rule, changes the result.  The
:class:`DeterminismSanitizer` is an opt-in
:class:`~repro.pearl.observer.Observer` (``sim.observer =
DeterminismSanitizer()``) that records same-timestamp conflicting
operations:

* ``KD001`` — two or more ``acquire`` requests on one resource at the
  same instant where at least one had to queue: the grant order is
  decided purely by tie-breaking.
* ``KD002`` — two or more sends (or two or more receives) on one
  channel at the same instant: their FIFO order is decided purely by
  tie-breaking.

Each finding names the simulation time and the contending processes;
repeats of the same (object, processes) cluster at later instants are
deduplicated into the first finding's occurrence count rather than
re-reported.  Findings are warnings, never errors — tie-break-sensitive
schedules are legal, just worth knowing about when chasing
reproducibility.  :mod:`repro.verify` upgrades them to verdicts
(``KV0xx``) by actually exploring the alternative orderings; the
:meth:`DeterminismSanitizer.clusters` accessor is its hand-off point.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..pearl.observer import Observer
from .diagnostics import Diagnostic, Report, Severity

__all__ = ["ContentionCluster", "DeterminismSanitizer"]


@dataclass
class ContentionCluster:
    """One deduplicated same-time contention site.

    ``procs`` lists the contending process names in operation order of
    the first occurrence; ``count`` is how many instants exhibited the
    same (object, processes) contention, ``time``/``last_time`` the
    first and last of them.
    """

    rule: str                    # "KD001" | "KD002"
    obj: str                     # resource or channel name
    kind: str                    # "acquire" | "send" | "recv"
    time: float                  # first occurrence
    procs: tuple[str, ...]       # contending process names
    count: int = 1               # instants deduplicated into this cluster
    last_time: float = 0.0       # last occurrence (set on creation)


class DeterminismSanitizer(Observer):
    """Records same-timestamp conflicting resource/channel operations.

    Resources and channels call :meth:`resource_acquire` /
    :meth:`channel` on every operation (cheap: one dict update).
    Conflicts are evaluated lazily whenever simulated time advances, so
    memory stays bounded by the widest single instant plus one
    :class:`ContentionCluster` per distinct contention site.  Call
    :meth:`finish` (or :meth:`report`) after the run to flush the final
    instant.
    """

    def __init__(self, max_findings: int = 100) -> None:
        self.max_findings = max_findings
        self.diagnostics: list[Diagnostic] = []
        self.suppressed = 0
        self.deduplicated = 0        # repeat occurrences folded into clusters
        self._time: float | None = None
        #: resource name -> [requests, queued] this instant
        self._resources: dict[str, list[int]] = {}
        #: resource name -> contending process names this instant
        self._resource_procs: dict[str, list[str]] = {}
        #: (channel name, "send" | "recv") -> process names this instant
        self._channels: dict[tuple[str, str], list[str]] = {}
        #: (rule, obj, kind, sorted procs) -> cluster, insertion-ordered
        self._clusters: dict[tuple[str, str, str, tuple[str, ...]],
                             ContentionCluster] = {}

    # -- observer calls (hot path) ---------------------------------------

    def resource_acquire(self, ts: float, name: str, granted: bool,
                         in_use: int, process: str) -> None:
        """One ``acquire`` on resource ``name``; ``granted`` if immediate."""
        if ts != self._time:
            self._flush()
            self._time = ts
        entry = self._resources.get(name)
        if entry is None:
            entry = self._resources[name] = [0, 0]
            self._resource_procs[name] = []
        entry[0] += 1
        if not granted:
            entry[1] += 1
        self._resource_procs[name].append(process or "?")

    def channel(self, ts: float, name: str, kind: str, process: str) -> None:
        """One ``send`` or ``recv`` on channel ``name``."""
        if ts != self._time:
            self._flush()
            self._time = ts
        key = (name, kind)
        procs = self._channels.get(key)
        if procs is None:
            procs = self._channels[key] = []
        procs.append(process or "?")

    # -- conflict evaluation --------------------------------------------

    def _emit(self, diag: Diagnostic) -> None:
        if len(self.diagnostics) < self.max_findings:
            self.diagnostics.append(diag)
        else:
            self.suppressed += 1

    def _cluster(self, rule: str, obj: str, kind: str, t: float,
                 procs: tuple[str, ...]) -> ContentionCluster | None:
        """Register one contention instant; returns the cluster if it is
        new (i.e. a diagnostic should be emitted), else ``None``."""
        key = (rule, obj, kind, tuple(sorted(set(procs))))
        cluster = self._clusters.get(key)
        if cluster is not None:
            cluster.count += 1
            cluster.last_time = t
            self.deduplicated += 1
            return None
        cluster = ContentionCluster(rule=rule, obj=obj, kind=kind,
                                    time=t, procs=procs, last_time=t)
        self._clusters[key] = cluster
        return cluster

    def _flush(self) -> None:
        t = self._time
        if t is None:
            return
        for name, (requests, queued) in self._resources.items():
            if requests >= 2 and queued >= 1:
                procs = tuple(self._resource_procs[name])
                if self._cluster("KD001", name, "acquire", t, procs) is None:
                    continue
                self._emit(Diagnostic(
                    rule="KD001", severity=Severity.WARNING,
                    message=f"{requests} acquire(s) on resource {name!r} "
                            f"at t={t:g} by {', '.join(procs)} with "
                            f"{queued} queued: grant order depends on "
                            f"event tie-breaking",
                    subject="determinism", location=f"t={t:g}",
                    hint="stagger the requests or make the arbitration "
                         "policy explicit in the model"))
        for (name, kind), chan_procs in self._channels.items():
            if len(chan_procs) >= 2:
                procs = tuple(chan_procs)
                if self._cluster("KD002", name, kind, t, procs) is None:
                    continue
                self._emit(Diagnostic(
                    rule="KD002", severity=Severity.WARNING,
                    message=f"{len(procs)} {kind}(s) on channel {name!r} "
                            f"at t={t:g} by {', '.join(procs)}: their "
                            f"FIFO order depends on event tie-breaking",
                    subject="determinism", location=f"t={t:g}"))
        self._resources.clear()
        self._resource_procs.clear()
        self._channels.clear()

    # -- results ---------------------------------------------------------

    def finish(self) -> list[Diagnostic]:
        """Flush the final instant and return all findings."""
        self._flush()
        self._time = None
        return list(self.diagnostics)

    def clusters(self) -> list[ContentionCluster]:
        """All contention clusters observed so far, in discovery order.

        Flushes the pending instant first.  This is the hand-off to
        :mod:`repro.verify`: each cluster is a candidate choice point
        whose process orderings the explorer permutes.
        """
        self._flush()
        self._time = None
        return list(self._clusters.values())

    def report(self, subject: str = "determinism") -> Report:
        """All findings as a :class:`Report` (never failing: warnings only)."""
        report = Report(subject=subject)
        report.extend(self.finish())
        repeated = [c for c in self._clusters.values() if c.count > 1]
        if repeated:
            worst = sorted(repeated, key=lambda c: -c.count)[:3]
            detail = "; ".join(
                f"{c.obj!r} x{c.count} (t={c.time:g}..{c.last_time:g})"
                for c in worst)
            report.add(Diagnostic(
                rule="KD001" if any(c.rule == "KD001" for c in repeated)
                     else "KD002",
                severity=Severity.NOTE,
                message=f"{self.deduplicated} repeat occurrence(s) across "
                        f"{len(repeated)} cluster(s) deduplicated: {detail}",
                subject=subject))
        if self.suppressed:
            report.add(Diagnostic(
                rule="KD001", severity=Severity.NOTE,
                message=f"{self.suppressed} further finding(s) suppressed "
                        f"(max_findings={self.max_findings})",
                subject=subject))
        return report
