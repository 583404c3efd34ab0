"""PB0xx rules: surface static bounds as ``repro check`` diagnostics.

Two entry points share the rule family:

* :class:`PerformanceBoundPass` (``BOUNDS_PASSES``) is a standard
  check pass over a ``(machine, traces)`` context — purely static, it
  can only emit **PB002** (a link whose serialization demand alone
  exceeds the task-graph critical path: the workload is statically
  link-limited, the topology/routing under-provisioned for it).

* :func:`cross_check` is the simulation oracle: given a
  :class:`~repro.bounds.model.BoundReport` and a simulated cycle
  count, it emits **PB001** (simulated cycles *below* the certified
  lower bound — a correctness bug in the kernel or a model, never a
  fast machine) and **PB003** (simulated cycles more than
  ``gap_threshold`` times the bound — informational: the hardware is
  mostly waiting, the design point wastes capacity).

Adaptive (``random_minimal``) routing makes link loads expectations
rather than certainties, so both PB001 and PB002 degrade to warnings
when ``report.routing_exact`` is unset; likewise PB001 when the
dependence pass did not converge (a stalled — deadlocking — workload
has only a partial bound).
"""

from __future__ import annotations

from typing import List, Optional

from ..check import check_machine, check_traces
from ..check.passes import CheckContext, PassManager
from ..config import MachineConfig
from ..diagnostics import Diagnostic, Report, Severity
from ..operations.trace import TraceSet
from .analyzer import compute_bounds
from .model import BoundReport

__all__ = ["PerformanceBoundPass", "BOUNDS_PASSES", "check_bounds",
           "static_diagnostics", "cross_check"]

#: PB003 default: flag rows whose simulated time exceeds this many
#: multiples of the static lower bound.
DEFAULT_GAP_THRESHOLD = 10.0

#: PB001 float slack: simulated and static arithmetic accumulate in
#: different orders, so exact ties need a relative + absolute margin.
_REL_TOL = 1e-9
_ABS_TOL = 1e-6


def static_diagnostics(report: BoundReport,
                       subject: str = "") -> List[Diagnostic]:
    """PB002 findings derivable from the bound report alone."""
    subject = subject or report.subject
    out: List[Diagnostic] = []
    budget = report.critical_path_cycles
    severity = Severity.ERROR if report.routing_exact else Severity.WARNING
    for load in report.overloaded_links(budget):
        out.append(Diagnostic(
            rule="PB002", severity=severity,
            message=(f"link {load.key} statically loaded beyond capacity: "
                     f"moving its {load.bytes:.0f} wire bytes needs "
                     f"{load.demand_cycles:.1f} cycles, but the task-graph "
                     f"critical path is only {budget:.1f}"),
            subject=subject, location=f"link {load.key}",
            hint="the workload is link-limited: raise link_bandwidth, use "
                 "a higher-capacity topology, or spread the traffic "
                 "(routing/placement)"))
    return out


def cross_check(report: BoundReport, total_cycles: float,
                subject: str = "", location: str = "",
                gap_threshold: Optional[float] = DEFAULT_GAP_THRESHOLD
                ) -> List[Diagnostic]:
    """PB001/PB003: judge one simulated cycle count against its bounds."""
    subject = subject or report.subject
    out: List[Diagnostic] = []
    bound = report.cycle_lower_bound
    slack = bound * (1.0 - _REL_TOL) - _ABS_TOL
    if total_cycles < slack:
        exact = report.routing_exact and report.converged
        out.append(Diagnostic(
            rule="PB001",
            severity=Severity.ERROR if exact else Severity.WARNING,
            message=(f"simulated {total_cycles:.1f} cycles is below the "
                     f"static lower bound {bound:.1f} (critical path "
                     f"{report.critical_path_cycles:.1f}, max link demand "
                     f"{report.max_link_demand_cycles:.1f})"),
            subject=subject, location=location,
            hint="a correct simulation cannot beat the contention-free "
                 "critical path: suspect the kernel, a model change, or a "
                 "corrupted cache row"))
    elif (gap_threshold is not None and bound > 0.0
            and total_cycles > bound * gap_threshold):
        out.append(Diagnostic(
            rule="PB003", severity=Severity.NOTE,
            message=(f"simulated {total_cycles:.1f} cycles is "
                     f"{total_cycles / bound:.1f}x the static lower bound "
                     f"{bound:.1f}"),
            subject=subject, location=location,
            hint="large bound-to-simulated gaps mean the machine is mostly "
                 "waiting (contention or imbalance); the design point "
                 "likely wastes hardware"))
    return out


class PerformanceBoundPass:
    """Static PB002 analysis of a ``(machine, traces)`` pair."""

    name = "perf-bounds"
    rules = ("PB002",)
    gating = False

    def run(self, ctx: CheckContext) -> List[Diagnostic]:
        if ctx.machine is None or ctx.traces is None:
            return []
        if ctx.has_error():
            # Broken machine/trace artifacts make the geometry (routing,
            # peer ids) meaningless; earlier families own those findings.
            return []
        report = compute_bounds(ctx.machine, ctx.traces,
                                subject=ctx.subject)
        return static_diagnostics(report, subject=ctx.subject)


BOUNDS_PASSES: tuple = (PerformanceBoundPass(),)


def check_bounds(machine: MachineConfig, traces: TraceSet,
                 subject: Optional[str] = None) -> Report:
    """Run the static bound pipeline (``PB`` rules) on one workload.

    The machine and trace pipelines run first as a silent pre-flight:
    their findings are *not* repeated in the returned report (those
    families belong to :func:`~repro.check.check_machine` and
    :func:`~repro.check.check_traces`), but any error among them
    suppresses the bound analysis, whose geometry they would
    invalidate.
    """
    if subject is None:
        subject = f"bounds:{machine.name}"
    ctx = CheckContext(subject=subject, machine=machine, traces=traces,
                       n_nodes=machine.n_nodes)
    ctx.prior.extend(check_machine(machine, subject=subject))
    ctx.prior.extend(check_traces(traces, n_nodes=machine.n_nodes,
                                  subject=subject))
    return PassManager(BOUNDS_PASSES).run(ctx)
