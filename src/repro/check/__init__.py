"""``repro check`` — the workbench's static analyzer.

Multi-pass linting of the three artifact kinds a simulation consumes —
communication traces, machine configs, stochastic application
descriptions — plus an opt-in kernel determinism sanitizer.  A sweep
that would burn hours on a doomed variant is rejected here in
milliseconds.

Facade functions (one per artifact kind):

* :func:`check_traces` — structure, count matching, and static deadlock
  prediction over a :class:`~repro.operations.trace.TraceSet`;
* :func:`check_machine` — contract, topology reachability, routing
  validity, parameter consistency of a
  :class:`~repro.core.config.MachineConfig`;
* :func:`check_description` — stochastic-description linting of a
  :class:`~repro.tracegen.descriptions.StochasticAppDescription`;
* :func:`check_bounds` — static performance-bound analysis (``PB``
  rules) of a ``(machine, traces)`` pair via :mod:`repro.bounds`.

Each returns a :class:`Report` of :class:`Diagnostic` records (rule ids
``TR001``..., ``MC001``..., ``AD001``...; see :data:`RULES`).
:func:`ensure_ok` turns a failing report into a :class:`CheckError` for
call sites that want an exception (``Sweep.run`` pre-flight).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .description_passes import DESCRIPTION_PASSES
from .diagnostics import (
    RULE_FAMILIES,
    RULES,
    Diagnostic,
    Report,
    Severity,
    reports_to_dict,
    rule_family,
)
from .lint import (
    LINT_PASSES,
    Baseline,
    FileLint,
    LintCache,
    lint_file,
    lint_paths,
    lint_source,
)
from .machine_passes import MACHINE_PASSES, routing_memo
from .passes import CheckContext, CheckPass, PassManager
from .sanitizer import ContentionCluster, DeterminismSanitizer
from .trace_passes import TRACE_PASSES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.config import MachineConfig
    from ..operations.trace import TraceSet
    from ..tracegen.descriptions import StochasticAppDescription

__all__ = [
    "Baseline", "CheckContext", "CheckError", "CheckPass",
    "ContentionCluster", "DESCRIPTION_PASSES", "Diagnostic",
    "DeterminismSanitizer",
    "FileLint", "LINT_PASSES", "LintCache", "MACHINE_PASSES",
    "PassManager", "RULES", "RULE_FAMILIES", "Report", "Severity",
    "TRACE_PASSES", "check_bounds", "check_description", "check_machine",
    "check_traces", "ensure_ok", "lint_file", "lint_paths", "lint_source",
    "reports_to_dict", "routing_memo", "rule_family",
]


class CheckError(ValueError):
    """An artifact failed static analysis.

    Carries the full :class:`Report`; the exception message is the
    compact one-line error summary (rule ids + messages), which is what
    sweep error rows and CLI batch output show.
    """

    def __init__(self, report: Report) -> None:
        self.report = report
        super().__init__(report.summary_message())


def check_traces(traces: "TraceSet", n_nodes: Optional[int] = None,
                 subject: str = "trace-set") -> Report:
    """Run the trace pipeline (``TR`` rules) over a trace set."""
    ctx = CheckContext(subject=subject, traces=traces, n_nodes=n_nodes)
    return PassManager(TRACE_PASSES).run(ctx)


def check_machine(machine: "MachineConfig",
                  subject: Optional[str] = None) -> Report:
    """Run the machine pipeline (``MC`` rules) over a config."""
    if subject is None:
        subject = f"machine:{machine.name}"
    ctx = CheckContext(subject=subject, machine=machine)
    return PassManager(MACHINE_PASSES).run(ctx)


def check_description(description: "StochasticAppDescription",
                      n_nodes: Optional[int] = None,
                      subject: Optional[str] = None) -> Report:
    """Run the description pipeline (``AD`` rules) over a description."""
    if subject is None:
        subject = f"description:{description.name}"
    ctx = CheckContext(subject=subject, description=description,
                       n_nodes=n_nodes)
    return PassManager(DESCRIPTION_PASSES).run(ctx)


def check_bounds(machine: "MachineConfig", traces: "TraceSet",
                 subject: Optional[str] = None) -> Report:
    """Run the static bound pipeline (``PB`` rules) on one workload.

    The machine and trace pipelines run first as a silent pre-flight:
    their findings are *not* repeated in the returned report (those
    families belong to :func:`check_machine`/:func:`check_traces`), but
    any error among them suppresses the bound analysis, whose geometry
    they would invalidate.
    """
    from ..bounds.passes import BOUNDS_PASSES
    if subject is None:
        subject = f"bounds:{machine.name}"
    ctx = CheckContext(subject=subject, machine=machine, traces=traces,
                       n_nodes=machine.n_nodes)
    ctx.prior.extend(check_machine(machine, subject=subject))
    ctx.prior.extend(check_traces(traces, n_nodes=machine.n_nodes,
                                  subject=subject))
    return PassManager(BOUNDS_PASSES).run(ctx)


def ensure_ok(report: Report) -> Report:
    """Return ``report`` if clean, else raise :class:`CheckError`."""
    if not report.ok:
        raise CheckError(report)
    return report
