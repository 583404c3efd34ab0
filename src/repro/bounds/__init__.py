"""Static performance bounds — the workbench's analytic floor.

The cheapest abstraction level of all: no simulation, just the
operation traces, the machine description and the topology/routing
geometry, reduced to certified lower bounds (critical path, per-link
traffic demand, LogP-style per-message-class latency/bandwidth).  See
:mod:`repro.bounds.analyzer` for the soundness argument per quantity
and :mod:`repro.bounds.passes` for the PB0xx rule family that turns
the bounds into ``repro check`` diagnostics and a simulation
cross-check oracle.

Entry points: :func:`compute_bounds` / :meth:`Workbench.bound`
(one workload), :func:`check_bounds` (its ``PB`` diagnostics),
:func:`audit_cache` (every cached sweep row), ``repro bound`` (CLI for
both).
"""

from .analyzer import compute_bounds
from .audit import AuditResult, audit_cache
from .model import BoundReport, LinkLoad, MessageClassBound, NodeBound
from .passes import (
    BOUNDS_PASSES,
    PerformanceBoundPass,
    check_bounds,
    cross_check,
    static_diagnostics,
)

__all__ = [
    "compute_bounds",
    "BoundReport",
    "LinkLoad",
    "MessageClassBound",
    "NodeBound",
    "BOUNDS_PASSES",
    "PerformanceBoundPass",
    "check_bounds",
    "static_diagnostics",
    "cross_check",
    "audit_cache",
    "AuditResult",
]
