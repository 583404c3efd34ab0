"""The pass manager: how analyzer passes compose into a check.

A *pass* looks at one artifact (a trace set, a machine config, an
application description) through a :class:`CheckContext` and returns
:class:`~repro.diagnostics.Diagnostic` records.  The
:class:`PassManager` runs a pipeline of passes in order, collecting
everything into a single :class:`~repro.diagnostics.Report`; a
pass marked ``gating`` stops the pipeline when it produced errors (e.g.
there is no point routing over a topology whose config is malformed).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Protocol, Sequence

from ..diagnostics import Diagnostic, Report

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import MachineConfig
    from ..operations.trace import TraceSet
    from ..tracegen.descriptions import StochasticAppDescription

__all__ = ["CheckContext", "CheckPass", "PassManager"]


class CheckContext:
    """Everything a pass may look at, plus the findings so far.

    Only the fields relevant to the artifact under analysis are set;
    passes must tolerate the others being ``None``.  ``prior`` exposes
    diagnostics already emitted by earlier passes in the pipeline, so a
    pass can skip analysis that earlier findings invalidate (the
    deadlock pass does not interpret traces with ghost peers).
    """

    def __init__(self, *, subject: str = "",
                 traces: Optional["TraceSet"] = None,
                 machine: Optional["MachineConfig"] = None,
                 description: Optional["StochasticAppDescription"] = None,
                 n_nodes: Optional[int] = None) -> None:
        self.subject = subject
        self.traces = traces
        self.machine = machine
        self.description = description
        self.n_nodes = n_nodes
        self.prior: list[Diagnostic] = []

    def has_error(self, rule_prefix: str = "") -> bool:
        """True if an earlier pass emitted an error (matching ``prefix``)."""
        from ..diagnostics import Severity
        return any(d.severity is Severity.ERROR
                   and d.rule.startswith(rule_prefix) for d in self.prior)

    def diag(self, rule: str, severity: Any, message: str,
             location: str = "", hint: str = "") -> Diagnostic:
        """Build a diagnostic bound to this context's subject."""
        return Diagnostic(rule=rule, severity=severity, message=message,
                          subject=self.subject, location=location, hint=hint)


class CheckPass(Protocol):
    """One analyzer pass.

    ``rules`` declares which rule ids the pass may emit (documentation
    and test discoverability); ``gating`` stops the pipeline after this
    pass if it reported an error.
    """

    name: str
    rules: tuple[str, ...]
    gating: bool

    def run(self, ctx: CheckContext) -> list[Diagnostic]:
        """Analyze the context; return findings (possibly empty)."""
        ...  # pragma: no cover - protocol


class PassManager:
    """Run a pipeline of passes over one artifact."""

    def __init__(self, passes: Sequence[CheckPass]) -> None:
        self.passes = list(passes)

    def run(self, ctx: CheckContext) -> Report:
        report = Report(subject=ctx.subject)
        for p in self.passes:
            found = p.run(ctx)
            report.extend(found)
            ctx.prior.extend(found)
            if p.gating and any(d.severity.value >= 2 for d in found):
                break
        return report
