"""The lint-specific :class:`CheckContext` subclass.

Adds the parsed :class:`~repro.check.lint.source.SourceModule` and a
diagnostic builder that applies inline ``# repro: noqa[...]``
suppressions at emission time (suppressed findings are counted, never
collected — they exist in no report, no baseline, no cache entry).
"""

from __future__ import annotations

import ast
from typing import Any, Optional

from ...diagnostics import Diagnostic
from ..passes import CheckContext
from .source import SourceModule

__all__ = ["LintContext"]


class LintContext(CheckContext):
    """Context for source-lint passes over one parsed module."""

    def __init__(self, module: SourceModule) -> None:
        super().__init__(subject=module.path)
        self.module = module
        self.suppressed = 0

    def lint_diag(self, rule: str, severity: Any, message: str,
                  node: Optional[ast.AST] = None, scope: str = "",
                  hint: str = "") -> Optional[Diagnostic]:
        """Build a diagnostic pinned to ``node``'s line, or ``None`` if
        an inline suppression covers it.

        ``message`` must stay line-number-free — baselines fingerprint
        ``(rule, subject, message)`` so findings survive unrelated
        edits that only shift lines; the line (and enclosing ``scope``)
        live in ``location``.
        """
        lineno = getattr(node, "lineno", 0) if node is not None else 0
        if lineno and self.module.is_suppressed(rule, lineno):
            self.suppressed += 1
            return None
        where = f"{scope}:" if scope else ""
        return self.diag(rule, severity, message,
                         location=f"{where}line {lineno}", hint=hint)
