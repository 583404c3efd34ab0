"""``repro lint`` — source-level analysis of simulation model code.

Where the rest of ``repro check`` validates *artifacts* (traces,
configs, descriptions), this package parses the *Python source* of
model and application files into ASTs, builds per-generator-function
control-flow graphs, and runs dataflow passes over them.  Three pass
families (see :data:`LINT_PASSES`):

* **determinism hazards** (``PY001``–``PY003``) — unseeded RNGs, wall
  clock reads, set-iteration order feeding event emission — the causes
  the runtime :class:`~repro.check.sanitizer.DeterminismSanitizer` can
  only observe as effects;
* **pearl-API misuse** (``PY010``–``PY013``) — yields of non-events,
  dropped completion events, acquire-without-release paths, negative
  hold durations;
* **process hygiene** (``PY020``–``PY021``) — processes returning
  values, re-yields of possibly completed events.

Infrastructure: inline ``# repro: noqa[PY0xx]`` suppressions, JSON
:class:`~repro.check.lint.baseline.Baseline` files, and an incremental
:class:`~repro.check.lint.cache.LintCache` keyed by file content and
analyzer version.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

from ...diagnostics import Diagnostic, Report, Severity
from ..passes import CheckPass, PassManager
from .baseline import Baseline, fingerprint
from .cache import LintCache, lint_key, lint_rules_version
from .cfg import CFG, CFGNode, build_cfg, node_search_exprs
from .context import LintContext
from .determinism import DeterminismLintPass
from .hygiene import HygieneLintPass
from .pearl_api import PearlApiLintPass
from .source import FunctionInfo, SourceModule, iter_own_nodes, parse_module

__all__ = [
    "Baseline", "CFG", "CFGNode", "DeterminismLintPass", "FileLint",
    "FunctionInfo", "HygieneLintPass", "LINT_PASSES", "LintCache",
    "LintContext", "PearlApiLintPass", "SourceModule", "build_cfg",
    "fingerprint", "iter_lint_targets", "iter_own_nodes", "lint_file",
    "lint_key",
    "lint_paths", "lint_rules_version", "lint_source",
    "node_search_exprs", "parse_module",
]

#: The source-lint pipeline, in rule-id order.
LINT_PASSES: tuple[CheckPass, ...] = (
    DeterminismLintPass(),
    PearlApiLintPass(),
    HygieneLintPass(),
)


@dataclass
class FileLint:
    """One file's lint outcome: the report plus bookkeeping counters."""

    report: Report
    suppressed: int = 0
    cached: bool = False


def lint_source(source: str, path: str = "<string>") -> FileLint:
    """Lint one source string; ``path`` labels the diagnostics."""
    try:
        module = parse_module(source, path)
    except SyntaxError as exc:
        report = Report(subject=path)
        lineno = exc.lineno or 0
        report.add(Diagnostic(
            rule="PY000", severity=Severity.ERROR,
            message=f"source failed to parse: {exc.msg}",
            subject=path, location=f"line {lineno}",
            hint="fix the syntax error; no other rule can run"))
        return FileLint(report=report)
    ctx = LintContext(module)
    report = PassManager(list(LINT_PASSES)).run(ctx)
    return FileLint(report=report, suppressed=ctx.suppressed)


def lint_file(path: Path, cache: Optional[LintCache] = None,
              label: Optional[str] = None) -> FileLint:
    """Lint one file, optionally through an incremental cache.

    Cache entries hold the pre-baseline diagnostics, so changing a
    baseline never forces re-analysis.  ``label`` overrides the
    diagnostic subject (defaults to the path as given).
    """
    subject = label if label is not None else str(path)
    raw = path.read_bytes()
    if cache is None:
        return lint_source(raw.decode("utf-8"), subject)
    key = lint_key(raw)
    hit = cache.get(key)
    if hit is not None:
        report = Report(subject=subject)
        report.extend(hit[0])
        return FileLint(report=report, suppressed=hit[1], cached=True)
    result = lint_source(raw.decode("utf-8"), subject)
    cache.put(key, result.report.diagnostics, result.suppressed)
    return result


def iter_lint_targets(paths: Sequence[Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: set[Path] = set()
    for path in paths:
        if path.is_dir():
            out.update(path.rglob("*.py"))
        else:
            out.add(path)
    return sorted(out)


def lint_paths(paths: Sequence[Path],
               cache: Optional[LintCache] = None,
               baseline: Optional[Baseline] = None
               ) -> tuple[list[FileLint], list[Diagnostic]]:
    """Lint files/directories; return ``(per-file results, new findings)``.

    With a ``baseline``, "new" excludes baselined fingerprints; without
    one every finding is new.  The per-file reports always carry the
    full (unfiltered) diagnostics.
    """
    results = [lint_file(p, cache=cache) for p in iter_lint_targets(paths)]
    all_diags: list[Diagnostic] = []
    for result in results:
        all_diags.extend(result.report.diagnostics)
    if baseline is None:
        return results, all_diags
    new, _known = baseline.split(all_diags)
    return results, new
