"""Pearl-API misuse lint pass (``PY010``–``PY013``).

Checks how generator process code talks to the kernel: what it yields
(events, delays — nothing else), that blocking calls keep their
completion events, that every ``acquire`` reaches a ``release`` on all
paths to function exit (path-sensitive over the
:mod:`~repro.check.lint.cfg` graph, ``use()``/``try-finally`` aware),
and that literal hold durations are non-negative.  The method-name sets
come from :mod:`repro.pearl.introspect` so the linter tracks the kernel
API by construction.
"""

from __future__ import annotations

import ast
from typing import Optional

from ...diagnostics import Diagnostic, Severity
from ...pearl.introspect import (
    BLOCKING_EVENT_METHODS,
    RELEASE_METHODS,
    SELF_CONTAINED_HOLD_METHODS,
)
from ..passes import CheckContext
from .cfg import CFG, build_cfg, node_search_exprs
from .context import LintContext
from .source import FunctionInfo, iter_own_nodes

__all__ = ["PearlApiLintPass"]

#: Yielding one of these is a statically certain kernel error: the
#: dispatch loop accepts numbers, Events and None, nothing else.
_BAD_YIELD_TYPES = (ast.List, ast.Dict, ast.Set, ast.Tuple, ast.ListComp,
                    ast.DictComp, ast.SetComp, ast.GeneratorExp,
                    ast.Lambda, ast.Compare, ast.BoolOp, ast.JoinedStr)

#: Calls whose literal duration argument must be non-negative.
_DURATION_CALLS = frozenset(SELF_CONTAINED_HOLD_METHODS | {"timeout"})


def _expr_key(node: ast.expr) -> Optional[str]:
    """Dotted key of a Name/Attribute chain (``self.bus``), else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _negative_literal(node: ast.expr) -> bool:
    return (isinstance(node, ast.UnaryOp)
            and isinstance(node.op, ast.USub)
            and isinstance(node.operand, ast.Constant)
            and isinstance(node.operand.value, (int, float))
            and node.operand.value > 0)


def _stmt_releases(stmt: Optional[ast.stmt], base: str) -> bool:
    if stmt is None:
        return False
    for node in node_search_exprs(stmt):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in RELEASE_METHODS \
                and _expr_key(node.func.value) == base:
            return True
    return False


def _leaks_to_exit(cfg: CFG, start: int, base: str) -> bool:
    """True if exit is reachable from ``start`` without releasing
    ``base`` — the path-sensitive half of PY012."""
    stack = list(cfg.nodes[start].succ)
    seen: set[int] = set()
    while stack:
        index = stack.pop()
        if index in seen:
            continue
        seen.add(index)
        if index == cfg.exit.index:
            return True
        if _stmt_releases(cfg.nodes[index].stmt, base):
            continue                # this path is satisfied
        stack.extend(cfg.nodes[index].succ)
    return False


class PearlApiLintPass:
    """PY010 bad yield · PY011 dropped event · PY012 leak · PY013 hold<0."""

    name = "lint-pearl-api"
    rules = ("PY010", "PY011", "PY012", "PY013")
    gating = False

    def run(self, ctx: CheckContext) -> list[Diagnostic]:
        assert isinstance(ctx, LintContext)
        found: list[Diagnostic] = []
        for func in ctx.module.functions:
            if not func.is_pearl:
                continue
            self._yields(ctx, func, found)
            self._dropped_events(ctx, func, found)
            self._durations(ctx, func, found)
            self._leaks(ctx, func, found)
        return found

    # -- PY010 / PY013: what a process may yield -------------------------

    def _yields(self, ctx: LintContext, func: FunctionInfo,
                found: list[Diagnostic]) -> None:
        for node in iter_own_nodes(func.node):
            if not isinstance(node, ast.Yield) or node.value is None:
                continue
            value = node.value
            bad: Optional[str] = None
            if isinstance(value, ast.Constant) and isinstance(
                    value.value, (str, bytes)):
                bad = f"a {type(value.value).__name__} constant"
            elif isinstance(value, _BAD_YIELD_TYPES):
                bad = f"a {type(value).__name__.lower()} expression"
            if bad is not None:
                diag = ctx.lint_diag(
                    "PY010", Severity.ERROR,
                    f"{func.qualname}() yields {bad}; a process may "
                    f"only yield an Event, a delay, or None",
                    node=node, scope=func.qualname,
                    hint="yield the event returned by the kernel API, "
                         "or a non-negative number to hold")
                if diag:
                    found.append(diag)
            elif _negative_literal(value):
                diag = ctx.lint_diag(
                    "PY013", Severity.ERROR,
                    f"{func.qualname}() yields a negative hold "
                    f"duration; the kernel raises SimTimeError at "
                    f"runtime", node=node, scope=func.qualname,
                    hint="hold durations must be >= 0")
                if diag:
                    found.append(diag)

    # -- PY011: blocking call whose event is discarded -------------------

    def _dropped_events(self, ctx: LintContext, func: FunctionInfo,
                        found: list[Diagnostic]) -> None:
        for node in iter_own_nodes(func.node):
            if not (isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Attribute)
                    and node.value.func.attr in BLOCKING_EVENT_METHODS):
                continue
            attr = node.value.func.attr
            diag = ctx.lint_diag(
                "PY011", Severity.ERROR,
                f"{func.qualname}() calls `.{attr}(...)` and discards "
                f"the result; the blocking operation's completion "
                f"event is lost", node=node, scope=func.qualname,
                hint=f"write `yield ....{attr}(...)` (or keep the "
                     f"event and yield it later)")
            if diag:
                found.append(diag)

    # -- PY013 (call form): negative literal durations -------------------

    def _durations(self, ctx: LintContext, func: FunctionInfo,
                   found: list[Diagnostic]) -> None:
        for node in iter_own_nodes(func.node):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _DURATION_CALLS):
                continue
            if any(_negative_literal(arg) for arg in node.args):
                diag = ctx.lint_diag(
                    "PY013", Severity.ERROR,
                    f"{func.qualname}() passes a negative literal "
                    f"duration to `.{node.func.attr}(...)`",
                    node=node, scope=func.qualname,
                    hint="hold durations must be >= 0")
                if diag:
                    found.append(diag)

    # -- PY012: acquire with a release-free path to exit -----------------

    def _leaks(self, ctx: LintContext, func: FunctionInfo,
               found: list[Diagnostic]) -> None:
        acquire_sites: list[tuple[ast.Call, str]] = []
        for node in iter_own_nodes(func.node):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "acquire":
                base = _expr_key(node.func.value)
                if base is not None:
                    acquire_sites.append((node, base))
        if not acquire_sites:
            return

        cfg = build_cfg(func.node)
        call_to_node: dict[int, int] = {}
        for cfg_node in cfg.nodes:
            if cfg_node.stmt is None:
                continue
            for part in node_search_exprs(cfg_node.stmt):
                if isinstance(part, ast.Call):
                    call_to_node[id(part)] = cfg_node.index

        for call, base in acquire_sites:
            start = call_to_node.get(id(call))
            if start is None:
                continue            # header of a construct we skip
            if not _leaks_to_exit(cfg, start, base):
                continue
            diag = ctx.lint_diag(
                "PY012", Severity.ERROR,
                f"{func.qualname}() acquires `{base}` but a path to "
                f"function exit skips `{base}.release()`",
                node=call, scope=func.qualname,
                hint="release in a try/finally, or use the "
                     "self-contained `yield from resource.use(...)`")
            if diag:
                found.append(diag)
