"""Process-hygiene lint pass (``PY020``–``PY021``).

Two habits that are legal Python but wrong pearl: a generator that
returns a value while every ``*.process(...)`` registration discards
the Process handle (the kernel stores return values on
``Process.result``, so a dropped handle makes the result unobservable),
and yielding the same event variable twice without rebinding it in
between (a triggered event resumes the process immediately, which
usually means the model silently skips a wait).  PY021 is a may-analysis over the function CFG:
a name is "possibly yielded" on *some* path in, and only an assignment
kills the fact.
"""

from __future__ import annotations

import ast
from typing import Optional

from ...diagnostics import Diagnostic, Severity
from ...pearl.introspect import EVENT_RETURNING_METHODS
from ..passes import CheckContext
from .cfg import CFG, CFGNode, build_cfg
from .context import LintContext
from .source import FunctionInfo, iter_own_nodes

__all__ = ["HygieneLintPass"]


def _yielded_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Yield) and isinstance(node.value, ast.Name):
        return node.value.id
    return None


def _event_bound_names(func: FunctionInfo) -> frozenset[str]:
    """Names ever assigned from an event-returning kernel call."""
    names: set[str] = set()
    for node in iter_own_nodes(func.node):
        value: Optional[ast.expr] = None
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            value, targets = node.value, node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            value, targets = node.value, [node.target]
        elif isinstance(node, ast.NamedExpr):
            value, targets = node.value, [node.target]
        if not (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr in EVENT_RETURNING_METHODS):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return frozenset(names)


def _node_gens_kills(cfg_node: CFGNode) -> tuple[set[str], set[str]]:
    """(names yielded, names rebound) within one CFG node."""
    gens: set[str] = set()
    kills: set[str] = set()
    stmt = cfg_node.stmt
    if stmt is None:
        return gens, kills
    # Statement-level rebindings kill the "possibly yielded" fact.
    if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets: list[ast.expr] = list(stmt.targets) \
            if isinstance(stmt, ast.Assign) else [stmt.target]
        for target in targets:
            for part in ast.walk(target):
                if isinstance(part, ast.Name):
                    kills.add(part.id)
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        for part in ast.walk(stmt.target):
            if isinstance(part, ast.Name):
                kills.add(part.id)
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if item.optional_vars is not None:
                for part in ast.walk(item.optional_vars):
                    if isinstance(part, ast.Name):
                        kills.add(part.id)
    # Yields generate; walrus targets kill.  Only scan the statement's
    # own expressions for simple statements — compound bodies are their
    # own CFG nodes, but a kill in the header (``for ev in ...``) was
    # already collected above.
    if not isinstance(stmt, (ast.If, ast.While, ast.For, ast.AsyncFor,
                             ast.Try, ast.With, ast.AsyncWith,
                             ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
        for part in ast.walk(stmt):
            name = _yielded_name(part)
            if name is not None:
                gens.add(name)
            if isinstance(part, ast.NamedExpr) and \
                    isinstance(part.target, ast.Name):
                kills.add(part.target.id)
    return gens, kills


def _possibly_yielded_in(cfg: CFG) -> list[set[str]]:
    """Fixed point of the may-yielded analysis: for each node, the set
    of names that may already have been yielded when it executes."""
    gens_kills = [_node_gens_kills(n) for n in cfg.nodes]
    preds = cfg.preds()
    in_sets: list[set[str]] = [set() for _ in cfg.nodes]
    out_sets: list[set[str]] = [set() for _ in cfg.nodes]
    changed = True
    while changed:
        changed = False
        for node in cfg.nodes:
            i = node.index
            new_in: set[str] = set()
            for p in preds[i]:
                new_in |= out_sets[p]
            gens, kills = gens_kills[i]
            new_out = (new_in | gens) - kills
            if new_in != in_sets[i] or new_out != out_sets[i]:
                in_sets[i], out_sets[i] = new_in, new_out
                changed = True
    return in_sets


class HygieneLintPass:
    """PY020 process returns a value · PY021 re-yield of a stale event."""

    name = "lint-hygiene"
    rules = ("PY020", "PY021")
    gating = False

    def run(self, ctx: CheckContext) -> list[Diagnostic]:
        assert isinstance(ctx, LintContext)
        found: list[Diagnostic] = []
        for func in ctx.module.functions:
            if not func.is_generator:
                continue
            if func.is_process and not func.process_observed:
                self._returns(ctx, func, found)
            if func.is_pearl:
                self._reyields(ctx, func, found)
        return found

    # -- PY020: process generator returning a value ----------------------

    def _returns(self, ctx: LintContext, func: FunctionInfo,
                 found: list[Diagnostic]) -> None:
        for node in iter_own_nodes(func.node):
            if not (isinstance(node, ast.Return)
                    and node.value is not None
                    and not (isinstance(node.value, ast.Constant)
                             and node.value.value is None)):
                continue
            diag = ctx.lint_diag(
                "PY020", Severity.WARNING,
                f"{func.qualname}() returns a value but every "
                f"`.process(...)` registration discards the Process "
                f"handle; nothing can observe the result",
                node=node, scope=func.qualname,
                hint="keep the handle (`p = sim.process(...)`) and read "
                     "`p.result`, or drop the return value")
            if diag:
                found.append(diag)

    # -- PY021: yielding an event name that may already be consumed ------

    def _reyields(self, ctx: LintContext, func: FunctionInfo,
                  found: list[Diagnostic]) -> None:
        # Only *event-typed* names participate: a name somewhere bound
        # from an event-returning kernel call.  Yielding the same plain
        # number each loop iteration (a hold duration read from config)
        # is normal and must not be flagged.
        event_names = _event_bound_names(func)
        if not event_names:
            return
        # Cheap pre-filter: need at least two `yield <name>` of the
        # same event name before the fixed point is worth computing.
        counts: dict[str, int] = {}
        for node in iter_own_nodes(func.node):
            name = _yielded_name(node)
            if name is not None and name in event_names:
                counts[name] = counts.get(name, 0) + 1
        # A loop can re-reach a single yield site, so a repeated name is
        # sufficient but not necessary; the dataflow handles loops, the
        # pre-filter only skips the obviously clean common case.
        has_loop = any(isinstance(n, (ast.While, ast.For, ast.AsyncFor))
                       for n in iter_own_nodes(func.node))
        if not counts or (max(counts.values()) < 2 and not has_loop):
            return

        cfg = build_cfg(func.node)
        in_sets = _possibly_yielded_in(cfg)
        for cfg_node in cfg.nodes:
            stmt = cfg_node.stmt
            if stmt is None or isinstance(
                    stmt, (ast.If, ast.While, ast.For, ast.AsyncFor,
                           ast.Try, ast.With, ast.AsyncWith,
                           ast.FunctionDef, ast.AsyncFunctionDef,
                           ast.ClassDef)):
                continue
            for part in ast.walk(stmt):
                name = _yielded_name(part)
                if name is None or name not in event_names \
                        or name not in in_sets[cfg_node.index]:
                    continue
                diag = ctx.lint_diag(
                    "PY021", Severity.WARNING,
                    f"{func.qualname}() may yield event `{name}` "
                    f"after it was already yielded; a triggered event "
                    f"resumes immediately instead of waiting",
                    node=part, scope=func.qualname,
                    hint=f"rebind `{name}` to a fresh event before "
                         f"yielding it again")
                if diag:
                    found.append(diag)
        return
