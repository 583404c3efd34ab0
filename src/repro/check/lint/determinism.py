"""Determinism-hazard lint pass (``PY001``–``PY003``).

The workbench's headline guarantee — a simulation is a pure function of
``(machine config, workload, code)`` — dies silently the moment model
code consults an unseeded RNG, the wall clock, or set iteration order.
These are exactly the hazards the runtime ``DeterminismSanitizer``
*cannot* see (it observes schedules, not their causes), which is why
they are caught at the source level before a sweep burns hours.
"""

from __future__ import annotations

import ast
from typing import Optional

from ...diagnostics import Diagnostic, Severity
from ..passes import CheckContext
from .context import LintContext
from .source import iter_own_nodes

__all__ = ["DeterminismLintPass"]

#: RNG factories that are deterministic *when given a seed argument*.
_SEEDED_FACTORIES = frozenset({
    "numpy.random.default_rng", "random.Random",
    "numpy.random.PCG64", "numpy.random.PCG64DXSM",
    "numpy.random.MT19937", "numpy.random.Philox", "numpy.random.SFC64",
    "numpy.random.SeedSequence",
})

#: numpy.random names that are fine regardless of call shape.
_RNG_NEUTRAL = frozenset({
    "numpy.random.Generator",       # wraps an (already seeded) bit gen
    "numpy.random.BitGenerator",
})

_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.clock_gettime", "time.clock_gettime_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Attribute calls in a loop body that count as "event emission".
_EMISSION_ATTRS = frozenset({"send", "receive", "acquire", "trigger",
                             "process"})


def _classify_rng(qualname: str, has_args: bool) -> Optional[str]:
    """A PY001 message for ``qualname()``, or None if it is fine."""
    if qualname in _RNG_NEUTRAL:
        return None
    if qualname in _SEEDED_FACTORIES:
        if has_args:
            return None
        return (f"`{qualname}()` without a seed draws OS entropy; "
                f"two runs will diverge")
    if qualname == "random.SystemRandom" or \
            qualname.startswith("random.SystemRandom."):
        return f"`{qualname}` reads OS entropy and is never reproducible"
    if qualname.startswith("numpy.random."):
        return (f"`{qualname}` uses numpy's hidden global RNG state; "
                f"results depend on call order across the whole process")
    if qualname.startswith("random."):
        return (f"`{qualname}` uses the `random` module's global state; "
                f"results depend on import and call order")
    return None


def _is_unordered_iterable(node: ast.expr) -> Optional[str]:
    """A description of ``node`` if its iteration order is unstable."""
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("set", "frozenset"):
        return f"`{node.func.id}(...)`"
    return None


def _body_emits_events(body: list[ast.stmt]) -> bool:
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return True
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _EMISSION_ATTRS:
                return True
    return False


class DeterminismLintPass:
    """PY001 unseeded RNG · PY002 wall clock · PY003 set-order events."""

    name = "lint-determinism"
    rules = ("PY001", "PY002", "PY003")
    gating = False

    def run(self, ctx: CheckContext) -> list[Diagnostic]:
        assert isinstance(ctx, LintContext)
        module = ctx.module
        found: list[Diagnostic] = []

        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                qualname = module.resolve(node.func)
                if qualname is None:
                    continue
                has_args = bool(node.args or node.keywords)
                rng_message = _classify_rng(qualname, has_args)
                if rng_message is not None:
                    diag = ctx.lint_diag(
                        "PY001", Severity.ERROR, rng_message, node=node,
                        hint="thread a seeded generator from the config "
                             "(np.random.default_rng(seed))")
                    if diag:
                        found.append(diag)
                elif qualname in _WALL_CLOCK:
                    diag = ctx.lint_diag(
                        "PY002", Severity.ERROR,
                        f"`{qualname}()` reads the wall clock; model "
                        f"code must only see simulated time", node=node,
                        hint="use sim.now (or drop the timestamp)")
                    if diag:
                        found.append(diag)

        for func in module.functions:
            if not func.is_pearl:
                continue
            for node in iter_own_nodes(func.node):
                if not isinstance(node, (ast.For, ast.AsyncFor)):
                    continue
                kind = _is_unordered_iterable(node.iter)
                if kind is None or not _body_emits_events(node.body):
                    continue
                diag = ctx.lint_diag(
                    "PY003", Severity.ERROR,
                    f"iteration over {kind} feeds event emission in "
                    f"{func.qualname}(); set order is hash-dependent",
                    node=node, scope=func.qualname,
                    hint="iterate sorted(...) for a stable order")
                if diag:
                    found.append(diag)
        return found
