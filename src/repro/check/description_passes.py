"""Application-description analyzer passes (``AD`` rules).

Stochastic descriptions are small but easy to mis-parameterize: the
dataclass contract only rejects values that make generation *crash*,
not ones that make it *meaningless* (a negative instruction-mix weight
with a positive total yields negative probabilities; branch
probabilities summing past 1 leave the fall-through arc with negative
mass).  These passes lint for the latter class before trace generation.
"""

from __future__ import annotations

import math

from ..diagnostics import Diagnostic, Severity
from .passes import CheckContext

__all__ = ["DescriptionContractPass", "InstructionMixPass",
           "BranchModelPass", "CommunicationShapePass",
           "DESCRIPTION_PASSES"]

_MIX_FIELDS = ("load", "store", "loadc", "add", "sub", "mul", "div",
               "branch", "call", "ret")


class DescriptionContractPass:
    """The dataclass contract: every ``validate()`` rule, as AD001."""

    name = "description-contract"
    rules = ("AD001",)
    gating = True

    def run(self, ctx: CheckContext) -> list[Diagnostic]:
        if ctx.description is None:
            return []
        try:
            ctx.description.validate()
        except ValueError as exc:
            return [ctx.diag("AD001", Severity.ERROR, str(exc),
                             location="validate()")]
        return []


class InstructionMixPass:
    """Per-weight sanity the total-only contract cannot see (AD002)."""

    name = "description-mix"
    rules = ("AD002",)
    gating = False

    def run(self, ctx: CheckContext) -> list[Diagnostic]:
        desc = ctx.description
        if desc is None:
            return []
        out: list[Diagnostic] = []
        for fld in _MIX_FIELDS:
            w = getattr(desc.mix, fld)
            if not math.isfinite(w):
                out.append(ctx.diag(
                    "AD002", Severity.ERROR,
                    f"mix weight {fld} is {w}: not finite",
                    location=f"mix.{fld}"))
            elif w < 0:
                out.append(ctx.diag(
                    "AD002", Severity.ERROR,
                    f"mix weight {fld} is negative ({w}): normalization "
                    f"would assign it negative probability",
                    location=f"mix.{fld}",
                    hint="weights are relative frequencies; use 0 to "
                         "disable an operation class"))
        return out


class BranchModelPass:
    """Loop-model probability mass and reachability (AD003/AD004)."""

    name = "description-branches"
    rules = ("AD003", "AD004")
    gating = False

    def run(self, ctx: CheckContext) -> list[Diagnostic]:
        desc = ctx.description
        if desc is None:
            return []
        out: list[Diagnostic] = []
        mass = desc.loopback_prob + desc.far_jump_prob
        if mass > 1.0:
            out.append(ctx.diag(
                "AD003", Severity.ERROR,
                f"loopback_prob {desc.loopback_prob} + far_jump_prob "
                f"{desc.far_jump_prob} = {mass:g} > 1: the fall-through "
                f"branch would have negative probability",
                location="loopback_prob/far_jump_prob"))
        if desc.loopback_prob >= 1.0 and desc.far_jump_prob <= 0.0 \
                and desc.n_basic_blocks > 1:
            out.append(ctx.diag(
                "AD004", Severity.WARNING,
                f"loopback_prob is 1 with no far jumps: execution never "
                f"leaves the first basic block, so the other "
                f"{desc.n_basic_blocks - 1} block(s) are unreachable",
                location="loopback_prob",
                hint="lower loopback_prob or set n_basic_blocks=1"))
        return out


class CommunicationShapePass:
    """Communication pattern vs node count (AD005)."""

    name = "description-comm"
    rules = ("AD005",)
    gating = False

    def run(self, ctx: CheckContext) -> list[Diagnostic]:
        desc = ctx.description
        if desc is None or ctx.n_nodes is None:
            return []
        n = ctx.n_nodes
        out: list[Diagnostic] = []
        if n < 2:
            out.append(ctx.diag(
                "AD005", Severity.WARNING,
                f"communication rounds need at least 2 nodes, got {n}: "
                f"the generated workload will be compute-only",
                location="n_nodes"))
        elif n % 2 == 1:
            out.append(ctx.diag(
                "AD005", Severity.NOTE,
                f"odd node count {n}: one node idles in every "
                f"pairing round",
                location="n_nodes"))
        return out


#: The standard description pipeline, in execution order.
DESCRIPTION_PASSES: tuple = (DescriptionContractPass(), InstructionMixPass(),
                             BranchModelPass(), CommunicationShapePass())
