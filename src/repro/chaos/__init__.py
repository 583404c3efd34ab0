"""``repro.chaos`` — fault-sweep orchestration with SLO verdicts.

The campaign layer over :mod:`repro.faults`: a declarative
:class:`CampaignSpec` expands into a family of fault plans (severity
ladders, exhaustive single-link-down packs, correlated link groups,
rolling outage windows), :func:`run_campaign` executes the family as
one sweep job — the plan a coordinate of each point — over the existing
parallel-sweep/result-cache machinery, and the SLO layer folds the rows
into pass/fail verdicts plus a ladder-wide drop-monotonicity invariant
check.

Entry points: ``Workbench.chaos(campaign, runner)`` and
``repro chaos <app> --campaign spec.json``.
"""

from .runner import AppCampaignRunner, ChaosResult, campaign_row, run_campaign
from .slo import SLOVerdict, check_ladder_monotonicity, evaluate_slos
from .spec import (
    GENERATOR_KINDS,
    SLO_KINDS,
    CampaignSpec,
    Rung,
    as_campaign_spec,
)

__all__ = [
    "AppCampaignRunner", "CampaignSpec", "ChaosResult", "GENERATOR_KINDS",
    "Rung", "SLOVerdict", "SLO_KINDS", "as_campaign_spec", "campaign_row",
    "check_ladder_monotonicity", "evaluate_slos", "run_campaign",
]
