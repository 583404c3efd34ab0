"""``repro verify`` — schedule-space exploration with partial-order reduction.

The :class:`~repro.check.DeterminismSanitizer` *warns* about same-time
contention it happens to observe on one schedule (``KD001``/``KD002``).
This package upgrades those warnings to **verdicts** by actually running
the alternatives: a model is executed under a controllable tie-break
scheduler (the ``tie_break`` slot of :class:`repro.pearl.Simulator`) and
the orderings of each same-timestamp event cluster are enumerated.

Dynamic partial-order reduction keeps that tractable: only clusters
whose events touch a *shared* resource or channel (exactly what the
sanitizer records) are permuted — independent same-time events commute,
so their orderings are never explored.  ``mode="naive"`` disables the
reduction (permute every multi-candidate dispatch burst) and exists to
measure what DPOR saves.

Each cluster ends in one of four verdicts (``KV`` rules):

* ``KV001`` **confirmed race** — two schedules yield different final
  results; the finding carries a minimal two-schedule counterexample
  diff (the flattened result paths that changed).
* ``KV002`` **proven benign** — every alternative ordering reproduces
  the baseline result exactly.
* ``KV003`` **reachable deadlock** — some ordering drains the event
  list with processes still blocked (invisible to the static ``TR005``
  pass for execution-driven workloads).
* ``KV004`` **budget-truncated** — the exploration budget ran out; the
  unexplored frontier is reported, never silently dropped.

A :class:`VerifyResult` also emits a **certificate** — a digest of the
explored schedule space — which :class:`repro.parallel.ResultCache` can
fold into result keys and the golden harness can pin across kernels.
"""

from __future__ import annotations

from .explorer import Outcome, ScheduleExplorer, VerifyError, run_schedule
from .result import (
    ClusterVerdict,
    VerifyResult,
    canonical_digest,
    flatten_summary,
    summary_diff,
)
from .schedule import (
    Perturbation,
    PreferenceOrder,
    RecordingOrder,
    SeedOrder,
    target_name,
)
from .targets import (
    VERIFY_APPS,
    MasterWorkerVerifyTarget,
    TraceVerifyTarget,
    app_verify_target,
)

__all__ = [
    "ClusterVerdict", "MasterWorkerVerifyTarget", "Outcome",
    "Perturbation", "PreferenceOrder", "RecordingOrder",
    "ScheduleExplorer", "SeedOrder", "TraceVerifyTarget", "VERIFY_APPS",
    "VerifyError", "VerifyResult", "app_verify_target",
    "canonical_digest", "flatten_summary", "run_schedule",
    "summary_diff", "target_name",
]
