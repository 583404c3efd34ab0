"""The schedule-space exploration engine.

:class:`ScheduleExplorer` runs a model repeatedly under controlled
tie-break schedules and reduces every same-time contention cluster to a
verdict.  The structure is classic stateless model checking:

1. **Baseline** — one run under the seed schedule, with the
   :class:`~repro.check.DeterminismSanitizer` attached; its clusters
   are the initial choice points and its result fingerprint the
   reference.
2. **Plan** — for each cluster, the alternative orderings of its
   contending targets (permutations of the distinct names, identity
   excluded, capped per cluster).  With ``mode="dpor"`` only
   sanitizer-observed clusters — events sharing a resource or channel —
   are planned; independent same-time events commute and are pruned.
   A second reduction folds *structurally identical* clusters into one
   equivalence class: sites whose object and process names differ only
   in indices (``pkt3.0`` vs ``pkt17.1`` on ``link0->2`` vs
   ``link3->1``) arise from the same model code, so the explorer
   permutes a sample of concrete instances per class
   (``samples_per_cluster``) instead of every packet ever sent.
   ``mode="naive"`` permutes every multi-candidate dispatch burst
   instead, which is the unpruned baseline DPOR is measured against.
3. **Explore** — run perturbed schedules (optionally sharded over a
   process pool) until the plan or the budget is exhausted.  A run
   whose fingerprint differs from the baseline decides its cluster as a
   race; a run that deadlocks decides it as a deadlock; clusters whose
   orderings all match are benign.  Newly discovered clusters (reachable
   only under a perturbed schedule) are planned on the fly.

The budget counts *schedules executed*, baseline included; whatever
remains planned but unexplored is reported as the frontier, never
silently dropped.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..check.sanitizer import DeterminismSanitizer
from ..pearl.errors import DeadlockError
from .result import (
    ClusterVerdict,
    VerifyResult,
    canonical_digest,
    flatten_summary,
    summary_diff,
)
from .schedule import Perturbation, PreferenceOrder, RecordingOrder, SeedOrder

__all__ = ["Outcome", "ScheduleExplorer", "VerifyError", "run_schedule"]

#: a verify target: builds a fresh model and returns ``(sim, run)``
#: where ``run()`` executes it and returns a JSON-able result summary.
Factory = Callable[[], tuple[Any, Callable[[], Any]]]

#: cluster signature: (rule, obj, kind, first time, contending names)
Sig = tuple[str, str, str, float, tuple[str, ...]]


class VerifyError(RuntimeError):
    """The baseline run failed, so there is nothing to explore."""


@dataclass
class Outcome:
    """One schedule's observable result (picklable across the pool)."""

    perturbation: Optional[Perturbation]
    fingerprint: str
    summary: dict[str, Any]            # flattened result paths
    deadlock: tuple[str, ...]          # blocked process names, if any
    error: Optional[str]               # "Type: message" of a raised error
    clusters: list[Sig]                # contention observed in this run
    bursts: list[tuple[float, tuple[str, ...]]]   # recorded choice points


def run_schedule(factory: Factory,
                 perturbation: Optional[Perturbation] = None, *,
                 record_bursts: bool = False) -> Outcome:
    """Run one schedule of ``factory``'s model and fingerprint it.

    The model runs with a sanitizer attached (cluster discovery) and a
    tie-break controller: :class:`SeedOrder` (or :class:`RecordingOrder`
    when ``record_bursts``) for the baseline, :class:`PreferenceOrder`
    for a perturbed schedule.  Deadlocks and exceptions are captured
    into the outcome — the deadlock-carrying run *is* the evidence —
    and enter the fingerprint like any other observable.
    """
    sim, run = factory()
    sanitizer = DeterminismSanitizer(max_findings=0)
    sim.observer = sanitizer
    controller: Any
    if perturbation is not None:
        controller = PreferenceOrder(perturbation)
    elif record_bursts:
        controller = RecordingOrder()
    else:
        controller = SeedOrder()
    sim.tie_break = controller
    deadlock: tuple[str, ...] = ()
    error: Optional[str] = None
    value: Any = None
    try:
        value = run()
    except DeadlockError as err:
        deadlock = tuple(err.blocked)
    except Exception as exc:          # noqa: BLE001 - captured by design
        error = f"{type(exc).__name__}: {exc}"
    summary = flatten_summary(value) if value is not None else {}
    fingerprint = canonical_digest({"summary": summary,
                                    "deadlock": list(deadlock),
                                    "error": error})
    sigs: list[Sig] = [(c.rule, c.obj, c.kind, c.time, c.procs)
                       for c in sanitizer.clusters()]
    bursts = list(controller.bursts) if record_bursts else []
    return Outcome(perturbation=perturbation, fingerprint=fingerprint,
                   summary=summary, deadlock=deadlock, error=error,
                   clusters=sigs, bursts=bursts)


def _run_job(job: tuple[Factory, Perturbation]) -> Outcome:
    """Module-level pool task: one perturbed schedule (picklable)."""
    return run_schedule(job[0], job[1])


@dataclass
class _ClusterState:
    """Book-keeping for one cluster class during exploration."""

    sig: Sig                           # representative concrete site
    planned: int
    capped: bool                       # ordering cap hit while planning
    instances: int = 1                 # concrete sites folded into class
    sampled: int = 1                   # instances whose orderings planned
    explored: int = 0
    verdict: Optional[str] = None      # "race" / "deadlock" once decided
    witness: Optional[Perturbation] = None
    deadlock: tuple[str, ...] = ()
    counterexample: list[dict[str, Any]] = field(default_factory=list)
    fingerprints: set[str] = field(default_factory=set)

    @property
    def decided(self) -> bool:
        return self.verdict is not None


_INDEX = re.compile(r"\d+")


def _shape(name: str) -> str:
    """Normalize indices out of a name: ``pkt17.1`` -> ``pkt#.#``."""
    return _INDEX.sub("#", name)


#: cluster-class identity: sites generated by the same model code —
#: same rule/kind, and object/process names equal up to indices —
#: belong to one class; times shift between schedules and are excluded.
def _key_of(sig: Sig) -> tuple[str, str, str, tuple[str, ...]]:
    return (sig[0], _shape(sig[1]), sig[2],
            tuple(sorted({_shape(p) for p in sig[4]})))


class ScheduleExplorer:
    """Systematic same-time schedule exploration with DPOR pruning.

    ``budget`` bounds the total number of schedules executed (baseline
    included); ``max_orders_per_cluster`` bounds the permutations
    planned per cluster (wide clusters fall back to a truncated
    verdict rather than a factorial plan).
    """

    def __init__(self, budget: int = 64, mode: str = "dpor",
                 max_orders_per_cluster: int = 24,
                 samples_per_cluster: int = 3) -> None:
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        if mode not in ("dpor", "naive"):
            raise ValueError(f"mode must be 'dpor' or 'naive', got {mode!r}")
        if max_orders_per_cluster < 1:
            raise ValueError("max_orders_per_cluster must be >= 1")
        if samples_per_cluster < 1:
            raise ValueError("samples_per_cluster must be >= 1")
        self.budget = budget
        self.mode = mode
        self.max_orders_per_cluster = max_orders_per_cluster
        self.samples_per_cluster = samples_per_cluster

    # -- planning --------------------------------------------------------

    def _plan(self, sig: Sig) -> tuple[list[Perturbation], bool]:
        """Alternative orderings for one cluster (identity excluded)."""
        _rule, obj, kind, time, procs = sig
        distinct = list(dict.fromkeys(procs))
        if len(distinct) < 2:
            return [], False
        orders: list[Perturbation] = []
        capped = False
        for perm in itertools.permutations(distinct):
            if list(perm) == distinct:
                continue              # the baseline ordering itself
            if len(orders) >= self.max_orders_per_cluster:
                capped = True
                break
            orders.append(Perturbation(time=time, obj=obj, kind=kind,
                                       order=perm))
        return orders, capped

    def _sigs_of(self, outcome: Outcome) -> list[Sig]:
        """The choice points one run exposes, per the exploration mode."""
        if self.mode == "dpor":
            return list(outcome.clusters)
        sigs: list[Sig] = []
        for time, names in outcome.bursts:
            if len(set(names)) >= 2:
                sigs.append(("BURST", f"burst@t={time:g}", "dispatch",
                             time, names))
        return sigs

    # -- execution -------------------------------------------------------

    def _run_batch(self, factory: Factory, perts: list[Perturbation],
                   workers: int) -> list[Outcome]:
        jobs: list[tuple[Factory, Perturbation]] = [(factory, p)
                                                    for p in perts]
        if workers <= 1 or len(jobs) <= 1:
            return [_run_job(job) for job in jobs]
        from ..parallel.pool import run_sharded
        return run_sharded(_run_job, jobs, workers=workers)

    def explore(self, factory: Factory, workers: int = 1) -> VerifyResult:
        """Explore ``factory``'s schedule space; return the verdicts."""
        baseline = run_schedule(factory,
                                record_bursts=(self.mode == "naive"))
        if baseline.error is not None:
            raise VerifyError(f"baseline run failed: {baseline.error}")
        if baseline.deadlock:
            raise VerifyError("baseline schedule already deadlocks "
                              f"(blocked: {', '.join(baseline.deadlock)}); "
                              "fix the model before exploring alternatives")

        states: dict[tuple[str, str, str, tuple[str, ...]],
                     _ClusterState] = {}
        pending: list[tuple[Any, Perturbation]] = []
        seen_sites: set[Sig] = set()

        def ingest(outcome: Outcome) -> None:
            for sig in self._sigs_of(outcome):
                if sig in seen_sites:
                    continue
                seen_sites.add(sig)
                key = _key_of(sig)
                state = states.get(key)
                if state is None:
                    orders, capped = self._plan(sig)
                    states[key] = _ClusterState(sig=sig,
                                                planned=len(orders),
                                                capped=capped)
                    pending.extend((key, p) for p in orders)
                    continue
                state.instances += 1
                if (state.sampled < self.samples_per_cluster
                        and not state.decided):
                    orders, capped = self._plan(sig)
                    if orders:
                        state.planned += len(orders)
                        state.capped = state.capped or capped
                        state.sampled += 1
                        pending.extend((key, p) for p in orders)

        ingest(baseline)
        explored = 1                  # the baseline run
        skipped = 0
        while pending and explored < self.budget:
            room = self.budget - explored
            batch: list[tuple[Any, Perturbation]] = []
            rest: list[tuple[Any, Perturbation]] = []
            for item in pending:
                if states[item[0]].decided:
                    skipped += 1      # mooted by an earlier verdict
                elif len(batch) < room:
                    batch.append(item)
                else:
                    rest.append(item)
            pending = rest
            if not batch:
                break
            outcomes = self._run_batch(factory, [p for _, p in batch],
                                       workers)
            explored += len(batch)
            for (key, pert), outcome in zip(batch, outcomes):
                state = states[key]
                state.explored += 1
                state.fingerprints.add(outcome.fingerprint)
                if not state.decided:
                    if outcome.deadlock:
                        state.verdict = "deadlock"
                        state.witness = pert
                        state.deadlock = outcome.deadlock
                    elif outcome.fingerprint != baseline.fingerprint:
                        state.verdict = "race"
                        state.witness = pert
                        state.counterexample = summary_diff(
                            baseline.summary, outcome.summary)
                ingest(outcome)

        frontier: list[Perturbation] = []
        for key, pert in pending:
            if states[key].decided:
                skipped += 1
            else:
                frontier.append(pert)

        verdicts: list[ClusterVerdict] = []
        for state in states.values():
            verdict = state.verdict
            if verdict is None:
                complete = state.explored == state.planned and not state.capped
                verdict = "benign" if complete else "truncated"
            rule, obj, kind, time, procs = state.sig
            verdicts.append(ClusterVerdict(
                rule=rule, obj=obj, kind=kind, time=time, procs=procs,
                verdict=verdict, planned=state.planned,
                explored=state.explored, instances=state.instances,
                sampled=state.sampled,
                fingerprints=tuple(sorted(state.fingerprints)),
                witness=state.witness, deadlock=state.deadlock,
                counterexample=state.counterexample))
        return VerifyResult(
            mode=self.mode, budget=self.budget,
            baseline_fingerprint=baseline.fingerprint,
            verdicts=verdicts,
            schedules_planned=1 + sum(s.planned for s in states.values()),
            schedules_explored=explored,
            skipped=skipped, frontier=frontier)
