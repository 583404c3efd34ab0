"""The workbench facade — Fig 1's layering as one entry point.

"Mermaid effectively offers a workbench for computer architects
designing multicomputer systems, supporting the performance evaluation
of a wide range of architectural design options by means of
parameterization."

A :class:`Workbench` binds one :class:`~repro.config.MachineConfig`
and exposes every simulation mode:

=====================  ======================================  ============
mode                   input (application level)               accuracy/cost
=====================  ======================================  ============
``run_hybrid``         instrumented program (live threads)     highest
``run_vsm``            program sharing ``SharedRegion`` pages  highest
``run_mixed_traces``   recorded instruction-level traces       high
``run_comm_only``      task-level traces                       fast
``run_stochastic``     probabilistic description               fastest
``run_single_node``    computational trace, one node           node studies
``run_smp``            per-CPU traces, one shared-memory node  SMP studies
``run_smp_cluster``    per-CPU traces, SMP nodes on a network  SMP studies
=====================  ======================================  ============

``run_hybrid`` and ``run_vsm`` drive the same node pipeline; the VSM
mode adds the page-fault protocol (:mod:`repro.vsm`).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

from ..commmodel.network import CommResult, MultiNodeModel
from ..compmodel.node import NodeResult, SingleNodeModel
from ..config import MachineConfig
from ..hybrid.model import HybridModel, HybridResult
from ..operations.ops import Operation
from ..operations.trace import TraceSet
from ..sharedmem.hybridarch import HybridArchitectureModel, HybridArchResult
from ..sharedmem.smp import SMPNodeModel, SMPResult
from ..tracegen.descriptions import StochasticAppDescription
from ..tracegen.stochastic import StochasticGenerator
from .experiment import Sweep

__all__ = ["Workbench"]


class Workbench:
    """One machine configuration, every simulation mode.

    Each ``run_*`` call builds a fresh model (simulations are
    independent); the config object itself is never mutated.
    """

    def __init__(self, machine: MachineConfig, faults=None) -> None:
        machine.validate()
        self.machine = machine
        # Optional fault-injection plan (repro.faults): a FaultPlan,
        # plan dict, or path to a plan JSON file.  Applied to every
        # network-driven run_* mode; empty plans are normalized away by
        # the model, so ``faults=FaultPlan()`` is identical to None.
        self.faults = faults

    @property
    def n_nodes(self) -> int:
        return self.machine.n_nodes

    # -- accurate mode (Fig 2 hybrid) -------------------------------------

    def run_hybrid(self, application) -> HybridResult:
        """Execution-driven hybrid simulation of an instrumented program.

        ``application`` is a :class:`~repro.apps.api.ThreadedApplication`
        or a plain ``program(ctx)`` callable (run SPMD on every node).
        """
        from ..apps.api import as_application
        model = HybridModel(self.machine, faults=self.faults)
        return model.run_application(as_application(application,
                                                    self.n_nodes))

    def run_mixed_traces(self, traces: Union[TraceSet,
                                             Sequence[Iterable[Operation]]]
                         ) -> HybridResult:
        """Hybrid simulation from pre-recorded mixed traces."""
        model = HybridModel(self.machine, faults=self.faults)
        return model.run_traces(traces)

    # -- fast prototyping (communication model only) ---------------------------

    def run_comm_only(self, task_traces: Union[TraceSet,
                                               Sequence[Iterable[Operation]]]
                      ) -> CommResult:
        """Task-level simulation: "the communication model ... directly"."""
        model = MultiNodeModel(self.machine, faults=self.faults)
        return model.run(list(task_traces))

    def run_stochastic(self, desc: StochasticAppDescription,
                       level: str = "task", *, rounds: int = 50,
                       ops_per_node: int = 20000, seed: int = 0
                       ) -> Union[CommResult, HybridResult]:
        """Stochastic workload through either abstraction level (Fig 4)."""
        gen = StochasticGenerator(desc, self.n_nodes, seed=seed)
        if level == "task":
            return self.run_comm_only(gen.generate_task_level(rounds))
        if level == "instruction":
            return self.run_mixed_traces(
                gen.generate_instruction_level(ops_per_node))
        raise ValueError(f"unknown level {level!r}; use 'task' or "
                         "'instruction'")

    # -- node-level studies -------------------------------------------------------

    def run_single_node(self, ops: Iterable[Operation]) -> NodeResult:
        """Computational trace on one instance of the node template."""
        node = SingleNodeModel(self.machine.node)
        return node.run_trace(ops)

    def run_smp(self, per_cpu_ops: Sequence[Iterable[Operation]]
                ) -> SMPResult:
        """Shared-memory simulation of one multi-CPU node (Sec 4.3)."""
        smp = SMPNodeModel(self.machine.node)
        return smp.run_traces(per_cpu_ops)

    def run_smp_cluster(self,
                        per_node_per_cpu_ops: Sequence[Sequence[Iterable[Operation]]]
                        ) -> HybridArchResult:
        """Hybrid architecture: SMP nodes over the message network."""
        model = HybridArchitectureModel(self.machine, faults=self.faults)
        return model.run_traces(per_node_per_cpu_ops)

    # -- virtual shared memory (Sec 5.1 future work) ------------------------

    def run_vsm(self, application, vsm_config=None):
        """Hybrid simulation with the virtual-shared-memory layer.

        ``application`` (as for :meth:`run_hybrid`) programs use
        :class:`repro.vsm.SharedRegion` instead of explicit message
        passing.
        """
        from ..vsm import VSMModel
        model = VSMModel(self.machine, vsm_config, faults=self.faults)
        return model.run_application(application)

    # -- static analysis ----------------------------------------------------

    def check(self, *, traces: Optional[TraceSet] = None,
              description: Optional[StochasticAppDescription] = None):
        """Statically analyze this machine (and optionally a workload).

        Runs :func:`repro.check.check_machine` on the bound config,
        plus :func:`~repro.check.check_traces` /
        :func:`~repro.check.check_description` when the corresponding
        workload artifact is given.  Returns the merged
        :class:`~repro.check.Report`.
        """
        from ..check import check_description, check_machine, check_traces
        report = check_machine(self.machine)
        if traces is not None:
            report.merge(check_traces(traces, n_nodes=self.n_nodes))
        if description is not None:
            report.merge(check_description(description,
                                           n_nodes=self.n_nodes))
        return report

    def bound(self, traces: Union[TraceSet, Sequence[Iterable[Operation]],
                                  None] = None, *,
              application: Optional[str] = None, subject: str = ""):
        """Static performance bounds of one workload — no simulation.

        Computes the task-graph critical path, per-directed-link traffic
        demand over the configured routing, and LogP-style per-class
        latency/bandwidth floors for task-level ``traces`` (or a bundled
        ``application`` name: ``"pingpong"``, ``"alltoall"``,
        ``"pipeline"``).  Returns a
        :class:`repro.bounds.BoundReport`; every quantity is a certified
        lower bound on what a correct simulation can report, which is
        what the PB0xx cross-check rules lean on.
        """
        from ..bounds import compute_bounds
        if (traces is None) == (application is None):
            raise ValueError("pass exactly one of traces= or application=")
        if traces is None:
            from ..apps import TASK_APPS, task_app
            application = task_app(application)
            traces = TASK_APPS[application].build(self.n_nodes)
            subject = subject or f"bounds:{application}:{self.machine.name}"
        return compute_bounds(self.machine, traces,
                              subject=subject or f"bounds:{self.machine.name}")

    def verify(self, traces: Union[TraceSet, Sequence[Iterable[Operation]],
                                   None] = None, *,
               application: Optional[str] = None, budget: int = 64,
               workers: int = 1, mode: str = "dpor"):
        """Explore same-time schedule orderings of one workload.

        Runs the workload under the controllable tie-break scheduler
        and reduces every contention cluster the sanitizer flags to a
        verdict — confirmed race, reachable deadlock, proven benign, or
        budget-truncated.  Pass task-level ``traces`` (communication
        model) or a bundled ``application`` name (``"masterworker"``
        runs execution-driven hybrid).  Returns a
        :class:`repro.verify.VerifyResult`; ``workers > 1`` shards
        independent schedules over the :mod:`repro.parallel` pool.
        """
        from ..verify import (ScheduleExplorer, TraceVerifyTarget,
                              app_verify_target)
        if (traces is None) == (application is None):
            raise ValueError("pass exactly one of traces= or application=")
        if traces is not None:
            target = TraceVerifyTarget(self.machine, traces)
        else:
            target = app_verify_target(self.machine, application)
        explorer = ScheduleExplorer(budget=budget, mode=mode)
        return explorer.explore(target, workers=workers)

    def chaos(self, campaign, runner=None, *,
              application: Optional[str] = None, workers: int = 1,
              cache=None, workload_id: Optional[str] = None,
              progress=None, timing: bool = False, tracer=None,
              registry=None):
        """Run a chaos campaign against this machine.

        ``campaign`` is a :class:`repro.chaos.CampaignSpec`, a spec
        dict, or a path to a spec JSON file; its generators expand into
        a fault-plan family (severity ladders, single-link-down packs,
        ...) that is swept as rungs over the parallel-sweep machinery
        and folded into SLO verdicts.  Pass a picklable ``runner``
        accepting ``(machine, faults=plan)``, or a bundled
        ``application`` name to use
        :class:`repro.chaos.AppCampaignRunner`.  Returns a
        :class:`repro.chaos.ChaosResult`.
        """
        from ..chaos import AppCampaignRunner, run_campaign
        if (runner is None) == (application is None):
            raise ValueError("pass exactly one of runner= or application=")
        if runner is None:
            runner = AppCampaignRunner(application)
        return run_campaign(campaign, self.machine, runner,
                            workload_id=workload_id, workers=workers,
                            cache=cache, progress=progress, timing=timing,
                            tracer=tracer, registry=registry)

    # -- design-space sweeps -------------------------------------------------

    def sweep(self, label: str = "") -> "Sweep":
        """A :class:`~repro.core.experiment.Sweep` rooted at this machine.

        ::

            rows = (wb.sweep("l1 study")
                      .axis("l1_kib", set_l1, [8, 16, 32])
                      .run(run_node, workers=4, cache="~/.cache/repro"))

        ``Sweep.run`` accepts ``workers=`` (process-pool fan-out),
        ``cache=`` (content-addressed result reuse), and ``executor=``
        (a backend-agnostic :class:`repro.parallel.Executor` job
        backend); see :mod:`repro.parallel`.  The same sweeps can be
        served over HTTP by :mod:`repro.service` (``repro serve``).
        """
        return Sweep(self.machine, label)

    # -- trace recording -----------------------------------------------------------

    def record_traces(self, application) -> TraceSet:
        """Execute an instrumented program logically; return its traces."""
        from ..apps.api import as_application
        return as_application(application, self.n_nodes).record()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Workbench {self.machine.name!r} nodes={self.n_nodes}>"
