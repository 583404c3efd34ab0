"""Picklable verify targets for the bundled workloads.

A target is a :data:`~repro.verify.explorer.Factory`: calling it builds
a **fresh** model (exploration runs the same workload many times) and
returns ``(sim, run)``.  Targets are plain picklable objects so cluster
exploration can shard over the :mod:`repro.parallel` process pool.

``run()`` must enable deadlock checking (both model classes here do) —
otherwise a deadlocked schedule would surface as a truncated result
diff instead of a ``KV003`` verdict.
"""

from __future__ import annotations

from typing import Any, Callable

from ..core.config import MachineConfig

__all__ = ["VERIFY_APPS", "MasterWorkerVerifyTarget", "TraceVerifyTarget",
           "app_verify_target"]

#: bundled apps ``repro verify`` accepts by name.
VERIFY_APPS = ("pingpong", "alltoall", "pipeline", "masterworker")


class TraceVerifyTarget:
    """:class:`~repro.commmodel.network.MultiNodeModel` over fixed
    task-level traces (one re-iterable operation stream per node)."""

    def __init__(self, machine: MachineConfig, traces: Any) -> None:
        self.machine = machine
        self.traces = list(traces)
        if len(self.traces) != machine.n_nodes:
            raise ValueError(
                f"expected {machine.n_nodes} traces (one per node), got "
                f"{len(self.traces)}")

    def __call__(self) -> tuple[Any, Callable[[], Any]]:
        from ..commmodel.network import MultiNodeModel
        model = MultiNodeModel(self.machine)

        def run() -> Any:
            return model.run(self.traces).summary()

        return model.sim, run


class MasterWorkerVerifyTarget:
    """:class:`~repro.hybrid.model.HybridModel` running the
    execution-driven master/worker task farm.

    The genuinely schedule-relevant bundled workload: the master's
    ``recv_any`` services whichever worker speaks first in simulated
    time, so equidistant workers can tie.
    """

    def __init__(self, machine: MachineConfig, n_tasks: int = 8,
                 seed: int = 0) -> None:
        self.machine = machine
        self.n_tasks = n_tasks
        self.seed = seed

    def __call__(self) -> tuple[Any, Callable[[], Any]]:
        from ..apps import ThreadedApplication, make_master_worker
        from ..hybrid.model import HybridModel
        model = HybridModel(self.machine)
        app = ThreadedApplication(
            make_master_worker(n_tasks=self.n_tasks, seed=self.seed),
            self.machine.n_nodes)

        def run() -> Any:
            return model.run_application(app).summary()

        return model.sim, run


def app_verify_target(machine: MachineConfig, app: str) -> Any:
    """A verify factory for a bundled app name (see :data:`VERIFY_APPS`)."""
    if app == "masterworker":
        return MasterWorkerVerifyTarget(machine)
    from ..apps import TASK_APPS
    if app not in TASK_APPS:
        raise ValueError(f"unknown verify app {app!r}; expected one of "
                         f"{', '.join(VERIFY_APPS)}")
    return TraceVerifyTarget(machine, TASK_APPS[app](machine.n_nodes))
