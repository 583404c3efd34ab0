"""The VSM simulation model: hybrid mode + page-fault handling.

Runs an instrumented application whose shared accesses go through
:class:`~repro.vsm.runtime.SharedRegion` on a multicomputer: the usual
hybrid pipeline (node models timing computational operations, the
communication model carrying messages) with page faults intercepted by
the driver and executed by :class:`~repro.vsm.protocol.VSMProtocol`.
Explicit message passing (``ctx.send``/``ctx.recv``/``ctx.barrier``)
still works alongside — real VSM systems mix both.
"""

from __future__ import annotations

from typing import Optional

from ..commmodel.network import CommResult, MultiNodeModel
from ..compmodel.node import SingleNodeModel
from ..compmodel.tasks import TaskExtractionStats, extract_tasks
from ..core.config import MachineConfig
from ..pearl import Simulator
from ..tracegen.threads import InterleavedStream
from .protocol import VSMConfig, VSMProtocol
from .runtime import VSMFault

__all__ = ["VSMModel", "VSMResult"]


class VSMResult:
    """Outcome of a VSM simulation."""

    def __init__(self, comm: CommResult, vsm_summary: dict,
                 node_summaries: list[dict],
                 task_stats: list[TaskExtractionStats]) -> None:
        self.comm = comm
        self.vsm = vsm_summary
        self.node_summaries = node_summaries
        self.task_stats = task_stats

    @property
    def total_cycles(self) -> float:
        return self.comm.total_cycles

    @property
    def seconds(self) -> float:
        return self.comm.seconds

    @property
    def faults(self) -> int:
        return self.vsm["faults"]

    def summary(self) -> dict:
        return {
            "total_cycles": self.total_cycles,
            "vsm": self.vsm,
            "comm": self.comm.summary(),
            "tasks": [t.summary() for t in self.task_stats],
            "nodes": self.node_summaries,
        }

    def __repr__(self) -> str:
        return (f"<VSMResult cycles={self.total_cycles:.0f} "
                f"faults={self.faults}>")


class VSMModel:
    """Hybrid multicomputer simulation with a virtual-shared-memory layer."""

    def __init__(self, machine: MachineConfig,
                 vsm_config: Optional[VSMConfig] = None,
                 sim: Optional[Simulator] = None, faults=None) -> None:
        machine.validate()
        if machine.node.n_cpus != 1:
            raise ValueError("VSMModel runs on single-CPU node templates")
        self.machine = machine
        self.network = MultiNodeModel(machine, sim, faults=faults)
        self.protocol = VSMProtocol(self.network, vsm_config)
        self.node_models = [SingleNodeModel(machine.node, node_id=i)
                            for i in range(self.network.n_nodes)]
        self.task_stats = [TaskExtractionStats()
                           for _ in range(self.network.n_nodes)]

    @property
    def sim(self) -> Simulator:
        return self.network.sim

    @property
    def n_nodes(self) -> int:
        return self.network.n_nodes

    # -- the VSM-aware driver ----------------------------------------------

    def _driver(self, node_id: int, stream: InterleavedStream):
        task_ops = extract_tasks(self.node_models[node_id], stream,
                                 self.task_stats[node_id])
        network = self.network
        protocol = self.protocol
        for op in task_ops:
            if isinstance(op, VSMFault):
                yield from protocol.handle_fault(op)
                stream.post_result(None)
            else:
                yield from network.handle_op(
                    node_id, op,
                    payload_source=lambda: stream.thread.pending_payload,
                    result_sink=stream.post_result)
        network.activity[node_id].finish_time = self.sim.now

    # -- top-level run -----------------------------------------------------------

    def run_application(self, app) -> VSMResult:
        """Run a ThreadedApplication whose programs use SharedRegion."""
        from ..apps.api import ThreadedApplication
        if callable(app) and not isinstance(app, ThreadedApplication):
            app = ThreadedApplication(app, self.n_nodes)
        if app.n_nodes != self.n_nodes:
            raise ValueError(
                f"application has {app.n_nodes} nodes, machine has "
                f"{self.n_nodes}")
        streams = app.streams()
        try:
            for i, stream in enumerate(streams):
                self.sim.process(self._driver(i, stream), name=f"node{i}")
            self.sim.run(check_deadlock=True)
        finally:
            for stream in streams:
                stream.close()
        return VSMResult(
            self.network.result(), self.protocol.stats.summary(),
            [m.summary() for m in self.node_models], self.task_stats)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<VSMModel {self.machine.name!r} n={self.n_nodes}>"
