"""The hybrid model (Fig 2) — computational + communication co-simulation.

"Detailed simulation of a distributed memory multicomputer requires that
the single-node computational model is replicated for each of the MIMD
nodes taking part in the simulation.  Each instance of the single-node
model is then assigned to a node within the communication model in order
to feed it with the computational tasks and communication operations."

The hybrid model is Mermaid's *accurate* mode: each node's operation
stream is timed through its own single-node model (CPU + caches + bus +
memory); the simulated time between communication operations becomes a
``compute`` task driving that node's abstract processor in the
communication model, all inside one event kernel so feedback (Fig 1's
broken arrows) is exact.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from ..commmodel.network import CommResult, MultiNodeModel
from ..compmodel.node import SingleNodeModel
from ..compmodel.tasks import TaskExtractionStats
from ..config import MachineConfig
from ..operations.ops import Operation
from ..operations.trace import TraceSet
from ..pearl import Simulator
from ..tracegen.threads import InterleavedStream
from .scheduler import make_node_pipeline

__all__ = ["HybridModel", "HybridResult"]


class HybridResult:
    """Outcome of a hybrid simulation: network + per-node computation."""

    def __init__(self, comm: CommResult, node_summaries: list[dict],
                 task_stats: list[TaskExtractionStats]) -> None:
        self.comm = comm
        self.node_summaries = node_summaries
        self.task_stats = task_stats

    @property
    def total_cycles(self) -> float:
        return self.comm.total_cycles

    @property
    def seconds(self) -> float:
        return self.comm.seconds

    @property
    def total_instructions(self) -> int:
        return sum(s["cpu"]["instructions"] for s in self.node_summaries)

    def summary(self) -> dict:
        return {
            "total_cycles": self.total_cycles,
            "seconds": self.seconds,
            "instructions": self.total_instructions,
            "comm": self.comm.summary(),
            "tasks": [t.summary() for t in self.task_stats],
            "nodes": self.node_summaries,
        }

    def __repr__(self) -> str:
        return (f"<HybridResult cycles={self.total_cycles:.0f} "
                f"instr={self.total_instructions}>")


class HybridModel:
    """Replicated single-node models feeding one communication model."""

    def __init__(self, machine: MachineConfig,
                 sim: Optional[Simulator] = None, faults=None) -> None:
        machine.validate()
        if machine.node.n_cpus != 1:
            raise ValueError(
                "HybridModel replicates the single-CPU node template; for "
                "clusters of shared-memory nodes use "
                "repro.sharedmem.HybridArchitectureModel")
        self.machine = machine
        self.network = MultiNodeModel(machine, sim, faults=faults)
        self.node_models = [
            SingleNodeModel(machine.node, node_id=i)
            for i in range(self.network.n_nodes)]
        self.task_stats = [TaskExtractionStats()
                           for _ in range(self.network.n_nodes)]
        self.registry = self.network.registry
        for i, model in enumerate(self.node_models):
            self.registry.register(f"node{i}.compute", model.summary)
        for i, stats in enumerate(self.task_stats):
            self.registry.register(f"node{i}.tasks", stats.summary)

    @property
    def n_nodes(self) -> int:
        return self.network.n_nodes

    @property
    def sim(self) -> Simulator:
        return self.network.sim

    # -- execution-driven (live node threads) -----------------------------

    def run_application(self, app) -> HybridResult:
        """Run a :class:`~repro.apps.api.ThreadedApplication` end to end.

        A bare ``program(ctx)`` is a ``TypeError``: ``hybrid`` shares a
        layer with ``apps``, so the wrap is the caller's.
        """
        if not hasattr(app, "streams"):
            raise TypeError(
                f"HybridModel.run_application takes a ThreadedApplication, "
                f"got {type(app).__name__}; run a program(ctx) with "
                f"Workbench.run_hybrid, or wrap it with "
                f"repro.apps.as_application(program, n_nodes)")
        if app.n_nodes != self.n_nodes:
            raise ValueError(
                f"application has {app.n_nodes} nodes, machine has "
                f"{self.n_nodes}")
        return self.run_streams(app.streams())

    def run_streams(self, streams: Sequence[InterleavedStream]
                    ) -> HybridResult:
        """Execution-driven hybrid run from interleaved node streams."""
        try:
            return self._run([(stream, stream) for stream in streams])
        finally:
            for stream in streams:
                stream.close()

    # -- trace-driven (static mixed traces) ----------------------------------

    def run_traces(self, traces: TraceSet | Sequence[Iterable[Operation]]
                   ) -> HybridResult:
        """Hybrid run from pre-recorded mixed traces (trace-file mode)."""
        return self._run([(iter(trace), None) for trace in traces])

    def _run(self, sources: Sequence[tuple[Iterator[Operation],
                                           Optional[InterleavedStream]]]
             ) -> HybridResult:
        """The one per-node loop: each node's ``(ops, stream)`` source
        through its pipeline, all run by the network's one run loop."""
        if len(sources) != self.n_nodes:
            raise ValueError(
                f"expected one stream or trace per node ({self.n_nodes}), "
                f"got {len(sources)}")
        return self._result(self.network.run_bodies(
            (f"node{i}", make_node_pipeline(
                self.network, i, ops, self.node_models[i], stream,
                self.task_stats[i]))
            for i, (ops, stream) in enumerate(sources)))

    def _result(self, comm: CommResult) -> HybridResult:
        return HybridResult(
            comm, [m.summary() for m in self.node_models], self.task_stats)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<HybridModel {self.machine.name!r} n={self.n_nodes}>"
