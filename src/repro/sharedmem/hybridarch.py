"""Hybrid architectures: clusters of SMP nodes in a message network.

"Hybrid architectures can be modelled by both defining multiple
processors on a node and using the communication model to interconnect
the clusters of shared memory multiprocessors in a message-passing
network" (Section 4.3).

Every node is an :class:`~repro.sharedmem.smp.SMPNodeModel` (private
coherent L1s, shared bus/memory); the nodes are joined by the
:class:`~repro.commmodel.network.MultiNodeModel`.  All models share one
event kernel, so intra-node coherence traffic and inter-node messages
interleave in a single simulated timeline.  Any CPU of a node may issue
communication operations through the node's NIC.
"""

from __future__ import annotations

import functools
from typing import Iterable, Optional, Sequence

from ..commmodel.network import CommResult, MultiNodeModel
from ..config import MachineConfig
from ..operations.ops import Operation
from ..pearl import Simulator
from .smp import SMPNodeModel, SMPResult

__all__ = ["HybridArchitectureModel", "HybridArchResult"]


class HybridArchResult:
    """Outcome of an SMP-cluster simulation."""

    def __init__(self, comm: CommResult,
                 smp_results: list[SMPResult]) -> None:
        self.comm = comm
        self.smp_results = smp_results

    @property
    def total_cycles(self) -> float:
        return self.comm.total_cycles

    @property
    def seconds(self) -> float:
        return self.comm.seconds

    def summary(self) -> dict:
        return {
            "total_cycles": self.total_cycles,
            "seconds": self.seconds,
            "network": self.comm.summary(),
            "smp_nodes": [r.summary() for r in self.smp_results],
        }

    def __repr__(self) -> str:
        return (f"<HybridArchResult cycles={self.total_cycles:.0f} "
                f"nodes={len(self.smp_results)}>")


class HybridArchitectureModel:
    """Clusters of shared-memory nodes over the interconnect."""

    def __init__(self, machine: MachineConfig,
                 sim: Optional[Simulator] = None, faults=None) -> None:
        machine.validate()
        self.machine = machine
        self.network = MultiNodeModel(machine, sim, faults=faults)
        self.smp_nodes = [
            SMPNodeModel(machine.node, sim=self.network.sim, node_id=i)
            for i in range(self.network.n_nodes)]

    @property
    def sim(self) -> Simulator:
        return self.network.sim

    @property
    def n_nodes(self) -> int:
        return self.network.n_nodes

    @property
    def n_cpus_per_node(self) -> int:
        return self.machine.node.n_cpus

    # -- top-level run ---------------------------------------------------------

    def run_traces(self,
                   per_node_per_cpu_ops: Sequence[Sequence[Iterable[Operation]]]
                   ) -> HybridArchResult:
        """Simulate: one op stream per (node, cpu).

        Streams may mix computational operations (timed by the SMP
        model) and communication operations (routed through the node's
        NIC into the network).
        """
        if len(per_node_per_cpu_ops) != self.n_nodes:
            raise ValueError(
                f"expected {self.n_nodes} node entries, got "
                f"{len(per_node_per_cpu_ops)}")
        bodies = []
        for node_id, cpu_streams in enumerate(per_node_per_cpu_ops):
            if len(cpu_streams) != self.n_cpus_per_node:
                raise ValueError(
                    f"node {node_id}: expected {self.n_cpus_per_node} CPU "
                    f"streams, got {len(cpu_streams)}")
            smp = self.smp_nodes[node_id]
            handler = functools.partial(self.network.handle_op, node_id)
            bodies += [(f"node{node_id}.cpu{cpu_id}",
                        smp.cpu_process(cpu_id, iter(ops),
                                        comm_handler=handler))
                       for cpu_id, ops in enumerate(cpu_streams)]
        comm = self.network.run_bodies(bodies)
        for act in comm.activity:
            act.finish_time = comm.total_cycles
        return HybridArchResult(
            comm, [smp.result() for smp in self.smp_nodes])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<HybridArchitectureModel nodes={self.n_nodes} "
                f"cpus/node={self.n_cpus_per_node}>")
