"""The single-node computational model template (Fig 3a).

Wires a CPU, the cache hierarchy, the bus and the DRAM into one node
model that executes computational-operation traces at the level of
abstract machine instructions.  "It can be parameterized to represent a
wide range of node architectures" — every knob lives in
:class:`~repro.config.NodeConfig`.

Multi-CPU (shared-memory) nodes are modelled in
:mod:`repro.sharedmem.smp`, which replaces the analytic hierarchy with
the bus-contended snoopy version.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from ..config import NodeConfig
from ..operations.ops import Operation
from .cpu import CPU
from .hierarchy import CacheHierarchy

__all__ = ["SingleNodeModel", "NodeResult"]


class NodeResult:
    """Outcome of executing a trace on a single-node model."""

    __slots__ = ("cycles", "instructions", "cpu_summary", "memory_summary",
                 "clock_hz")

    def __init__(self, cycles: float, instructions: int, cpu_summary: dict,
                 memory_summary: dict, clock_hz: float) -> None:
        self.cycles = cycles
        self.instructions = instructions
        self.cpu_summary = cpu_summary
        self.memory_summary = memory_summary
        self.clock_hz = clock_hz

    @property
    def seconds(self) -> float:
        return self.cycles / self.clock_hz

    @property
    def cpi(self) -> float:
        """Cycles per (abstract) instruction."""
        return self.cycles / self.instructions if self.instructions else 0.0

    def __repr__(self) -> str:
        return (f"<NodeResult cycles={self.cycles:.0f} "
                f"instr={self.instructions} cpi={self.cpi:.2f}>")


class SingleNodeModel:
    """One MIMD node: CPU + cache hierarchy + bus + memory.

    The model is analytic and stateful: caches warm up across calls.
    Use a fresh instance (or :meth:`reset`) per experiment.
    """

    def __init__(self, cfg: NodeConfig, node_id: int = 0,
                 rng: Optional[np.random.Generator] = None) -> None:
        cfg.validate()
        if cfg.n_cpus != 1:
            raise ValueError(
                "SingleNodeModel is the single-CPU template; use "
                "repro.sharedmem.SMPNodeModel for multi-CPU nodes")
        self.cfg = cfg
        self.node_id = node_id
        self._rng = rng if rng is not None else np.random.default_rng(node_id)
        self.reset()

    def reset(self) -> None:
        """Cold caches and zeroed statistics."""
        self.hierarchy = CacheHierarchy(
            self.cfg.cache_levels, self.cfg.bus, self.cfg.memory, self._rng,
            name=f"node{self.node_id}")
        self.cpu = CPU(self.cfg.cpu, self.hierarchy, cpu_id=0)

    # -- execution -------------------------------------------------------

    def run_trace(self, ops: Iterable[Operation]) -> NodeResult:
        """Execute a purely computational trace; returns timing + stats.

        This is task extraction with no boundaries: the trace is charged
        by :func:`repro.compmodel.tasks.extract_tasks`, and the first
        operation the extractor would forward — anything that is not
        computational, a literal ``compute`` included — is rejected with
        everything before it charged.  Mixed traces go through
        ``extract_tasks`` itself (that *is* the hybrid model of Fig 2).
        """
        from .tasks import TaskExtractionStats, extract_tasks
        cpu = self.cpu
        start_cycles = cpu.stats.cycles
        start_instr = cpu.stats.instructions
        stats = TaskExtractionStats()
        for op in extract_tasks(self, ops, stats):
            if stats.communication_ops:
                raise ValueError(
                    f"node {self.node_id}: communication operation {op!r} in "
                    "a computational trace; use extract_tasks() for mixed "
                    "traces")
        return NodeResult(
            cycles=cpu.stats.cycles - start_cycles,
            instructions=cpu.stats.instructions - start_instr,
            cpu_summary=cpu.stats.summary(),
            memory_summary=self.hierarchy.summary(),
            clock_hz=self.cfg.cpu.clock_hz,
        )

    def op_cycles(self, op: Operation) -> float:
        """Cost of a single computational operation (hybrid-mode hook)."""
        return self.cpu.op_cycles(op)

    def summary(self) -> dict:
        return {
            "node": self.node_id,
            "cpu": self.cpu.stats.summary(),
            "memory_system": self.hierarchy.summary(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SingleNodeModel node={self.node_id} cpu={self.cfg.cpu.name!r}>"
