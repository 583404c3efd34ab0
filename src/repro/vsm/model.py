"""The VSM simulation model: the hybrid model plus the page-fault protocol.

A :class:`VSMModel` is a :class:`~repro.hybrid.HybridModel` whose
network also carries a :class:`~repro.vsm.protocol.VSMProtocol`: every
node runs the hybrid pipeline (node model, task extraction, the
communication model's driver), and a page fault raised by
:class:`~repro.vsm.runtime.SharedRegion` reaches the driver as a global
event that the protocol handles.  Explicit message passing
(``ctx.send``/``ctx.recv``/``ctx.barrier``) still works alongside — real
VSM systems mix both.
"""

from __future__ import annotations

from typing import Optional

from ..apps.api import as_application
from ..commmodel.network import CommResult
from ..config import MachineConfig
from ..hybrid.model import HybridModel, HybridResult
from ..pearl import Simulator
from .protocol import VSMConfig, VSMProtocol

__all__ = ["VSMModel", "VSMResult"]


class VSMResult(HybridResult):
    """A hybrid result plus the VSM protocol's counters."""

    def __init__(self, hybrid: HybridResult, vsm_summary: dict) -> None:
        super().__init__(hybrid.comm, hybrid.node_summaries,
                         hybrid.task_stats)
        self.vsm = vsm_summary

    @property
    def faults(self) -> int:
        return self.vsm["faults"]

    def summary(self) -> dict:
        return {**super().summary(), "vsm": self.vsm}

    def __repr__(self) -> str:
        return (f"<VSMResult cycles={self.total_cycles:.0f} "
                f"faults={self.faults}>")


class VSMModel(HybridModel):
    """Hybrid multicomputer simulation with a virtual-shared-memory layer."""

    def __init__(self, machine: MachineConfig,
                 vsm_config: Optional[VSMConfig] = None,
                 sim: Optional[Simulator] = None, faults=None) -> None:
        super().__init__(machine, sim, faults=faults)
        self.protocol = VSMProtocol(self.network, vsm_config)

    def run_application(self, app) -> VSMResult:
        """Run a ThreadedApplication, or a ``program(ctx)`` callable,
        whose programs use SharedRegion."""
        return super().run_application(as_application(app, self.n_nodes))

    def _result(self, comm: CommResult) -> VSMResult:
        return VSMResult(super()._result(comm),
                         self.protocol.stats.summary())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<VSMModel {self.machine.name!r} n={self.n_nodes}>"
