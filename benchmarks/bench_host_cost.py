"""Host cost of the three simulation loops (pytest-benchmark timings).

Not paper artifacts: how long the host takes for one detailed hybrid
run, one task-level run, and raw operation execution — the Section-6
cost drivers behind the slowdown figures of S6a/S6b.
"""

from __future__ import annotations

import pytest

from repro import Workbench, powerpc601_node, t805_grid
from repro.apps import alltoall_task_traces, make_matmul
from repro.compmodel import SingleNodeModel
from repro.operations import MemType, ifetch, load


@pytest.mark.benchmark(group="host-cost")
def test_detailed_mode_host_cost(benchmark):
    def run():
        wb = Workbench(t805_grid(2, 2))
        return wb.run_hybrid(make_matmul(n=16)).total_cycles

    assert benchmark.pedantic(run, rounds=3, iterations=1) > 0


@pytest.mark.benchmark(group="host-cost")
def test_task_level_host_cost(benchmark):
    machine = t805_grid(4, 4)
    traces = alltoall_task_traces(machine.n_nodes, block_bytes=1024,
                                  rounds=2, compute_cycles=50_000.0)

    def run():
        return Workbench(machine).run_comm_only(traces).total_cycles

    assert benchmark.pedantic(run, rounds=3, iterations=1) > 0


@pytest.mark.benchmark(group="host-cost")
def test_operation_execution_throughput(benchmark):
    """Raw detailed-mode op execution rate (ops/second on the host)."""
    ops = [ifetch(0x400000 + (i % 64) * 4) if i % 2 == 0
           else load(MemType.FLOAT64, 0x1000 + (i % 512) * 8)
           for i in range(10_000)]

    def run():
        return SingleNodeModel(powerpc601_node().node).run_trace(ops).cycles

    assert benchmark(run) > 0
