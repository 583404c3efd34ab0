"""Closed-form cross-checks: the simulators vs pencil-and-paper models.

Each test constructs a scenario simple enough to solve analytically and
checks the simulation lands on the formula exactly (deterministic DES)
or within a tight bound.  These are the strongest correctness tests the
suite has: they validate timing *composition*, not just plumbing.
"""

from __future__ import annotations

import pytest

from repro import Workbench, generic_multicomputer
from repro.commmodel import MultiNodeModel
from repro.config import (
    BusConfig,
    CacheConfig,
    CacheLevelConfig,
    CPUConfig,
    MachineConfig,
    MemoryConfig,
    NetworkConfig,
    NodeConfig,
    TopologyConfig,
)
from repro.operations import (
    ArithType,
    MemType,
    add,
    compute,
    load,
    recv,
    send,
)
from repro.sharedmem import SMPNodeModel


class TestNodeTiming:
    def test_pure_arithmetic_exact(self):
        """n identical adds cost exactly n * cost."""
        machine = generic_multicomputer("mesh", (1, 1))
        res = Workbench(machine).run_single_node(
            [add(ArithType.DOUBLE)] * 1000)
        per = machine.node.cpu.add_cycles[ArithType.DOUBLE]
        assert res.cycles == pytest.approx(1000 * per)

    def test_streaming_load_cost_formula(self):
        """Sequential walk: one miss per line, hits elsewhere.

        cycles = n*(issue + hit) + misses*(fill - hit)
        """
        line = 32
        node = NodeConfig(
            cpu=CPUConfig(load_issue_cycles=1.0),
            cache_levels=[CacheLevelConfig(data=CacheConfig(
                size_bytes=4096, line_bytes=line, associativity=4,
                hit_cycles=1.0))],
            bus=BusConfig(width_bytes=8, cycles_per_beat=1.0,
                          arbitration_cycles=1.0),
            memory=MemoryConfig(access_cycles=20.0, cycles_per_word=2.0,
                                word_bytes=8))
        machine = MachineConfig(name="x", node=node).validate()
        n = 256
        ops = [load(MemType.FLOAT64, i * 8) for i in range(n)]
        res = Workbench(machine).run_single_node(ops)
        misses = n * 8 // line
        fill = 1.0 + 4 * 1.0 + 20.0 + 3 * 2.0   # arb + 4 beats + dram
        expected = n * (1.0 + 1.0) + misses * fill
        assert res.cycles == pytest.approx(expected)


class TestNetworkTiming:
    def make_net(self, n=3, **net_kw) -> MultiNodeModel:
        defaults = dict(
            switching="store_and_forward", routing="dimension_order",
            link_bandwidth=4.0, link_latency=1.0, packet_bytes=10 ** 9,
            header_bytes=8, routing_cycles=2.0,
            send_overhead=50.0, recv_overhead=50.0)
        defaults.update(net_kw)
        cfg = NetworkConfig(topology=TopologyConfig(kind="mesh",
                                                    dims=(n, 1)),
                            **defaults)
        return MultiNodeModel(MachineConfig(name="net",
                                            network=cfg).validate())

    def test_end_to_end_send_formula(self):
        """sync send completion = overhead + hops*(rt + T + ll)."""
        net = self.make_net(3)
        size = 1000
        res = net.run([[send(size, 2)], [], [recv(0)]])
        per_hop = 2.0 + (size + 8) / 4.0 + 1.0
        expected_latency = 2 * per_hop
        assert res.message_latency.mean == pytest.approx(expected_latency)
        # Total time: sender overhead + latency + receiver overhead.
        assert res.total_cycles == pytest.approx(
            50.0 + expected_latency + 50.0)

    def test_pipelined_round_trips_add(self):
        """k ping-pongs cost exactly k times one ping-pong (no state
        leaks between rounds)."""
        def total(k):
            net = self.make_net(2, send_overhead=0.0, recv_overhead=0.0)
            a = [send(100, 1), recv(1)] * k
            b = [recv(0), send(100, 0)] * k
            return net.run([a, b]).total_cycles

        one = total(1)
        assert total(4) == pytest.approx(4 * one)

    def test_compute_overlap_with_async_send(self):
        """asend then compute: total = overhead + max(compute, delivery)."""
        from repro.operations import asend
        net = self.make_net(2, send_overhead=10.0, recv_overhead=0.0)
        size = 4000
        res = net.run([
            [asend(size, 1), compute(100_000.0)],
            [recv(0)],
        ])
        delivery = 2.0 + (size + 8) / 4.0 + 1.0
        assert res.total_cycles == pytest.approx(
            10.0 + max(100_000.0, delivery))


class TestBusContention:
    def test_two_cpus_serialize_exactly(self):
        """Two CPUs issuing simultaneous misses: the second waits for
        the first's full bus transaction."""
        cfg = NodeConfig(
            n_cpus=2,
            cache_levels=[CacheLevelConfig(data=CacheConfig(
                size_bytes=512, line_bytes=32, associativity=2))],
            bus=BusConfig(width_bytes=8, cycles_per_beat=1.0,
                          arbitration_cycles=1.0, snoop_cycles=1.0),
            memory=MemoryConfig(access_cycles=20.0, cycles_per_word=2.0,
                                word_bytes=8))
        smp = SMPNodeModel(cfg)
        res = smp.run_traces([[load(MemType.INT64, 0x1000)],
                              [load(MemType.INT64, 0x9000)]])
        # One transaction: issue(1) then arb+snoop(2) + fill(4 beats +
        # 20 + 3*2 dram) + transfer-to-cache... composed cost:
        txn = 1.0 + 1.0 + 4 * 1.0 + (20.0 + 3 * 2.0)
        first = 1.0 + txn
        second = 1.0 + 2 * txn     # waited for the first
        assert res.activity[0].finish_time == pytest.approx(first)
        assert res.activity[1].finish_time == pytest.approx(second)

    def test_utilization_accounting_consistent(self):
        """Resource time-integral equals per-CPU stall bookkeeping."""
        from repro import smp_node
        machine = smp_node(4)
        wb = Workbench(machine)
        traces = [[load(MemType.INT64, 0x10000 * (c + 1) + i * 64)
                   for i in range(50)] for c in range(4)]
        res = wb.run_smp(traces)
        assert res.bus_summary["busy_cycles"] <= res.total_cycles * 1.001


class TestLoadBalanceLaw:
    def test_makespan_is_max_of_node_times(self):
        """Independent nodes: total time = slowest node's work."""
        wb = Workbench(generic_multicomputer("mesh", (2, 2)))
        res = wb.run_comm_only([
            [compute(1000.0)], [compute(9000.0)],
            [compute(500.0)], [compute(3000.0)]])
        assert res.total_cycles == pytest.approx(9000.0)
        assert res.parallel_efficiency() == pytest.approx(
            (1000 + 9000 + 500 + 3000) / (4 * 9000))

    def test_pipeline_throughput_law(self):
        """Steady-state pipeline: time ~ fill + items * bottleneck."""
        from repro.apps import pipeline_task_traces
        wb = Workbench(generic_multicomputer("mesh", (4, 1)))
        bottleneck = 10_000.0
        items = 12
        traces = pipeline_task_traces(
            4, items=items, item_bytes=64,
            stage_cycles=[1000, bottleneck, 1000, 1000])
        res = wb.run_comm_only(traces)
        lower = items * bottleneck
        assert lower < res.total_cycles < lower * 1.4