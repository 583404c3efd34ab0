"""SMP clusters over the message network (Section 4.3)."""

from __future__ import annotations

import pytest

from repro import FaultPlan, Workbench
from repro.config import (
    CacheConfig,
    CacheLevelConfig,
    MachineConfig,
    NetworkConfig,
    NodeConfig,
    TopologyConfig,
)
from repro.operations import (
    ArithType,
    MemType,
    add,
    compute,
    ifetch,
    load,
    recv,
    send,
    store,
)
from repro.sharedmem import HybridArchitectureModel

from tests.test_faults import drop_plan


def machine(n_nodes=2, n_cpus=2) -> MachineConfig:
    node = NodeConfig(
        n_cpus=n_cpus,
        cache_levels=[CacheLevelConfig(data=CacheConfig(
            size_bytes=1024, line_bytes=32, associativity=2))])
    return MachineConfig(
        name="cluster",
        node=node,
        network=NetworkConfig(
            topology=TopologyConfig(kind="ring", dims=(n_nodes,)))
    ).validate()


def comp_trace(k=50):
    ops = []
    for i in range(k):
        ops.append(ifetch(0x400000 + (i % 8) * 4))
        ops.append(load(MemType.FLOAT64, 0x1000 + (i % 16) * 8))
        ops.append(add(ArithType.DOUBLE))
    return ops


class TestCluster:
    def test_pure_computation(self):
        model = HybridArchitectureModel(machine())
        res = model.run_traces([[comp_trace(), comp_trace()],
                                [comp_trace(), comp_trace()]])
        assert res.total_cycles > 0
        assert len(res.smp_results) == 2
        for smp in res.smp_results:
            assert all(a.instructions > 0 for a in smp.activity)

    def test_inter_node_message_from_any_cpu(self):
        model = HybridArchitectureModel(machine())
        # CPU 1 of node 0 sends; CPU 0 of node 1 receives.
        streams = [
            [comp_trace(10), comp_trace(10) + [send(1024, 1)]],
            [[recv(0)] + comp_trace(10), comp_trace(10)],
        ]
        res = model.run_traces(streams)
        assert res.comm.messages_delivered == 1
        assert res.comm.message_latency.count == 1

    def test_intra_node_coherence_plus_network(self):
        """Both CPUs of node 0 ping-pong a cache line while node 0 also
        talks to node 1: one timeline carries both effects."""
        model = HybridArchitectureModel(machine())
        shared = 0x2000
        cpu0 = [store(MemType.INT64, shared)] * 20 + [send(256, 1)]
        cpu1 = [store(MemType.INT64, shared)] * 20
        streams = [[cpu0, cpu1], [[recv(0)], []]]
        res = model.run_traces(streams)
        smp0 = res.smp_results[0]
        assert smp0.coherence_summary["transactions"] > 0
        assert res.comm.messages_delivered == 1

    def test_compute_op_allowed_in_cluster_stream(self):
        model = HybridArchitectureModel(machine())
        res = model.run_traces([[[compute(500)], []], [[], []]])
        assert res.total_cycles == 500.0

    def test_wrong_shapes_rejected(self):
        model = HybridArchitectureModel(machine())
        with pytest.raises(ValueError, match="node entries"):
            model.run_traces([[[], []]])
        with pytest.raises(ValueError, match="CPU"):
            model.run_traces([[[]], [[], []]])

    def test_single_cpu_cluster_matches_network_semantics(self):
        m = machine(n_nodes=2, n_cpus=1)
        model = HybridArchitectureModel(m)
        res = model.run_traces([
            [[compute(100), send(512, 1)]],
            [[recv(0)]],
        ])
        assert res.comm.messages_delivered == 1
        assert res.total_cycles > 100


class TestFaults:
    """``Workbench(machine, faults=plan).run_smp_cluster`` applies the plan."""

    def streams(self):
        return [[comp_trace(10) + [send(1024, 1)] * 8, comp_trace(10)],
                [[recv(0)] * 8, comp_trace(10)]]

    def test_empty_plan_is_identical_to_none(self):
        plain = Workbench(machine()).run_smp_cluster(self.streams())
        empty = Workbench(machine(), faults=FaultPlan()) \
            .run_smp_cluster(self.streams())
        assert empty.summary() == plain.summary()
        assert plain.comm.fault_summary is None

    def test_drop_plan_drops_yet_delivers_every_message(self):
        plain = Workbench(machine()).run_smp_cluster(self.streams())
        lossy = Workbench(machine(), faults=drop_plan(0.3)) \
            .run_smp_cluster(self.streams())
        faults = lossy.comm.fault_summary
        assert faults["dropped"] > 0
        assert faults["transport"]["delivered"] \
            == plain.comm.messages_delivered == 8
        assert faults["transport"]["delivery_failed"] == 0
        assert lossy.total_cycles > plain.total_cycles
