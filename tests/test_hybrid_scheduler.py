"""The hybrid scheduler glue: stream hooks and node pipelines."""

from __future__ import annotations

import pytest

from repro.commmodel import MultiNodeModel
from repro.compmodel import SingleNodeModel, TaskExtractionStats
from repro.config import (
    CacheConfig,
    CacheLevelConfig,
    MachineConfig,
    NetworkConfig,
    NodeConfig,
    TopologyConfig,
)
from repro.hybrid import make_node_pipeline, stream_hooks
from repro.operations import ArithType, add, compute, recv, send
from repro.tracegen import InterleavedStream, NodeThread


def machine(n=2) -> MachineConfig:
    return MachineConfig(
        name="sched",
        node=NodeConfig(cache_levels=[CacheLevelConfig(data=CacheConfig())]),
        network=NetworkConfig(
            topology=TopologyConfig(kind="ring", dims=(n,)),
            send_overhead=0.0, recv_overhead=0.0)).validate()


class TestStreamHooks:
    def test_payload_source_reads_pending(self):
        def body(th):
            th.global_event(send(64, 1), payload="cargo")
        stream = InterleavedStream(NodeThread(0, body))
        payload_source, result_sink = stream_hooks(stream)
        next(stream)            # the send op; thread suspended
        assert payload_source() == "cargo"
        result_sink("reply")
        assert stream._result == "reply"
        stream.close()


class TestMakeNodePipeline:
    def test_static_task_ops_without_node_model(self):
        net = MultiNodeModel(machine())
        ops0 = [compute(100), send(64, 1)]
        ops1 = [recv(0)]
        net.sim.process(make_node_pipeline(net, 0, iter(ops0)))
        net.sim.process(make_node_pipeline(net, 1, iter(ops1)))
        net.sim.run(check_deadlock=True)
        assert net.engine.messages_delivered == 1
        assert net.activity[0].compute_cycles == 100.0

    def test_with_node_model_extracts_tasks(self):
        net = MultiNodeModel(machine())
        m = machine()
        node0 = SingleNodeModel(m.node, node_id=0)
        stats = TaskExtractionStats()
        mixed = [add(ArithType.INT)] * 10 + [send(64, 1)]
        net.sim.process(make_node_pipeline(net, 0, iter(mixed), node0,
                                           stats=stats))
        net.sim.process(make_node_pipeline(net, 1, iter([recv(0)])))
        net.sim.run(check_deadlock=True)
        assert stats.computational_ops == 10
        assert stats.tasks_emitted == 1
        assert net.activity[0].compute_cycles == pytest.approx(
            stats.total_task_cycles)

    def test_with_stream_round_trips_payloads(self):
        net = MultiNodeModel(machine())
        got = []

        def sender_body(th):
            th.global_event(send(64, 1), payload="hello")

        def receiver_body(th):
            got.append(th.global_event(recv(0)))

        m = machine()
        streams = [InterleavedStream(NodeThread(0, sender_body)),
                   InterleavedStream(NodeThread(1, receiver_body))]
        models = [SingleNodeModel(m.node, node_id=i) for i in range(2)]
        try:
            for i, stream in enumerate(streams):
                net.sim.process(make_node_pipeline(net, i, stream,
                                                   models[i], stream))
            net.sim.run(check_deadlock=True)
        finally:
            for s in streams:
                s.close()
        assert got == ["hello"]
