"""The multi-node model: NIC semantics, drivers, accounting, deadlock."""

from __future__ import annotations

import pytest

from repro.commmodel import Message, MultiNodeModel
from repro.config import MachineConfig, NetworkConfig, TopologyConfig
from repro.operations import arecv, asend, compute, ifetch, recv, send
from repro.pearl import DeadlockError


def make_net(n=4, send_overhead=100.0, recv_overhead=100.0,
             **net_kw) -> MultiNodeModel:
    cfg = NetworkConfig(topology=TopologyConfig(kind="ring", dims=(n,)),
                        send_overhead=send_overhead,
                        recv_overhead=recv_overhead, **net_kw)
    return MultiNodeModel(MachineConfig(name="net", network=cfg).validate())


class TestBasics:
    def test_compute_only(self):
        net = make_net()
        res = net.run([[compute(100)], [compute(250)], [], []])
        assert res.total_cycles == 250.0
        assert res.activity[1].compute_cycles == 250.0

    def test_messages_delivered_and_latency(self):
        net = make_net()
        res = net.run([[send(512, 1)], [recv(0)], [], []])
        assert res.messages_delivered == 1
        assert res.message_latency.count == 1
        assert res.message_latency.mean > 0

    def test_wrong_stream_count(self):
        net = make_net(4)
        with pytest.raises(ValueError, match="4 op streams"):
            net.run([[], []])

    def test_computational_op_rejected(self):
        net = make_net()
        with pytest.raises(ValueError, match="task-level"):
            net.run([[ifetch(0)], [], [], []])

    def test_result_summary_shape(self):
        net = make_net()
        res = net.run([[send(64, 1)], [recv(0)], [], []])
        s = res.summary()
        assert s["machine"] == "net"
        assert len(s["nodes"]) == 4
        assert "engine" in s and "message_latency" in s


class TestSynchronousSemantics:
    def test_sync_send_blocks_until_delivery(self):
        net = make_net(send_overhead=0.0, recv_overhead=0.0)
        res = net.run([
            [send(4096, 1), compute(1)],
            [compute(50000), recv(0)],
            [], []])
        # Sender's compute(1) happens only after delivery: finish time of
        # node 0 >= message latency.
        assert res.activity[0].finish_time >= res.message_latency.mean

    def test_recv_blocks_until_arrival(self):
        net = make_net()
        res = net.run([
            [compute(10000), send(64, 1)],
            [recv(0)],
            [], []])
        assert res.activity[1].recv_wait_cycles > 5000

    def test_buffered_arrival_before_recv(self):
        net = make_net()
        res = net.run([
            [send(64, 1)],
            [compute(50000), recv(0)],
            [], []])
        # Message waited in the NIC buffer; recv sees no network wait.
        assert res.activity[1].recv_wait_cycles == pytest.approx(0.0)


class TestAsynchronousSemantics:
    def test_asend_does_not_block(self):
        net = make_net(send_overhead=10.0)
        res = net.run([
            [asend(1 << 20, 1), compute(5)],   # huge message
            [recv(0)],
            [], []])
        act = net.activity[0]
        # Sender finished after overhead + compute, long before delivery.
        assert act.finish_time < res.total_cycles

    def test_arecv_nonblocking_when_empty(self):
        net = make_net(recv_overhead=10.0)
        res = net.run([
            [compute(100000), send(64, 1)],
            [arecv(0), compute(7)],
            [], []])
        # Node 1 never waits for the late message.
        assert net.activity[1].finish_time < 100000
        # The arrival was absorbed by the pre-posted receive.
        assert net.nics[1].buffered_messages == 0
        assert net.nics[1].stats.pre_posted == 1

    def test_arecv_consumes_buffered(self):
        net = make_net()
        net.run([
            [send(64, 1)],
            [compute(100000), arecv(0)],
            [], []])
        assert net.nics[1].buffered_messages == 0
        assert net.nics[1].stats.pre_posted == 0


class TestOrdering:
    def test_fifo_between_pair(self):
        """Messages between one pair arrive (and match) in send order."""
        net = make_net(send_overhead=0.0, recv_overhead=0.0)
        payload_log = []
        # Use the hybrid hooks to observe matched payloads.
        sizes = [100, 2000, 50]
        ops0 = [send(s, 1) for s in sizes]
        payloads = iter(["a", "b", "c"])
        ops1 = [recv(0), recv(0), recv(0)]
        net.sim.process(net.node_driver(
            0, iter(ops0), payload_source=lambda: next(payloads)))
        net.sim.process(net.node_driver(
            1, iter(ops1), result_sink=payload_log.append))
        net.sim.process(net.node_driver(2, iter([])))
        net.sim.process(net.node_driver(3, iter([])))
        net.sim.run(check_deadlock=True)
        assert payload_log == ["a", "b", "c"]


class TestDeadlockDetection:
    def test_unmatched_recv_detected(self):
        net = make_net()
        with pytest.raises(DeadlockError) as exc:
            net.run([[recv(1)], [], [], []])
        assert any("node0" in name for name in exc.value.blocked)


class TestAccounting:
    def test_overhead_split(self):
        net = make_net(send_overhead=100.0, recv_overhead=100.0)
        res = net.run([
            [send(64, 1)],
            [compute(100000), recv(0)],
            [], []])
        a0 = res.activity[0]
        assert a0.overhead_cycles == pytest.approx(100.0)
        a1 = res.activity[1]
        assert a1.overhead_cycles == pytest.approx(100.0)
        assert a1.recv_wait_cycles == pytest.approx(0.0)

    def test_parallel_efficiency_bounds(self):
        net = make_net()
        res = net.run([[compute(100)], [compute(100)],
                       [compute(100)], [compute(100)]])
        assert res.parallel_efficiency() == pytest.approx(1.0)

    def test_link_utilization_reported(self):
        net = make_net()
        res = net.run([[send(4096, 1)], [recv(0)], [], []])
        assert any(u > 0 for u in res.link_utilization.values())


class TestMessageObject:
    def test_split_and_arrival_counting(self):
        msg = Message(0, 1, 1000, synchronous=True)
        pkts = msg.split(256, 8)
        assert len(pkts) == 4
        assert [p.payload_bytes for p in pkts] == [256, 256, 256, 232]
        assert all(p.total_bytes == p.payload_bytes + 8 for p in pkts)
        for _ in range(3):
            assert not msg.packet_arrived()
        assert msg.packet_arrived()
        with pytest.raises(ValueError):
            msg.packet_arrived()

    def test_zero_size_one_packet(self):
        msg = Message(0, 1, 0, synchronous=False)
        pkts = msg.split(256, 8)
        assert len(pkts) == 1 and pkts[0].total_bytes == 8

    def test_latency_requires_delivery(self):
        msg = Message(0, 1, 10, synchronous=True)
        with pytest.raises(ValueError):
            _ = msg.latency
