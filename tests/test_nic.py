"""NIC internals: buffering, matching order, completion, statistics."""

from __future__ import annotations

from repro.commmodel import MultiNodeModel
from repro.config import MachineConfig, NetworkConfig, TopologyConfig
from repro.operations import arecv, asend, compute, recv, send


def make_net(**net_kw) -> MultiNodeModel:
    defaults = dict(send_overhead=0.0, recv_overhead=0.0)
    defaults.update(net_kw)
    cfg = NetworkConfig(topology=TopologyConfig(kind="ring", dims=(4,)),
                        **defaults)
    return MultiNodeModel(MachineConfig(name="nic", network=cfg).validate())


class TestBuffering:
    def test_buffered_count(self):
        net = make_net()
        net.run([[send(64, 1), send(64, 1)],
                 [compute(10 ** 6)], [], []])
        assert net.nics[1].buffered_messages == 2

    def test_per_source_queues_independent(self):
        net = make_net()
        net.run([[send(64, 2)],
                 [send(64, 2)],
                 [compute(10 ** 6)], []])
        nic = net.nics[2]
        assert nic.buffered_messages == 2
        # Each source has its own FIFO.
        assert len(nic._arrivals[0]) == 1
        assert len(nic._arrivals[1]) == 1


class TestCompletionSemantics:
    def test_sync_sender_unblocked_at_delivery(self):
        net = make_net()
        res = net.run([[send(4096, 1), compute(1)],
                       [compute(10 ** 6), recv(0)], [], []])
        # Sender finished long before the receiver's recv executed.
        assert res.activity[0].finish_time < 10 ** 6

    def test_async_sender_never_tracked(self):
        net = make_net(send_overhead=5.0)
        net.run([[asend(1 << 16, 1)], [recv(0)], [], []])
        assert not net.nics[0]._sync_events    # nothing left registered

    def test_sync_event_registry_drains(self):
        net = make_net()
        net.run([[send(64, 1)] * 5, [recv(0)] * 5, [], []])
        assert not net.nics[0]._sync_events


class TestStats:
    def test_summary_shape(self):
        net = make_net(send_overhead=10.0, recv_overhead=10.0)
        net.run([[send(100, 1)], [recv(0)], [], []])
        tx = net.nics[0].stats.summary()
        rx = net.nics[1].stats.summary()
        assert tx["messages_sent"] == 1
        assert tx["bytes_sent"] == 100
        assert rx["messages_received"] == 1
        assert rx["bytes_received"] == 100
        assert rx["recv_wait"]["count"] == 1

    def test_send_wait_records_latency(self):
        net = make_net()
        net.run([[send(8192, 1)], [recv(0)], [], []])
        wait = net.nics[0].stats.send_wait
        assert wait.count == 1
        assert wait.mean > 0

    def test_preposted_counter(self):
        net = make_net()
        net.run([[compute(10 ** 5), send(64, 1)],
                 [arecv(0)], [], []])
        assert net.nics[1].stats.pre_posted == 1


class TestWaiterOrdering:
    def test_multiple_pending_recvs_fifo(self):
        """Two queued receives from one source match arrivals in order."""
        net = make_net()
        log = []
        ops1 = [recv(0), recv(0)]
        payloads = iter(["first", "second"])
        net.sim.process(net.node_driver(
            0, iter([send(64, 1), send(64, 1)]),
            payload_source=lambda: next(payloads)))
        net.sim.process(net.node_driver(1, iter(ops1),
                                        result_sink=log.append))
        net.sim.process(net.node_driver(2, iter([])))
        net.sim.process(net.node_driver(3, iter([])))
        net.sim.run(check_deadlock=True)
        assert log == ["first", "second"]

    def test_recv_any_does_not_steal_specific_recv(self):
        """A specific recv posted before a recv_any gets its message."""
        from repro.commmodel import RecvAnyEvent
        net = make_net()
        log = []

        def observer(tag):
            def sink(value):
                log.append((tag, value))
            return sink

        # Node 0 posts recv(1) at t=0, then recv_any at the same time
        # via a second driver op; node 1 sends once.
        net.sim.process(net.node_driver(
            0, iter([recv(1)]), result_sink=observer("specific")))
        net.sim.process(net.node_driver(
            3, iter([RecvAnyEvent([1, 2])]), result_sink=observer("any")))
        net.sim.process(net.node_driver(1, iter([send(64, 0),
                                                 send(64, 3)])))
        net.sim.process(net.node_driver(2, iter([])))
        net.sim.run(check_deadlock=True)
        kinds = dict(log)
        assert "specific" in kinds          # recv(1) was satisfied
        assert kinds["any"][0] == 1         # recv_any saw node 1's send
