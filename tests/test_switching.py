"""Switching strategies: latency shapes, contention, packetization."""

from __future__ import annotations

import pytest

from repro.commmodel import MultiNodeModel
from repro.commmodel.message import Message
from repro.commmodel.routing import make_routing
from repro.commmodel.switching import make_switching
from repro.core.config import (
    ConfigError,
    MachineConfig,
    NetworkConfig,
    TopologyConfig,
)
from repro.faults import DownWindow, FaultInjector, FaultPlan
from repro.operations import recv, send
from repro.topology import build_topology


def machine(switching: str, *, kind="mesh", dims=(8, 1), **net_kw
            ) -> MachineConfig:
    defaults = dict(
        link_bandwidth=4.0,
        link_latency=1.0,
        packet_bytes=10 ** 9,       # one packet per message by default
        header_bytes=8,
        flit_bytes=8,
        routing_cycles=2.0,
        send_overhead=0.0,
        recv_overhead=0.0,
    )
    defaults.update(net_kw)
    net = NetworkConfig(
        topology=TopologyConfig(kind=kind, dims=dims),
        switching=switching,
        routing="dimension_order",
        **defaults)
    return MachineConfig(name=f"sw-{switching}", network=net).validate()


def one_way_latency(switching: str, size: int, hops: int, **net_kw) -> float:
    """Measured single-message latency over `hops` hops on a ring."""
    m = machine(switching, dims=(hops + 1, 1), **net_kw)
    net = MultiNodeModel(m)
    streams: list[list] = [[] for _ in range(net.n_nodes)]
    streams[0] = [send(size, hops)]
    streams[hops] = [recv(0)]
    net.run(streams)
    return net.message_latency.mean


def bare_engine(sim, switching: str, plan=None, **machine_kw):
    """A switching engine on ``sim`` with no NICs; returns it and the
    ``(message id, delivery time)`` log its deliver callback fills."""
    net = machine(switching, **machine_kw).network
    topo = build_topology(net.topology)
    injector = FaultInjector(plan, topo, sim) if plan is not None else None
    delivered: list[tuple[int, float]] = []
    engine = make_switching(sim, net, topo, make_routing(net.routing, topo),
                            lambda msg: delivered.append((msg.id, sim.now)),
                            injector=injector)
    return engine, delivered


class TestUncontendedLatency:
    """Closed-form checks of the three switching disciplines."""

    SIZE = 1024     # payload bytes
    BW = 4.0
    HDR = 8
    RT = 2.0        # routing cycles
    LL = 1.0        # link latency

    def test_store_and_forward_formula(self):
        hops = 3
        total = self.SIZE + self.HDR
        expected = hops * (self.RT + total / self.BW + self.LL)
        assert one_way_latency("store_and_forward", self.SIZE, hops) == \
            pytest.approx(expected)

    def test_virtual_cut_through_formula(self):
        hops = 3
        body = self.SIZE
        expected = hops * (self.RT + self.HDR / self.BW + self.LL) \
            + body / self.BW
        assert one_way_latency("virtual_cut_through", self.SIZE, hops) == \
            pytest.approx(expected)

    def test_wormhole_formula(self):
        hops = 3
        flit = 8
        total = self.SIZE + self.HDR
        expected = hops * (self.RT + flit / self.BW + self.LL) \
            + (total - flit) / self.BW
        assert one_way_latency("wormhole", self.SIZE, hops) == \
            pytest.approx(expected)

    def test_pipelining_beats_store_and_forward_multihop(self):
        saf = one_way_latency("store_and_forward", 4096, 4)
        vct = one_way_latency("virtual_cut_through", 4096, 4)
        wh = one_way_latency("wormhole", 4096, 4)
        assert vct < saf
        assert wh < saf

    def test_single_hop_saf_equals_vct_bodywise(self):
        saf = one_way_latency("store_and_forward", 4096, 1)
        vct = one_way_latency("virtual_cut_through", 4096, 1)
        assert vct == pytest.approx(saf)

    def test_latency_affine_in_size(self):
        lat = [one_way_latency("wormhole", s, 2) for s in (1000, 2000, 3000)]
        assert lat[2] - lat[1] == pytest.approx(lat[1] - lat[0])


class TestPacketization:
    def test_message_split_into_packets(self):
        m = machine("store_and_forward", dims=(3, 1), packet_bytes=256)
        net = MultiNodeModel(m)
        streams = [[send(1000, 1)], [recv(0)], []]
        net.run(streams)
        # ceil(1000/256) = 4 packets.
        assert net.engine.packet_latency.count == 4

    def test_zero_byte_message_single_packet(self):
        m = machine("wormhole", dims=(3, 1))
        net = MultiNodeModel(m)
        net.run([[send(0, 1)], [recv(0)], []])
        assert net.engine.packet_latency.count == 1
        assert net.engine.messages_delivered == 1

    def test_packet_pipelining_overlaps(self):
        """Many small packets through SAF should pipeline across hops:
        faster than the serial sum over (hops x packets)."""
        m = machine("store_and_forward", dims=(4, 1), packet_bytes=128)
        net = MultiNodeModel(m)
        net.run([[send(1024, 3)], [], [], [recv(0)]])
        per_hop = 2.0 + (128 + 8) / 4.0 + 1.0
        n_packets = 8
        hops = 3
        serial = n_packets * hops * per_hop
        pipelined_bound = (hops + n_packets) * per_hop
        assert net.sim.now < serial
        assert net.sim.now <= pipelined_bound * 1.1


class TestContention:
    def test_shared_link_serializes(self):
        """Two flows crossing one link take ~2x one flow."""
        def run_flows(n_flows: int) -> float:
            m = machine("store_and_forward", kind="star", dims=(4,),
                        packet_bytes=10 ** 9)
            # star: all traffic crosses the hub (node 0).
            net = MultiNodeModel(m)
            streams: list[list] = [[] for _ in range(4)]
            for f in range(n_flows):
                streams[1 + f] = [send(4096, 3)]
            streams[3] = [recv(1 + f) for f in range(n_flows)]
            net.run(streams)
            return net.sim.now

        t1 = run_flows(1)
        t2 = run_flows(2)
        # First hops (1->0, 2->0) are disjoint; the shared hub link
        # (0->3) serializes, adding one full packet time: ~1.5x total.
        assert t2 > 1.4 * t1

    def test_wormhole_blocks_holding_path(self):
        """A blocked worm holds upstream links: a third flow that shares
        them is delayed even though its own destination link is free."""
        m = machine("wormhole", dims=(6, 1), packet_bytes=10 ** 9)
        net = MultiNodeModel(m)
        streams: list[list] = [[] for _ in range(6)]
        # Flow A: 0->3 (long message saturating links 0-1-2-3).
        streams[0] = [send(8192, 3)]
        streams[3] = [recv(0)]
        # Flow B: 1->2 shares link 1->2 with the worm.
        streams[1] = [send(64, 2)]
        streams[2] = [recv(1)]
        net.run(streams)
        # B's tiny message (the faster of the two) must still exceed its
        # uncontended latency: the worm held the shared link.
        uncontended = one_way_latency("wormhole", 64, 1)
        assert net.message_latency.count == 2
        assert net.message_latency.min > uncontended * 0.99


class TestVirtualChannels:
    def test_wormhole_ring_all_to_all_completes(self):
        """Without dateline VCs this cyclic pattern can deadlock."""
        m = machine("wormhole", kind="ring", dims=(6,), packet_bytes=10 ** 9)
        net = MultiNodeModel(m)
        n = 6
        streams = []
        for me in range(n):
            ops = []
            for r in range(1, n):
                ops.append(send(512, (me + r) % n))
                ops.append(recv((me - r) % n))
            streams.append(ops)
        res = net.run(streams)
        assert res.messages_delivered == n * (n - 1)

    def test_wormhole_torus_exchange_completes(self):
        m = machine("wormhole", kind="torus", dims=(4, 4),
                    packet_bytes=10 ** 9)
        net = MultiNodeModel(m)
        n = 16
        streams = []
        for me in range(n):
            partner = (me + 8) % n
            streams.append([send(1024, partner), recv(partner)])
        res = net.run(streams)
        assert res.messages_delivered == n


class TestErrors:
    def test_self_send_rejected(self):
        m = machine("wormhole", dims=(3, 1))
        net = MultiNodeModel(m)
        with pytest.raises(Exception):
            net.run([[send(64, 0)], [], []])

    def test_rejected_message_is_not_counted(self, sim):
        engine, _ = bare_engine(sim, "wormhole", dims=(3, 1))
        msg = Message(1, 1, 64, synchronous=False)
        with pytest.raises(ConfigError, match="source equals destination"):
            engine.inject(msg)
        assert engine.messages_injected == 0
        assert msg.t_inject == 0.0 and msg.n_packets == 0
        assert sim.live_processes == 0


class TestVirtualCutThroughRelease:
    def test_release_behind_a_down_window_still_frees_the_vc(self, sim):
        """A VCT body releases its VC on schedule even while the header
        waits out a down window one hop further on."""
        plan = FaultPlan(link_down=[DownWindow(5.0, 500.0, src=1, dst=2)])
        engine, delivered = bare_engine(sim, "virtual_cut_through", plan,
                                        dims=(3, 1))
        far = Message(0, 2, 256, synchronous=False)
        near = Message(0, 1, 256, synchronous=False)

        def driver():
            engine.inject(far)
            yield 10.0
            engine.inject(near)

        sim.process(driver())
        sim.run()
        # far: routing 2 + header 2 on 0->1 (body frees the VC at 68),
        # link latency 1, then waits to 500 for 1->2; 2 + 2 + 1 + 64.
        # near: queued on 0->1 from 12 to 68, then 2 + 1 + 64.
        assert delivered == [(near.id, 135.0), (far.id, 569.0)]
        assert engine.injector.down_waits == 1
        vcs = [vc for link in engine.links.values() for vc in link.vcs]
        assert all(vc.in_use == 0 and vc.queue_length == 0 for vc in vcs)
        assert sum(vc.acquisitions for vc in vcs) == 3
