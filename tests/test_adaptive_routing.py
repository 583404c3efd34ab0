"""Random-minimal (adaptive) routing."""

from __future__ import annotations

import pytest

from repro.commmodel import MultiNodeModel, RandomMinimalRouting, make_routing
from repro.config import (
    ConfigError,
    MachineConfig,
    NetworkConfig,
    TopologyConfig,
)
from repro.operations import recv, send
from repro.topology import mesh, torus


class TestPaths:
    def test_paths_minimal_and_valid(self):
        topo = torus(4, 4)
        r = RandomMinimalRouting(topo, seed=3)
        for src in range(topo.n):
            dist = topo.shortest_path_lengths(src)
            for dst in range(topo.n):
                if src == dst:
                    assert r.path(src, dst) == [src]
                    continue
                for _ in range(3):
                    path = r.path(src, dst)
                    assert path[0] == src and path[-1] == dst
                    assert len(path) - 1 == dist[dst]
                    for u, v in zip(path, path[1:]):
                        assert v in topo.neighbors(u)

    def test_samples_multiple_paths(self):
        topo = mesh(4, 4)
        r = RandomMinimalRouting(topo, seed=1)
        paths = {tuple(r.path(0, 15)) for _ in range(50)}
        assert len(paths) > 3    # many distinct minimal routes used

    def test_seed_determinism(self):
        topo = mesh(4, 4)
        a = RandomMinimalRouting(topo, seed=9)
        b = RandomMinimalRouting(topo, seed=9)
        for _ in range(20):
            assert a.path(0, 15) == b.path(0, 15)

    def test_make_routing(self):
        assert isinstance(make_routing("random_minimal", mesh(2, 2)),
                          RandomMinimalRouting)


class TestConfigGuards:
    def test_wormhole_combination_rejected(self):
        cfg = NetworkConfig(routing="random_minimal", switching="wormhole")
        with pytest.raises(ConfigError, match="deadlock"):
            cfg.validate()

    def test_buffered_switching_allowed(self):
        NetworkConfig(routing="random_minimal",
                      switching="virtual_cut_through").validate()


class TestLoadSpreading:
    def _machine(self, routing: str) -> MachineConfig:
        return MachineConfig(
            name=f"adaptive-{routing}",
            network=NetworkConfig(
                topology=TopologyConfig(kind="mesh", dims=(4, 4)),
                routing=routing,
                switching="virtual_cut_through",
                packet_bytes=256,
                send_overhead=0.0, recv_overhead=0.0)).validate()

    def _run(self, routing: str):
        net = MultiNodeModel(self._machine(routing))
        n = net.n_nodes
        # Transpose-like permutation traffic: (r, c) -> (c, r); it
        # concentrates on the diagonal under dimension-order routing.
        streams = []
        for me in range(n):
            r_, c_ = divmod(me, 4)
            partner = c_ * 4 + r_
            if partner == me:
                streams.append([])
            else:
                streams.append([send(8192, partner), recv(partner)])
        net.run(streams)
        return net

    def test_adaptive_spreads_load(self):
        deterministic = self._run("dimension_order")
        adaptive = self._run("random_minimal")
        det_max = deterministic.engine.max_link_utilization()
        ada_max = adaptive.engine.max_link_utilization()
        assert ada_max < det_max

    def test_all_messages_still_delivered(self):
        net = self._run("random_minimal")
        assert net.engine.messages_delivered == 12   # 16 - 4 diagonal
