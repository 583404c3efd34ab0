"""Fat-tree multistage interconnect: switch nodes and fat links."""

from __future__ import annotations

import pytest

from repro import Workbench
from repro.apps import alltoall_task_traces, pingpong_task_traces
from repro.commmodel import MultiNodeModel
from repro.config import (
    ConfigError,
    MachineConfig,
    NetworkConfig,
    TopologyConfig,
)
from repro.operations import recv, send
from repro.topology import build_topology, fat_tree


def machine(arity=2, height=3, switching="virtual_cut_through"
            ) -> MachineConfig:
    return MachineConfig(
        name="fattree",
        network=NetworkConfig(
            topology=TopologyConfig(kind="fat_tree", dims=(arity, height)),
            routing="shortest_path",
            switching=switching)).validate()


class TestTopology:
    def test_shape(self):
        t = fat_tree(2, 3)
        assert t.n_endpoints == 8
        assert t.n == 8 + 4 + 2 + 1
        assert t.has_switches
        assert t.is_endpoint(7) and not t.is_endpoint(8)
        assert t.is_connected()

    def test_arity_4(self):
        t = fat_tree(4, 2)
        assert t.n_endpoints == 16
        assert t.n == 16 + 4 + 1

    def test_fat_link_capacities_double_per_level(self):
        t = fat_tree(2, 3)
        # Leaf links (0..7 to first-level switches) carry 1.0.
        assert t.link_capacity(0, 8) == 1.0
        # Each level up doubles.
        lvl1 = t.link_capacity(8, 12)
        lvl2 = t.link_capacity(12, 14)
        assert lvl1 == 2.0 and lvl2 == 4.0

    def test_leaf_distance(self):
        t = fat_tree(2, 3)
        d = t.shortest_path_lengths(0)
        assert d[1] == 2          # siblings via one switch
        assert d[7] == 6          # opposite side via the root

    def test_node_count_counts_leaves_only(self):
        cfg = TopologyConfig(kind="fat_tree", dims=(2, 3))
        assert cfg.n_nodes == 8
        assert build_topology(cfg).n_endpoints == 8

    def test_bad_shape(self):
        with pytest.raises(ConfigError):
            fat_tree(1, 3)
        with pytest.raises(ConfigError):
            fat_tree(2, 0)


class TestSimulation:
    def test_machine_n_nodes_is_endpoints(self):
        m = machine()
        assert m.n_nodes == 8
        net = MultiNodeModel(m)
        assert net.n_nodes == 8
        assert len(net.nics) == 8

    def test_traffic_routes_through_switches(self):
        net = MultiNodeModel(machine())
        res = net.run([[send(1024, 7)], [], [], [], [], [], [],
                       [recv(0)]])
        assert res.messages_delivered == 1
        # The path 0 -> 7 crosses the root: root links saw traffic.
        used = {k for k, v in res.link_utilization.items() if v > 0}
        assert any(int(k.split("->")[0]) >= 8 for k in used)

    def test_all_to_all_completes(self):
        wb = Workbench(machine())
        res = wb.run_comm_only(alltoall_task_traces(8, block_bytes=1024))
        assert res.messages_delivered == 8 * 7

    def test_full_bisection_beats_thin_tree(self):
        """The fat links are the point: the same traffic on a plain
        tree (every link capacity 1) takes longer."""
        fat = Workbench(machine()).run_comm_only(
            alltoall_task_traces(8, block_bytes=4096)).total_cycles

        # Thin tree: same shape but no capacity scaling — emulate by
        # building the machine around the plain `tree` topology with
        # endpoints at the leaves... the plain tree builder makes all
        # nodes endpoints, so instead thin out the fat tree manually.
        thin_topo = fat_tree(2, 3)
        thin_topo._capacity = {}          # all multipliers back to 1.0
        m = machine()
        net = MultiNodeModel(m)
        # Rebuild the engine over the thinned topology.
        from repro.commmodel import make_routing, make_switching
        net.topology = thin_topo
        net.routing = make_routing("shortest_path", thin_topo)
        net.engine = make_switching(net.sim, m.network, thin_topo,
                                    net.routing, net._on_delivery)
        for nic in net.nics:
            nic.inject = net.engine.inject
        thin = net.run(alltoall_task_traces(8, block_bytes=4096)
                       ).total_cycles
        assert fat < thin

    def test_wormhole_on_fat_tree(self):
        wb = Workbench(machine(switching="wormhole"))
        res = wb.run_comm_only(pingpong_task_traces(8, size=2048,
                                                    repeats=2, b=7))
        assert res.messages_delivered == 4

    def test_hybrid_application_runs(self):
        from repro.apps import make_reduction
        wb = Workbench(machine())
        res = wb.run_hybrid(make_reduction(local_elems=16))
        assert res.total_cycles > 0
