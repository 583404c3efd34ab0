"""Topology builders: sizes, degrees, diameters, wrap edges."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.config import ConfigError, TopologyConfig
from repro.topology import (
    Topology,
    build_topology,
    full,
    hypercube,
    mesh,
    ring,
    star,
    torus,
    tree,
)


class TestMesh:
    def test_size_and_links(self):
        t = mesh(3, 4)
        assert t.n == 12
        # links: horizontal 3*3*2 + vertical 2*4*2 = 34 directed
        assert t.n_links == 2 * (3 * (4 - 1) + 4 * (3 - 1))

    def test_corner_and_center_degrees(self):
        t = mesh(3, 3)
        assert t.degree(0) == 2         # corner
        assert t.degree(4) == 4         # center

    def test_diameter(self):
        assert mesh(4, 4).diameter() == 6
        assert mesh(1, 8).diameter() == 7

    def test_3d(self):
        t = mesh(2, 2, 2)
        assert t.n == 8
        assert t.diameter() == 3

    def test_coords(self):
        t = mesh(2, 3)
        assert t.coords[0] == (0, 0)
        assert t.coords[5] == (1, 2)


class TestTorus:
    def test_wraparound_reduces_diameter(self):
        assert torus(4, 4).diameter() == 4
        assert mesh(4, 4).diameter() == 6

    def test_uniform_degree(self):
        t = torus(4, 4)
        assert all(t.degree(i) == 4 for i in range(16))

    def test_extent2_no_duplicate_edges(self):
        t = torus(2, 2)
        assert t.n_links == mesh(2, 2).n_links

    def test_wrap_edge_detection(self):
        t = torus(4, 4)
        wraps = [(u, v) for (u, v) in t.links() if t.is_wrap_edge(u, v)]
        # per row and per column one wrap pair -> 4+4 bidirectional = 16.
        assert len(wraps) == 16
        assert not any(mesh(4, 4).is_wrap_edge(u, v)
                       for u, v in mesh(4, 4).links())


class TestHypercube:
    @pytest.mark.parametrize("d", [0, 1, 2, 3, 4])
    def test_size_degree_diameter(self, d):
        t = hypercube(d)
        assert t.n == 2 ** d
        if d:
            assert all(t.degree(i) == d for i in range(t.n))
            assert t.diameter() == d

    def test_neighbors_differ_one_bit(self):
        t = hypercube(4)
        for u in range(t.n):
            for v in t.neighbors(u):
                assert bin(u ^ v).count("1") == 1


class TestOthers:
    def test_ring(self):
        t = ring(6)
        assert t.n == 6 and all(t.degree(i) == 2 for i in range(6))
        assert t.diameter() == 3
        assert ring(1).n == 1
        assert ring(2).n_links == 2

    def test_ring_wrap_edge(self):
        t = ring(5)
        assert t.is_wrap_edge(0, 4) and t.is_wrap_edge(4, 0)
        assert not t.is_wrap_edge(1, 2)

    def test_star(self):
        t = star(5)
        assert t.degree(0) == 4
        assert all(t.degree(i) == 1 for i in range(1, 5))
        assert t.diameter() == 2

    def test_tree(self):
        t = tree(2, 3)   # complete binary tree height 3
        assert t.n == 15
        assert t.degree(0) == 2
        assert t.degree(14) == 1
        assert t.diameter() == 6

    def test_full(self):
        t = full(5)
        assert t.n_links == 5 * 4
        assert t.diameter() == 1


class TestGraphOps:
    def test_connectivity(self):
        assert mesh(3, 3).is_connected()
        disconnected = Topology("custom", 4, [(0, 1), (2, 3)])
        assert not disconnected.is_connected()
        with pytest.raises(ConfigError):
            disconnected.diameter()

    def test_bfs_distances(self):
        t = ring(8)
        d = t.shortest_path_lengths(0)
        assert d[4] == 4 and d[7] == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ConfigError):
            Topology("bad", 2, [(0, 0)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ConfigError):
            Topology("bad", 2, [(0, 5)])

    def test_duplicate_edges_deduplicated(self):
        t = Topology("custom", 2, [(0, 1), (1, 0), (0, 1)])
        assert t.n_links == 2


class TestBuildAndCount:
    @pytest.mark.parametrize("kind,dims", [
        ("mesh", (3, 4)), ("torus", (4, 4)), ("hypercube", (3,)),
        ("ring", (7,)), ("star", (5,)), ("tree", (2, 3)), ("full", (6,))])
    def test_node_count_matches_build(self, kind, dims):
        cfg = TopologyConfig(kind=kind, dims=dims)
        assert build_topology(cfg).n == cfg.n_nodes

    def test_bad_kind(self):
        with pytest.raises(ConfigError):
            build_topology(TopologyConfig(kind="klein-bottle", dims=(2,)))

    def test_bad_dims(self):
        with pytest.raises(ConfigError):
            mesh()
        with pytest.raises(ConfigError):
            ring(0)
        with pytest.raises(ConfigError):
            tree(0, 2)

    @given(st.integers(2, 5), st.integers(2, 5))
    def test_mesh_diameter_formula(self, a, b):
        assert mesh(a, b).diameter() == (a - 1) + (b - 1)


class TestShortestPathAvoiding:
    """Degraded-routing support: BFS around an avoid-set of links."""

    def test_plain_shortest_path_when_nothing_avoided(self):
        t = mesh(2, 2)
        assert t.shortest_path_avoiding(0, 3, set()) in ([0, 1, 3],
                                                         [0, 2, 3])

    def test_detour_around_directed_link(self):
        t = mesh(2, 2)
        path = t.shortest_path_avoiding(0, 1, {(0, 1)})
        assert path == [0, 2, 3, 1]
        # Only the 0->1 direction is avoided; the reverse is intact.
        assert t.shortest_path_avoiding(1, 0, {(0, 1)}) == [1, 0]

    def test_none_when_destination_is_cut_off(self):
        t = star(4)                       # hub 0, leaves 1..3
        assert t.shortest_path_avoiding(1, 2, {(0, 2)}) is None

    def test_src_equals_dst(self):
        assert mesh(2, 2).shortest_path_avoiding(2, 2, {(0, 1)}) == [2]

    def test_deterministic_choice_prefers_low_neighbors(self):
        # Both [0,1,3] and [0,2,3] are shortest on the 2x2 mesh; BFS in
        # ascending neighbour order must always return the same one.
        t = mesh(2, 2)
        paths = {tuple(t.shortest_path_avoiding(0, 3, frozenset()))
                 for _ in range(8)}
        assert paths == {(0, 1, 3)}

    def test_avoiding_everything_out_of_a_node(self):
        t = ring(5)
        avoid = {(0, 1), (0, 4)}
        assert t.shortest_path_avoiding(0, 2, avoid) is None
