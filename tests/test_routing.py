"""Routing functions: dimension order and shortest path."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.commmodel import (
    DimensionOrderRouting,
    ShortestPathRouting,
    make_routing,
)
from repro.config import ConfigError
from repro.topology import full, hypercube, mesh, ring, star, torus, tree


def assert_valid_path(topo, path, src, dst):
    assert path[0] == src and path[-1] == dst
    for u, v in zip(path, path[1:]):
        assert v in topo.neighbors(u), f"{u}->{v} not a link"


class TestDimensionOrder:
    def test_mesh_xy_route(self):
        topo = mesh(4, 4)
        r = DimensionOrderRouting(topo)
        # node 0 = (0,0), node 15 = (3,3): x first then y (axis order).
        path = r.path(0, 15)
        coords = [topo.coords[n] for n in path]
        assert coords == [(0, 0), (1, 0), (2, 0), (3, 0),
                          (3, 1), (3, 2), (3, 3)]

    def test_mesh_routes_minimal(self):
        topo = mesh(4, 4)
        r = DimensionOrderRouting(topo)
        for src in range(16):
            d = topo.shortest_path_lengths(src)
            for dst in range(16):
                if src != dst:
                    assert r.hops(src, dst) == d[dst]

    def test_torus_takes_short_way_around(self):
        topo = torus(8, 2)
        r = DimensionOrderRouting(topo)
        # In an 8-wide torus, 0 -> coordinate 6 should wrap (2 hops).
        # node ids: coords (x, y) with y extent 2; (6,0) is node 12.
        assert r.hops(0, 12) == 2

    def test_hypercube_fixes_bits_lsb_first(self):
        topo = hypercube(3)
        r = DimensionOrderRouting(topo)
        assert r.path(0b000, 0b101) == [0b000, 0b001, 0b101]

    def test_hypercube_minimal(self):
        topo = hypercube(4)
        r = DimensionOrderRouting(topo)
        for src in (0, 5, 15):
            for dst in range(16):
                if src != dst:
                    assert r.hops(src, dst) == bin(src ^ dst).count("1")

    def test_ring_choses_shorter_direction(self):
        topo = ring(8)
        r = DimensionOrderRouting(topo)
        assert r.path(0, 2) == [0, 1, 2]
        assert r.path(0, 6) == [0, 7, 6]

    def test_rejects_irregular_topology(self):
        with pytest.raises(ConfigError):
            DimensionOrderRouting(star(4))

    def test_paths_are_cached(self):
        r = DimensionOrderRouting(mesh(3, 3))
        assert r.path(0, 8) is r.path(0, 8)


class TestShortestPath:
    @pytest.mark.parametrize("topo_factory", [
        lambda: mesh(3, 3), lambda: torus(4, 4), lambda: star(6),
        lambda: tree(2, 3), lambda: full(5), lambda: ring(7),
        lambda: hypercube(3)])
    def test_minimal_and_valid_everywhere(self, topo_factory):
        topo = topo_factory()
        r = ShortestPathRouting(topo)
        for src in range(topo.n):
            dists = topo.shortest_path_lengths(src)
            for dst in range(topo.n):
                if src == dst:
                    assert r.path(src, dst) == [src]
                    continue
                path = r.path(src, dst)
                assert_valid_path(topo, path, src, dst)
                assert len(path) - 1 == dists[dst]

    def test_hop_by_hop_consistency(self):
        """A packet rerouted mid-path must follow the same route."""
        topo = torus(4, 4)
        r = ShortestPathRouting(topo)
        for src in range(topo.n):
            for dst in range(topo.n):
                if src == dst:
                    continue
                path = r.path(src, dst)
                # Path from any intermediate node equals the tail.
                mid = path[len(path) // 2]
                assert r.path(mid, dst) == path[path.index(mid):]


class TestMakeRouting:
    def test_dimension_order_on_regular(self):
        assert isinstance(make_routing("dimension_order", mesh(2, 2)),
                          DimensionOrderRouting)

    def test_dimension_order_falls_back_on_irregular(self):
        assert isinstance(make_routing("dimension_order", star(4)),
                          ShortestPathRouting)

    def test_shortest_path(self):
        assert isinstance(make_routing("shortest_path", mesh(2, 2)),
                          ShortestPathRouting)

    def test_unknown(self):
        with pytest.raises(ConfigError):
            make_routing("valiant", mesh(2, 2))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4),
       st.data())
def test_dimension_order_valid_paths_property(rows, cols, data):
    topo = mesh(rows, cols)
    r = DimensionOrderRouting(topo)
    src = data.draw(st.integers(0, topo.n - 1))
    dst = data.draw(st.integers(0, topo.n - 1))
    if src != dst:
        assert_valid_path(topo, r.path(src, dst), src, dst)


class TestIrregularFallbackPaths:
    """The dimension-order -> shortest-path fallback must route every
    pair on irregular topologies (the ``repro.faults`` degraded-routing
    machinery leans on the same BFS)."""

    @pytest.mark.parametrize("topo", [star(5), tree(2, 2)])
    def test_all_pairs_routable(self, topo):
        routing = make_routing("dimension_order", topo)
        for src in range(topo.n):
            for dst in range(topo.n):
                if src == dst:
                    continue
                assert_valid_path(topo, routing.path(src, dst), src, dst)

    def test_fallback_paths_are_shortest(self):
        topo = star(6)
        routing = make_routing("dimension_order", topo)
        # Leaf to leaf is always exactly two hops through the hub.
        assert routing.path(1, 5) == [1, 0, 5]
