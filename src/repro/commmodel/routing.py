"""Routing strategies — "a configurable routing ... strategy" (Sec 4.2).

A routing function maps (source, destination) to the full node path the
packet will take.  Both strategies here are deterministic and minimal:

* **dimension-order** — the classic multicomputer scheme: correct one
  coordinate axis at a time (X then Y then ...), taking the shorter way
  around on tori; on hypercubes, fix differing address bits from LSB to
  MSB.  Deadlock-free on meshes and hypercubes; on rings/tori the
  wormhole engine adds dateline virtual channels to break the cycle.
* **shortest-path** — BFS next-hop tables over the arbitrary topology
  graph (lowest-numbered next hop breaks ties, so paths are
  deterministic and consistent hop by hop).
* **random-minimal** (adaptive, an extension the template's
  "configurable routing strategy" invites) — every packet samples a
  uniformly random *minimal* path, spreading load across the minimal
  DAG.  Seeded, hence reproducible.  Note: non-dimension-ordered paths
  can create cyclic channel dependencies, so pair it with buffered
  switching (store-and-forward / virtual cut-through), not wormhole.
"""

from __future__ import annotations

import numpy as np

from ..config import ConfigError
from ..topology import Topology

__all__ = ["RoutingFunction", "DimensionOrderRouting", "ShortestPathRouting",
           "RandomMinimalRouting", "make_routing"]


class RoutingFunction:
    """Base: computes complete (deterministic, minimal) node paths."""

    def __init__(self, topo: Topology) -> None:
        self.topo = topo
        self._cache: dict[tuple[int, int], list[int]] = {}

    def path(self, src: int, dst: int) -> list[int]:
        """Node sequence ``[src, ..., dst]`` (length 1 when src == dst)."""
        key = (src, dst)
        cached = self._cache.get(key)
        if cached is None:
            cached = self._compute(src, dst)
            self._cache[key] = cached
        return cached

    def hops(self, src: int, dst: int) -> int:
        return len(self.path(src, dst)) - 1

    def _compute(self, src: int, dst: int) -> list[int]:
        raise NotImplementedError


class DimensionOrderRouting(RoutingFunction):
    """Dimension-order (e-cube / XY) routing on mesh, torus or hypercube."""

    def __init__(self, topo: Topology) -> None:
        if topo.kind not in ("mesh", "torus", "hypercube", "ring"):
            raise ConfigError(
                f"dimension-order routing needs a mesh/torus/hypercube/ring "
                f"topology, not {topo.kind!r}")
        super().__init__(topo)
        if topo.kind != "hypercube":
            self._index = {c: i for i, c in enumerate(topo.coords or [])}

    def _compute(self, src: int, dst: int) -> list[int]:
        topo = self.topo
        if topo.kind == "hypercube":
            return self._hypercube_path(src, dst)
        if topo.kind == "ring":
            return self._ring_path(src, dst)
        return self._grid_path(src, dst)

    def _hypercube_path(self, src: int, dst: int) -> list[int]:
        path = [src]
        cur = src
        diff = src ^ dst
        bit = 0
        while diff:
            if diff & 1:
                cur ^= (1 << bit)
                path.append(cur)
            diff >>= 1
            bit += 1
        return path

    def _ring_path(self, src: int, dst: int) -> list[int]:
        n = self.topo.n
        path = [src]
        if src == dst:
            return path
        fwd = (dst - src) % n
        step = 1 if fwd <= n - fwd else -1
        cur = src
        while cur != dst:
            cur = (cur + step) % n
            path.append(cur)
        return path

    def _grid_path(self, src: int, dst: int) -> list[int]:
        topo = self.topo
        dims = topo.dims
        wrap = topo.kind == "torus"
        cur = list(topo.coords[src])
        goal = topo.coords[dst]
        path = [src]
        for axis, extent in enumerate(dims):
            while cur[axis] != goal[axis]:
                fwd = (goal[axis] - cur[axis]) % extent
                if wrap and extent > 2:
                    step = 1 if fwd <= extent - fwd else -1
                    cur[axis] = (cur[axis] + step) % extent
                else:
                    cur[axis] += 1 if goal[axis] > cur[axis] else -1
                path.append(self._index[tuple(cur)])
        return path


class ShortestPathRouting(RoutingFunction):
    """BFS next-hop tables for arbitrary topologies.

    The table is built lazily per destination; paths are hop-by-hop
    consistent (each node's next hop toward ``dst`` is fixed), which is
    what a table-driven hardware router would do.
    """

    def __init__(self, topo: Topology) -> None:
        super().__init__(topo)
        # _next_hop[dst][node] = neighbour of node one hop closer to dst.
        self._next_hop: dict[int, list[int]] = {}

    def _table_for(self, dst: int) -> list[int]:
        table = self._next_hop.get(dst)
        if table is not None:
            return table
        topo = self.topo
        dist = topo.shortest_path_lengths(dst)
        if min(dist) < 0:
            raise ConfigError("topology is disconnected; no routes exist")
        table = [-1] * topo.n
        for node in range(topo.n):
            if node == dst:
                continue
            # Lowest-numbered neighbour strictly closer to dst.
            table[node] = min(v for v in topo.neighbors(node)
                              if dist[v] == dist[node] - 1)
        self._next_hop[dst] = table
        return table

    def _compute(self, src: int, dst: int) -> list[int]:
        if src == dst:
            return [src]
        table = self._table_for(dst)
        path = [src]
        cur = src
        while cur != dst:
            cur = table[cur]
            path.append(cur)
        return path


class RandomMinimalRouting(RoutingFunction):
    """Adaptive: a fresh uniformly-random minimal path per packet.

    The minimal-path DAG toward each destination is derived from BFS
    distances (cached per destination); :meth:`path` samples a walk
    through it.  Determinism comes from the seeded generator: the same
    seed and call sequence produce the same paths.
    """

    def __init__(self, topo: Topology, seed: int = 0) -> None:
        super().__init__(topo)
        self._rng = np.random.default_rng(seed)
        self._dist: dict[int, list[int]] = {}

    def _dist_to(self, dst: int) -> list[int]:
        dist = self._dist.get(dst)
        if dist is None:
            dist = self.topo.shortest_path_lengths(dst)
            if min(dist) < 0:
                raise ConfigError("topology is disconnected; no routes exist")
            self._dist[dst] = dist
        return dist

    def path(self, src: int, dst: int) -> list[int]:
        # No caching: each call is a fresh sample.
        if src == dst:
            return [src]
        dist = self._dist_to(dst)
        topo = self.topo
        rng = self._rng
        path = [src]
        cur = src
        while cur != dst:
            options = [v for v in topo.neighbors(cur)
                       if dist[v] == dist[cur] - 1]
            cur = options[int(rng.integers(len(options)))] \
                if len(options) > 1 else options[0]
            path.append(cur)
        return path

    def _compute(self, src: int, dst: int) -> list[int]:  # pragma: no cover
        return self.path(src, dst)


def make_routing(kind: str, topo: Topology,
                 seed: int = 0) -> RoutingFunction:
    """Build the routing function named by ``NetworkConfig.routing``."""
    if kind == "dimension_order":
        if topo.kind in ("mesh", "torus", "hypercube", "ring"):
            return DimensionOrderRouting(topo)
        # Dimension order is undefined on irregular graphs; fall back to
        # deterministic shortest-path, as a real workbench user would.
        return ShortestPathRouting(topo)
    if kind == "shortest_path":
        return ShortestPathRouting(topo)
    if kind == "random_minimal":
        return RandomMinimalRouting(topo, seed)
    raise ConfigError(f"unknown routing strategy {kind!r}")
