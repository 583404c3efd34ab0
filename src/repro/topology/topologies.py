"""Interconnect topologies for the multi-node communication model.

"The nodes are connected in a topology reflecting the physical
interconnect of the multicomputer" (Section 4.2).  A
:class:`Topology` is a directed graph over nodes ``0..n-1`` whose
directed edges are the (full-duplex → two opposite unidirectional)
physical links; routers use it for neighbour enumeration and the
routing functions use the coordinate systems it exposes.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Sequence

from ..config import ConfigError, TopologyConfig

__all__ = ["Topology", "build_topology", "mesh",
           "torus", "hypercube", "ring", "star", "tree", "fat_tree",
           "full"]


class Topology:
    """An interconnect graph with optional node coordinates.

    Attributes
    ----------
    kind:
        Topology family name ("mesh", "torus", ...).
    n:
        Number of nodes (numbered ``0..n-1``).
    coords:
        Per-node coordinate tuples for mesh/torus (used by
        dimension-order routing); ``None`` otherwise.
    dims:
        The extents the topology was built from.
    """

    def __init__(self, kind: str, n: int,
                 edges: Sequence[tuple[int, int]],
                 coords: Optional[list[tuple[int, ...]]] = None,
                 dims: tuple[int, ...] = (),
                 n_endpoints: Optional[int] = None,
                 capacity: Optional[dict] = None) -> None:
        self.kind = kind
        self.n = n
        self.dims = dims
        self.coords = coords
        # Endpoints are the compute nodes (always numbered 0..P-1);
        # nodes P..n-1 are pure switches (multistage interconnects,
        # fat-tree internal nodes).  Default: every node is an endpoint.
        self.n_endpoints = n if n_endpoints is None else n_endpoints
        if not 0 < self.n_endpoints <= n:
            raise ConfigError(
                f"n_endpoints {n_endpoints} out of range for n={n}")
        # Per-undirected-link capacity multiplier (fat links); links
        # absent from the map have multiplier 1.0.
        self._capacity = dict(capacity) if capacity else {}
        self._adj: list[list[int]] = [[] for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise ConfigError(f"self-loop on node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ConfigError(f"edge ({u},{v}) out of range for n={n}")
            for a, b in ((u, v), (v, u)):
                if (a, b) not in seen:
                    seen.add((a, b))
                    self._adj[a].append(b)
        for nbrs in self._adj:
            nbrs.sort()

    # -- graph queries ------------------------------------------------------

    def neighbors(self, node: int) -> list[int]:
        """Neighbours of ``node`` in ascending order (stable port order)."""
        return self._adj[node]

    def degree(self, node: int) -> int:
        return len(self._adj[node])

    def links(self) -> Iterator[tuple[int, int]]:
        """All unidirectional links (u, v)."""
        for u in range(self.n):
            for v in self._adj[u]:
                yield (u, v)

    @property
    def n_links(self) -> int:
        return sum(len(a) for a in self._adj)

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in self._adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.n

    def shortest_path_lengths(self, source: int) -> list[int]:
        """BFS hop counts from ``source`` (unreachable = -1)."""
        dist = [-1] * self.n
        dist[source] = 0
        frontier = [source]
        while frontier:
            nxt = []
            for u in frontier:
                for v in self._adj[u]:
                    if dist[v] < 0:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        return dist

    def shortest_path_avoiding(self, src: int, dst: int,
                               avoid) -> Optional[list[int]]:
        """BFS shortest path ``src -> dst`` using no directed link in
        ``avoid`` (a set of ``(u, v)`` pairs); ``None`` when the pruned
        graph disconnects the pair.  Neighbour order is ascending, so
        the chosen path is deterministic — the degraded-routing
        fallback of :mod:`repro.faults` depends on that.
        """
        if src == dst:
            return [src]
        avoid = frozenset(avoid)
        prev: dict[int, int] = {src: -1}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in self._adj[u]:
                    if v in prev or (u, v) in avoid:
                        continue
                    prev[v] = u
                    if v == dst:
                        path = [dst]
                        while path[-1] != src:
                            path.append(prev[path[-1]])
                        path.reverse()
                        return path
                    nxt.append(v)
            frontier = nxt
        return None

    def diameter(self) -> int:
        """Longest shortest path over all pairs (graph diameter)."""
        best = 0
        for s in range(self.n):
            d = self.shortest_path_lengths(s)
            m = max(d)
            if -1 in d:
                raise ConfigError("diameter undefined: topology disconnected")
            best = max(best, m)
        return best

    @property
    def has_switches(self) -> bool:
        return self.n_endpoints < self.n

    def is_endpoint(self, node: int) -> bool:
        return node < self.n_endpoints

    def link_capacity(self, u: int, v: int) -> float:
        """Bandwidth multiplier of link (u, v) (1.0 unless fat)."""
        return self._capacity.get((u, v) if u < v else (v, u), 1.0)

    def is_wrap_edge(self, u: int, v: int) -> bool:
        """True if (u, v) is a wraparound link of a ring or torus.

        Wrap links close the dimensional cycles that make wormhole
        routing deadlock-prone; the switching engine switches packets to
        the escape virtual channel when they cross one (dateline rule).
        """
        if self.kind == "ring":
            return abs(u - v) == self.n - 1 and self.n > 2
        if self.kind == "torus" and self.coords is not None:
            cu, cv = self.coords[u], self.coords[v]
            for axis, extent in enumerate(self.dims):
                if extent > 2 and abs(cu[axis] - cv[axis]) == extent - 1:
                    return True
        return False

    def __repr__(self) -> str:
        return (f"<Topology {self.kind} n={self.n} links={self.n_links}"
                + (f" dims={self.dims}" if self.dims else "") + ">")


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def mesh(*dims: int) -> Topology:
    """A k-dimensional mesh with the given extents (no wraparound)."""
    return _grid("mesh", dims, wrap=False)


def torus(*dims: int) -> Topology:
    """A k-dimensional torus (mesh with wraparound links)."""
    return _grid("torus", dims, wrap=True)


def _grid(kind: str, dims: Sequence[int], wrap: bool) -> Topology:
    if not dims or any(d < 1 for d in dims):
        raise ConfigError(f"bad {kind} dims {tuple(dims)}")
    coords = list(itertools.product(*(range(d) for d in dims)))
    index = {c: i for i, c in enumerate(coords)}
    n = len(coords)
    edges = []
    for c in coords:
        for axis, extent in enumerate(dims):
            if extent == 1:
                continue
            up = list(c)
            up[axis] += 1
            if up[axis] >= extent:
                if not wrap or extent == 2:
                    # extent-2 wraparound would duplicate the mesh edge
                    continue
                up[axis] = 0
            edges.append((index[c], index[tuple(up)]))
    return Topology(kind, n, edges, coords=coords, dims=tuple(dims))


def hypercube(dimension: int) -> Topology:
    """A binary d-cube: 2**d nodes, neighbours differ in one address bit."""
    if dimension < 0:
        raise ConfigError(f"bad hypercube dimension {dimension}")
    n = 1 << dimension
    edges = [(u, u ^ (1 << b)) for u in range(n) for b in range(dimension)
             if u < (u ^ (1 << b))]
    coords = [tuple((u >> b) & 1 for b in range(dimension)) for u in range(n)]
    return Topology("hypercube", n, edges, coords=coords, dims=(dimension,))


def ring(n: int) -> Topology:
    """A bidirectional ring of ``n`` nodes."""
    if n < 1:
        raise ConfigError(f"bad ring size {n}")
    if n == 1:
        return Topology("ring", 1, [], dims=(1,))
    if n == 2:
        return Topology("ring", 2, [(0, 1)], dims=(2,))
    return Topology("ring", n, [(i, (i + 1) % n) for i in range(n)], dims=(n,))


def star(n: int) -> Topology:
    """Node 0 is the hub; all others connect only to it."""
    if n < 1:
        raise ConfigError(f"bad star size {n}")
    return Topology("star", n, [(0, i) for i in range(1, n)], dims=(n,))


def tree(arity: int, height: int) -> Topology:
    """A complete ``arity``-ary tree of the given ``height`` (root = 0).

    ``height`` counts edge levels: height 0 is a single node.
    """
    if arity < 1 or height < 0:
        raise ConfigError(f"bad tree shape arity={arity} height={height}")
    # Number of nodes in a complete arity-ary tree of given height.
    n = sum(arity ** h for h in range(height + 1))
    edges = []
    for parent in range(n):
        for k in range(arity):
            child = parent * arity + 1 + k
            if child < n:
                edges.append((parent, child))
    return Topology("tree", n, edges, dims=(arity, height))


def full(n: int) -> Topology:
    """A fully-connected (crossbar-like) interconnect."""
    if n < 1:
        raise ConfigError(f"bad full size {n}")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Topology("full", n, edges, dims=(n,))


def fat_tree(arity: int, height: int) -> Topology:
    """A fat-tree multistage interconnect (CM-5 style).

    Compute endpoints are the ``arity**height`` leaves (nodes
    ``0..P-1``); internal tree nodes are pure switches.  Upward links
    get a capacity multiplier of ``arity**level`` (level 1 just above
    the leaves), so total bandwidth is preserved toward the root — the
    defining fat-tree property giving full bisection bandwidth.
    """
    if arity < 2 or height < 1:
        raise ConfigError(
            f"bad fat-tree shape arity={arity} height={height}")
    n_leaves = arity ** height
    # Number the leaves 0..P-1, then switches level by level upward.
    n_switches = sum(arity ** h for h in range(height))
    n = n_leaves + n_switches
    edges = []
    capacity: dict[tuple[int, int], float] = {}

    # switch_id(level, index): level 1 = just above leaves (arity**(h-1)
    # switches) ... level == height is the single root.
    offsets = {}
    cursor = n_leaves
    for level in range(1, height + 1):
        offsets[level] = cursor
        cursor += arity ** (height - level)

    def switch_id(level: int, index: int) -> int:
        return offsets[level] + index

    # Leaves to level-1 switches.
    for leaf in range(n_leaves):
        parent = switch_id(1, leaf // arity)
        edges.append((leaf, parent))
        capacity[(min(leaf, parent), max(leaf, parent))] = 1.0
    # Switch levels upward, with fattening links.
    for level in range(1, height):
        n_this = arity ** (height - level)
        for index in range(n_this):
            child = switch_id(level, index)
            parent = switch_id(level + 1, index // arity)
            edges.append((child, parent))
            capacity[(min(child, parent), max(child, parent))] = \
                float(arity ** level)
    return Topology("fat_tree", n, edges, dims=(arity, height),
                    n_endpoints=n_leaves, capacity=capacity)


def build_topology(cfg: TopologyConfig) -> Topology:
    """Instantiate a :class:`Topology` from its configuration."""
    kind, dims = cfg.kind, tuple(cfg.dims)
    if kind == "mesh":
        return mesh(*dims)
    if kind == "torus":
        return torus(*dims)
    if kind == "hypercube":
        return hypercube(dims[0])
    if kind == "ring":
        return ring(dims[0])
    if kind == "star":
        return star(dims[0])
    if kind == "tree":
        if len(dims) != 2:
            raise ConfigError("tree topology needs dims=(arity, height)")
        return tree(dims[0], dims[1])
    if kind == "fat_tree":
        if len(dims) != 2:
            raise ConfigError("fat_tree topology needs dims=(arity, height)")
        return fat_tree(dims[0], dims[1])
    if kind == "full":
        return full(dims[0])
    raise ConfigError(f"unknown topology kind {kind!r}")
