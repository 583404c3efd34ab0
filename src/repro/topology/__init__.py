"""``repro.topology`` — physical interconnect shapes (Fig 3b).

Builders for the common multicomputer topologies plus the generic
:class:`Topology` graph the routers and routing functions consume.
"""

from .topologies import (
    Topology,
    build_topology,
    fat_tree,
    full,
    hypercube,
    mesh,
    ring,
    star,
    torus,
    tree,
)

__all__ = [
    "Topology", "build_topology", "fat_tree", "full", "hypercube", "mesh",
    "ring", "star", "torus", "tree",
]
