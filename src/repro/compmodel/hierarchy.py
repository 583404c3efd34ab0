"""The memory hierarchy of a single-CPU node (Fig 3a, analytic path).

The hierarchy composes per-access latency from the caches, the bus and
the DRAM.  On a single-CPU node the bus can never be contended, so the
whole access path is *analytic* — a plain function call per operation,
no kernel interaction — which is exactly why Mermaid's detailed mode
stays orders of magnitude faster than instruction-level simulation.
(The multi-CPU, contention-accurate path lives in
:mod:`repro.compmodel.coherence`.)

Modelling choices (documented simplifications):

* caches are non-inclusive: an eviction at level *i+1* does not recall
  copies at level *i*;
* a dirty victim is written to the next level if the line is resident
  there, otherwise it goes to memory over the bus;
* write-through writes propagate one level down with their traffic
  counted but add no stall latency (an implicit write buffer);
* an access spanning two cache lines is modelled as two accesses.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..config import CacheLevelConfig, MemoryConfig, BusConfig
from .bus import Bus
from .cache import Cache, LineState
from .memory import DRAM

__all__ = ["CacheHierarchy", "AccessKind"]


class AccessKind:
    """Access discriminators used throughout the computational model."""

    READ = 0
    WRITE = 1
    IFETCH = 2


class CacheHierarchy:
    """Multi-level cache hierarchy + bus + DRAM for one CPU.

    Parameters
    ----------
    levels:
        Cache level configurations, nearest (L1) first.  May be empty:
        every access then goes straight to memory over the bus.
    bus_cfg / mem_cfg:
        Bus and DRAM parameters.
    rng:
        Source of randomness for ``replacement="random"`` caches.
    """

    def __init__(self, levels: list[CacheLevelConfig], bus_cfg: BusConfig,
                 mem_cfg: MemoryConfig,
                 rng: Optional[np.random.Generator] = None,
                 name: str = "node") -> None:
        rng = rng if rng is not None else np.random.default_rng(0)
        self.name = name
        self.data_path: list[Cache] = []
        self.instr_path: list[Cache] = []
        self.caches: list[Cache] = []      # all distinct caches, for stats
        for i, lvl in enumerate(levels):
            dcache = Cache(lvl.data, f"{name}.L{i + 1}d" if lvl.split
                           else f"{name}.L{i + 1}", rng)
            self.caches.append(dcache)
            self.data_path.append(dcache)
            if lvl.split:
                icache = Cache(lvl.instr, f"{name}.L{i + 1}i", rng)
                self.caches.append(icache)
                self.instr_path.append(icache)
            else:
                self.instr_path.append(dcache)
        self.bus = Bus(bus_cfg)
        self.memory = DRAM(mem_cfg)

    # -- public access path --------------------------------------------------

    def access_cycles(self, kind: int, address: int, nbytes: int = 4) -> float:
        """Latency (cycles) of one memory access, updating all state.

        ``kind`` is one of :class:`AccessKind`; instruction fetches walk
        the instruction path (split L1s) and are never writes.
        """
        path = self.instr_path if kind == AccessKind.IFETCH else self.data_path
        if not path:
            # Cacheless node: every access is a bus+memory transaction.
            return self._memory_access(kind == AccessKind.WRITE, nbytes)
        is_write = kind == AccessKind.WRITE
        line = path[0].cfg.line_bytes
        first = address - (address % line)
        last = (address + max(nbytes, 1) - 1)
        last_line = last - (last % line)
        total = self._access_line(path, is_write, address)
        if last_line != first:
            total += self._access_line(path, is_write, last_line)
        return total

    # -- internals ----------------------------------------------------------------

    def _access_line(self, path: list[Cache], is_write: bool,
                     address: int) -> float:
        latency = 0.0
        # Walk down until a hit (or memory).
        hit_level = -1
        for i, cache in enumerate(path):
            latency += cache.cfg.hit_cycles
            if cache.lookup(address, is_write):
                hit_level = i
                break
        if hit_level < 0:
            # Missed everywhere.
            if is_write and not path[-1].cfg.write_allocate:
                # No-allocate write miss: write goes to memory, caches
                # untouched (traffic counted; latency is the bus+mem write).
                return latency + self._memory_access(True,
                                                     path[-1].cfg.line_bytes)
            line_bytes = path[-1].cfg.line_bytes
            latency += self._memory_access(False, line_bytes)
            fill_from = len(path)
        else:
            if is_write and path[hit_level].cfg.write_policy == "write-through":
                self._write_through(path, hit_level, address)
            fill_from = hit_level
        # Fill every level above the hit (or all levels on a full miss).
        for i in range(fill_from - 1, -1, -1):
            cache = path[i]
            if is_write and cache.cfg.write_policy == "write-back":
                state = LineState.MODIFIED
            else:
                state = LineState.SHARED
            victim = cache.insert(address, state)
            if victim is not None and victim[1].is_dirty:
                latency += self._writeback(path, i, victim[0])
            if is_write and cache.cfg.write_policy == "write-through":
                self._write_through(path, i, address)
        return latency

    def _write_through(self, path: list[Cache], level: int,
                       address: int) -> None:
        """Propagate a write one level down (buffered: traffic, no stall)."""
        nxt = level + 1
        if nxt < len(path):
            cache = path[nxt]
            if cache.probe(address).is_valid:
                if cache.cfg.write_policy == "write-back":
                    cache.set_state(address, LineState.MODIFIED)
                else:
                    self._write_through(path, nxt, address)
            # Not resident below: the write continues toward memory.
            elif not any(path[j].probe(address).is_valid
                         for j in range(nxt, len(path))):
                self.bus.transactions += 1
                self.memory.writes += 1
        else:
            self.bus.transactions += 1
            self.memory.writes += 1

    def _writeback(self, path: list[Cache], level: int,
                   victim_line: int) -> float:
        """Write a dirty victim from ``level`` to the next level / memory."""
        nxt = level + 1
        line_bytes = path[level].cfg.line_bytes
        if nxt < len(path) and path[nxt].probe(victim_line).is_valid:
            path[nxt].set_state(victim_line, LineState.MODIFIED)
            return path[nxt].cfg.hit_cycles
        return self._memory_access(True, line_bytes)

    def _memory_access(self, is_write: bool, nbytes: int) -> float:
        mem_cycles = (self.memory.write_cycles(nbytes) if is_write
                      else self.memory.read_cycles(nbytes))
        return self.bus.transaction_cycles(nbytes, extra_cycles=mem_cycles)

    # -- reporting -------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "caches": {c.name: c.stats.summary() for c in self.caches},
            "bus": self.bus.summary(),
            "memory": self.memory.summary(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<CacheHierarchy {self.name!r} levels={len(self.data_path)}"
                f" split_l1={self.instr_path[:1] != self.data_path[:1]}>")
