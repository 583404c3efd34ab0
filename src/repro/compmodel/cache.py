"""A single parameterized cache — tags only, never data.

"Simulated caches only need to hold addresses (tags), not data"
(Section 6): because the trace generator already evaluated all control
flow, the simulator tracks *which* lines are resident and in what state,
never their contents.  One :class:`Cache` models one cache of the
hierarchy; set indexing, associativity, replacement and write policy all
come from :class:`~repro.config.CacheConfig`.

Line states double as coherence states so the same structure serves the
uniprocessor hierarchy (INVALID/SHARED/MODIFIED ≈ invalid/clean/dirty)
and the snoopy MSI/MESI protocol of multi-CPU nodes.
"""

from __future__ import annotations

from collections import OrderedDict
from enum import IntEnum
from typing import Optional

import numpy as np

from ..config import CacheConfig

__all__ = ["Cache", "LineState", "CacheStats"]


class LineState(IntEnum):
    """MESI line states (uniprocessor caches use INVALID/SHARED/MODIFIED)."""

    INVALID = 0
    SHARED = 1      # clean, possibly present in other caches
    EXCLUSIVE = 2   # clean, only copy (MESI only)
    MODIFIED = 3    # dirty, only copy

    @property
    def is_valid(self) -> bool:
        return self is not LineState.INVALID

    @property
    def is_dirty(self) -> bool:
        return self is LineState.MODIFIED


class CacheStats:
    """Hit/miss/traffic counters for one cache."""

    __slots__ = ("read_hits", "read_misses", "write_hits", "write_misses",
                 "evictions", "writebacks", "invalidations_received",
                 "snoop_flushes")

    def __init__(self) -> None:
        self.read_hits = 0
        self.read_misses = 0
        self.write_hits = 0
        self.write_misses = 0
        self.evictions = 0
        self.writebacks = 0
        self.invalidations_received = 0
        self.snoop_flushes = 0

    @property
    def hits(self) -> int:
        return self.read_hits + self.write_hits

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        n = self.accesses
        return self.hits / n if n else 0.0

    def summary(self) -> dict:
        return {
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate(),
            "evictions": self.evictions,
            "writebacks": self.writebacks,
            "invalidations_received": self.invalidations_received,
            "snoop_flushes": self.snoop_flushes,
        }


class Cache:
    """Tag store for one cache.

    The cache is a passive structure: it answers probes and performs
    insertions/evictions; *latency* is composed by the hierarchy or the
    coherence protocol around it.
    """

    __slots__ = ("cfg", "name", "stats", "_sets", "_set_mask", "_line_shift",
                 "_rng")

    def __init__(self, cfg: CacheConfig, name: str = "",
                 rng: Optional[np.random.Generator] = None) -> None:
        cfg.validate()
        self.cfg = cfg
        self.name = name or cfg.name
        self.stats = CacheStats()
        n_sets = cfg.n_sets
        self._sets: list[OrderedDict[int, LineState]] = [
            OrderedDict() for _ in range(n_sets)]
        self._set_mask = n_sets - 1
        self._line_shift = cfg.line_bytes.bit_length() - 1
        self._rng = rng if rng is not None else np.random.default_rng(0)

    # -- address mapping -----------------------------------------------------

    def line_address(self, address: int) -> int:
        """The line-aligned address containing ``address``."""
        return (address >> self._line_shift) << self._line_shift

    def _set_index(self, line_addr: int) -> int:
        return (line_addr >> self._line_shift) & self._set_mask

    @property
    def assoc(self) -> int:
        return self.cfg.associativity or self.cfg.n_lines

    # -- probes ----------------------------------------------------------------

    def probe(self, address: int) -> LineState:
        """State of the line containing ``address`` (no stats, no LRU touch)."""
        line = self.line_address(address)
        return self._sets[self._set_index(line)].get(line, LineState.INVALID)

    def contains(self, address: int) -> bool:
        return self.probe(address).is_valid

    @property
    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)

    def resident_addresses(self) -> list[int]:
        """All resident line addresses (tests/analysis only)."""
        out = []
        for s in self._sets:
            out.extend(s.keys())
        return out

    # -- access path -------------------------------------------------------------

    def lookup(self, address: int, is_write: bool) -> bool:
        """Hit test with stats and replacement-order update.

        Returns True on hit.  A write hit on a write-back cache upgrades
        the line to MODIFIED; misses do *not* modify the cache — the
        caller decides what to insert (after fetching from below).
        """
        line = self.line_address(address)
        cset = self._sets[self._set_index(line)]
        state = cset.get(line)
        if state is not None and state.is_valid:
            if self.cfg.replacement == "lru":
                cset.move_to_end(line)
            if is_write:
                self.stats.write_hits += 1
                if self.cfg.write_policy == "write-back":
                    cset[line] = LineState.MODIFIED
            else:
                self.stats.read_hits += 1
            return True
        if is_write:
            self.stats.write_misses += 1
        else:
            self.stats.read_misses += 1
        return False

    def insert(self, address: int,
               state: LineState) -> Optional[tuple[int, LineState]]:
        """Install the line containing ``address`` in ``state``.

        Returns ``(victim_line_address, victim_state)`` if a valid line
        was evicted to make room, else ``None``.  The caller is
        responsible for writing back dirty victims.
        """
        line = self.line_address(address)
        idx = self._set_index(line)
        cset = self._sets[idx]
        victim: Optional[tuple[int, LineState]] = None
        if line in cset:
            # Replacing-in-place (e.g. state upgrade via insert).
            cset[line] = state
            if self.cfg.replacement == "lru":
                cset.move_to_end(line)
            return None
        if len(cset) >= self.assoc:
            if self.cfg.replacement == "random":
                keys = list(cset.keys())
                vaddr = keys[int(self._rng.integers(len(keys)))]
                vstate = cset.pop(vaddr)
            else:
                # lru and fifo both evict from the front; they differ in
                # whether hits refresh the order (see lookup()).
                vaddr, vstate = cset.popitem(last=False)
            self.stats.evictions += 1
            if vstate.is_dirty:
                self.stats.writebacks += 1
            victim = (vaddr, vstate)
        cset[line] = state
        return victim

    def set_state(self, address: int, state: LineState) -> None:
        """Force the state of a resident line (coherence protocol use)."""
        line = self.line_address(address)
        cset = self._sets[self._set_index(line)]
        if line not in cset:
            raise KeyError(f"{self.name}: line {line:#x} not resident")
        if state is LineState.INVALID:
            del cset[line]
        else:
            cset[line] = state

    def invalidate(self, address: int) -> LineState:
        """Snoop-invalidate; returns the prior state (INVALID if absent)."""
        line = self.line_address(address)
        cset = self._sets[self._set_index(line)]
        prior = cset.pop(line, LineState.INVALID)
        if prior.is_valid:
            self.stats.invalidations_received += 1
        return prior

    def flush_all(self) -> int:
        """Drop every line; returns how many dirty lines were discarded."""
        dirty = 0
        for cset in self._sets:
            dirty += sum(1 for st in cset.values() if st.is_dirty)
            cset.clear()
        return dirty

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Cache {self.name!r} {self.cfg.size_bytes}B "
                f"{self.assoc}-way lines={self.resident_lines}>")
