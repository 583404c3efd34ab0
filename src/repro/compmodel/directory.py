"""Directory-based cache coherence — the paper's "other strategies".

Section 4.1: "To guarantee cache coherency ... the caches provide a
snoopy bus protocol.  However, other strategies, like directory
schemes, can be added with relative ease."  This module adds one: a
full-map directory at the memory side.

Differences from the snoopy protocol that the timing model captures:

* requests are point-to-point (requester → directory), so they can use
  a non-broadcast fabric (crossbar) with one port per CPU;
* every request pays a *directory lookup* latency;
* invalidations are *targeted*: only actual sharers receive one, each
  costing a fabric transfer — cheap for private data, increasingly
  expensive as sharer counts grow (the classic directory trade-off
  against the snoop's fixed broadcast cost);
* a dirty line is fetched from its owner via the directory (two fabric
  transfers: owner → directory/memory → requester), not flushed on a
  shared bus.

The class implements the same interface as
:class:`~repro.compmodel.coherence.SnoopyCoherence` (``local_hit``,
``read_miss``, ``write_miss``, ``write_upgrade``), so
:class:`~repro.sharedmem.smp.SMPNodeModel` can host either protocol
unchanged.
"""

from __future__ import annotations

from typing import Optional

from ..config import ConfigError
from ..pearl import Resource, Simulator
from .bus import Bus
from .cache import Cache, LineState
from .memory import DRAM

__all__ = ["DirectoryCoherence", "DirectoryStats"]


class DirectoryStats:
    """Directory-protocol event counters."""

    __slots__ = ("reads", "read_exclusives", "upgrades", "lookups",
                 "invalidations_sent", "owner_fetches", "memory_fills",
                 "writebacks", "eviction_notices")

    def __init__(self) -> None:
        self.reads = 0
        self.read_exclusives = 0
        self.upgrades = 0
        self.lookups = 0
        self.invalidations_sent = 0
        self.owner_fetches = 0
        self.memory_fills = 0
        self.writebacks = 0
        self.eviction_notices = 0

    @property
    def transactions(self) -> int:
        return self.reads + self.read_exclusives + self.upgrades

    def summary(self) -> dict:
        return {
            "reads": self.reads,
            "read_exclusives": self.read_exclusives,
            "upgrades": self.upgrades,
            "transactions": self.transactions,
            "lookups": self.lookups,
            "invalidations_sent": self.invalidations_sent,
            "owner_fetches": self.owner_fetches,
            "memory_fills": self.memory_fills,
            "writebacks": self.writebacks,
            "eviction_notices": self.eviction_notices,
        }


class _DirEntry:
    """Full-map directory entry for one line."""

    __slots__ = ("sharers", "dirty_owner")

    def __init__(self) -> None:
        self.sharers: set[int] = set()
        self.dirty_owner: Optional[int] = None


class DirectoryCoherence:
    """Full-map directory protocol over private caches + shared levels.

    Parameters mirror :class:`SnoopyCoherence`; additionally
    ``lookup_cycles`` is the directory access latency and ``fabric``
    ("bus" or "crossbar") selects the request interconnect: the bus
    serializes every transaction end-to-end, the crossbar only
    serializes at the directory/memory port so independent transfers
    overlap.
    """

    def __init__(self, private_caches: list[Cache],
                 shared_caches: list[Cache], bus: Bus, memory: DRAM,
                 protocol: str = "mesi", lookup_cycles: float = 2.0,
                 fabric: str = "bus",
                 sim: Optional[Simulator] = None) -> None:
        if protocol not in ("msi", "mesi"):
            raise ConfigError(f"unknown coherence protocol {protocol!r}")
        for c in private_caches:
            if c.cfg.write_policy != "write-back":
                raise ConfigError(
                    "directory protocol requires write-back private caches")
        if fabric not in ("bus", "crossbar"):
            raise ConfigError(f"unknown fabric {fabric!r}")
        if bus.resource is None:
            raise ConfigError("directory fabric must be built with a "
                              "simulator")
        self.private = private_caches
        self.shared = shared_caches
        self.bus = bus
        self.memory = memory
        self.protocol = protocol
        self.lookup_cycles = lookup_cycles
        self.fabric = fabric
        self.stats = DirectoryStats()
        self.line_bytes = private_caches[0].cfg.line_bytes
        self._dir: dict[int, _DirEntry] = {}
        # Crossbar: the directory port is the serialization point; the
        # bus fabric reuses the (single) bus resource for everything.
        if fabric == "crossbar":
            owner_sim = sim if sim is not None else bus.resource.sim
            self._port = Resource(owner_sim, 1, "directory-port")
        else:
            self._port = bus.resource

    # -- helpers -----------------------------------------------------------

    def _entry(self, line: int) -> _DirEntry:
        entry = self._dir.get(line)
        if entry is None:
            entry = _DirEntry()
            self._dir[line] = entry
        return entry

    def _line(self, address: int) -> int:
        return self.private[0].line_address(address)

    def sharers_of(self, address: int) -> set[int]:
        """Current sharer set (tests/analysis)."""
        return set(self._dir.get(self._line(address), _DirEntry()).sharers)

    def _transfer(self) -> float:
        return self.bus.cfg.transfer_cycles(self.line_bytes)

    # -- local (fabric-free) hit classification ----------------------------

    def local_hit(self, cpu: int, address: int, is_write: bool) -> bool:
        """Same contract as the snoopy protocol's local_hit."""
        cache = self.private[cpu]
        state = cache.probe(address)
        if not state.is_valid:
            return False
        if not is_write:
            cache.lookup(address, is_write=False)
            return True
        if state is LineState.MODIFIED:
            cache.lookup(address, is_write=True)
            return True
        if state is LineState.EXCLUSIVE and self.protocol == "mesi":
            cache.lookup(address, is_write=True)
            # Silent E->M: the directory already records us as the sole
            # sharer; mark dirty ownership.
            self._entry(self._line(address)).dirty_owner = cpu
            return True
        return False

    # -- transactions (generators) --------------------------------------------

    def read_miss(self, cpu: int, address: int):
        """Directory read: join the sharer set, fetching from the owner
        if the line is dirty elsewhere."""
        self.stats.reads += 1
        cache = self.private[cpu]
        cache.lookup(address, is_write=False)      # records the miss
        line = self._line(address)
        yield self._port.acquire()
        try:
            self.stats.lookups += 1
            cycles = self.bus.cfg.arbitration_cycles + self.lookup_cycles
            entry = self._entry(line)
            if entry.dirty_owner is not None and entry.dirty_owner != cpu:
                owner = entry.dirty_owner
                self.stats.owner_fetches += 1
                owner_cache = self.private[owner]
                if owner_cache.probe(line).is_valid:
                    owner_cache.set_state(line, LineState.SHARED)
                    owner_cache.stats.snoop_flushes += 1
                # owner -> memory -> requester: two line transfers plus
                # the memory update.
                cycles += 2 * self._transfer()
                cycles += self.memory.write_cycles(self.line_bytes)
                entry.dirty_owner = None
            else:
                # A clean EXCLUSIVE holder must be demoted to SHARED
                # before a second copy exists.
                for sharer in entry.sharers:
                    if sharer == cpu:
                        continue
                    sharer_cache = self.private[sharer]
                    if sharer_cache.probe(line) is LineState.EXCLUSIVE:
                        sharer_cache.set_state(line, LineState.SHARED)
                cycles += self._fill_from_below(line)
                cycles += self._transfer()
            grant_exclusive = (self.protocol == "mesi"
                               and not entry.sharers)
            entry.sharers.add(cpu)
            state = (LineState.EXCLUSIVE if grant_exclusive
                     else LineState.SHARED)
            cycles += self._install(cpu, line, state)
            self.bus.transactions += 1
            self.bus.busy_cycles += cycles
            held, tail = self._split_tail(cycles)
            yield held
        finally:
            self._port.release()
        if tail:
            yield tail

    def write_miss(self, cpu: int, address: int):
        """Directory read-exclusive: invalidate all sharers, own the line."""
        self.stats.read_exclusives += 1
        cache = self.private[cpu]
        cache.lookup(address, is_write=True)       # records the miss
        line = self._line(address)
        yield self._port.acquire()
        try:
            self.stats.lookups += 1
            cycles = self.bus.cfg.arbitration_cycles + self.lookup_cycles
            entry = self._entry(line)
            cycles += self._claim_exclusive(cpu, line, entry,
                                            need_data=True)
            cycles += self._install(cpu, line, LineState.MODIFIED)
            entry.sharers = {cpu}
            entry.dirty_owner = cpu
            self.bus.transactions += 1
            self.bus.busy_cycles += cycles
            held, tail = self._split_tail(cycles)
            yield held
        finally:
            self._port.release()
        if tail:
            yield tail

    def write_upgrade(self, cpu: int, address: int):
        """SHARED -> MODIFIED: targeted invalidations, no data unless our
        copy was invalidated while we waited for the directory."""
        self.stats.upgrades += 1
        cache = self.private[cpu]
        line = self._line(address)
        yield self._port.acquire()
        try:
            self.stats.lookups += 1
            cycles = self.bus.cfg.arbitration_cycles + self.lookup_cycles
            entry = self._entry(line)
            if not cache.probe(line).is_valid:
                # Lost the race: a competing write invalidated us.
                cycles += self._claim_exclusive(cpu, line, entry,
                                                need_data=True)
                cycles += self._install(cpu, line, LineState.MODIFIED)
            else:
                cycles += self._claim_exclusive(cpu, line, entry,
                                                need_data=False)
                cache.lookup(line, is_write=True)   # hit; marks MODIFIED
            entry.sharers = {cpu}
            entry.dirty_owner = cpu
            self.bus.transactions += 1
            self.bus.busy_cycles += cycles
            held, tail = self._split_tail(cycles)
            yield held
        finally:
            self._port.release()
        if tail:
            yield tail

    # -- protocol internals ----------------------------------------------------

    def _split_tail(self, cycles: float) -> tuple[float, float]:
        """Crossbar fabric: the final line delivery to the requester
        rides the requester's private port, so it does not hold the
        directory; the bus fabric holds everything end to end."""
        if self.fabric != "crossbar":
            return cycles, 0.0
        tail = min(self._transfer(), cycles)
        return cycles - tail, tail


    def _claim_exclusive(self, cpu: int, line: int, entry: _DirEntry,
                         need_data: bool) -> float:
        """Invalidate all other sharers; fetch data if requested."""
        cycles = 0.0
        dirty_supplied = False
        for sharer in sorted(entry.sharers):
            if sharer == cpu:
                continue
            self.stats.invalidations_sent += 1
            # One fabric hop per targeted invalidation (+ its ack,
            # folded into the same transfer cost).
            cycles += self.bus.cfg.transfer_cycles(8)
            sharer_cache = self.private[sharer]
            prior = sharer_cache.invalidate(line)
            if prior is LineState.MODIFIED:
                self.stats.owner_fetches += 1
                sharer_cache.stats.snoop_flushes += 1
                cycles += self._transfer()
                dirty_supplied = True
        entry.dirty_owner = None
        if need_data and not dirty_supplied:
            cycles += self._fill_from_below(line)
            cycles += self._transfer()
        return cycles

    def _fill_from_below(self, line: int, is_write: bool = False) -> float:
        # ``is_write`` is accepted for interface parity with the snoopy
        # protocol (the SMP ifetch path calls both); fills are reads.
        cycles = 0.0
        for cache in self.shared:
            cycles += cache.cfg.hit_cycles
            if cache.lookup(line, is_write=False):
                return cycles
        self.stats.memory_fills += 1
        cycles += self.memory.read_cycles(self.line_bytes)
        for cache in self.shared:
            victim = cache.insert(line, LineState.SHARED)
            if victim is not None and victim[1].is_dirty:
                self.stats.writebacks += 1
                cycles += self.memory.write_cycles(cache.cfg.line_bytes)
        return cycles

    def _install(self, cpu: int, line: int, state: LineState) -> float:
        cycles = 0.0
        victim = self.private[cpu].insert(line, state)
        if victim is not None:
            vaddr, vstate = victim
            self._evict_notice(cpu, vaddr, vstate)
            if vstate.is_dirty:
                self.stats.writebacks += 1
                cycles += self._transfer()
                cycles += self.memory.write_cycles(self.line_bytes)
        return cycles

    def _evict_notice(self, cpu: int, line: int, state: LineState) -> None:
        """Keep the sharer map exact (replacement hints on eviction)."""
        self.stats.eviction_notices += 1
        entry = self._dir.get(line)
        if entry is None:
            return
        entry.sharers.discard(cpu)
        if entry.dirty_owner == cpu:
            entry.dirty_owner = None
        if not entry.sharers:
            del self._dir[line]
