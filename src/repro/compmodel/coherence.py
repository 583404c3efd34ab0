"""Snoopy bus-based cache coherence (MSI / MESI).

"[The cache hierarchy] supports a setup of multiple processors using a
common cache hierarchy.  To guarantee cache coherency in such a
configuration, the caches provide a snoopy bus protocol.  However, other
strategies, like directory schemes, can be added with relative ease"
(Section 4.1).

The protocol operates on the CPUs' *private L1* caches; everything below
(shared cache levels, DRAM) is reached over the arbitrated bus.  Three
bus transactions are modelled:

* **BusRd**   — read miss: another cache in MODIFIED supplies the line
  (flush; both end SHARED) or the shared levels / memory do.  Under
  MESI, a line loaded with no other copies enters EXCLUSIVE.
* **BusRdX**  — write miss: like BusRd, but all other copies are
  invalidated and the line is loaded MODIFIED.
* **BusUpgr** — write hit on a SHARED line: invalidate other copies, no
  data transfer.

All transaction methods are generators run inside a CPU process, so bus
contention between CPUs is simulated, not estimated.
"""

from __future__ import annotations

from ..config import ConfigError
from .bus import Bus
from .cache import Cache, LineState
from .memory import DRAM

__all__ = ["SnoopyCoherence", "CoherenceStats"]


class CoherenceStats:
    """Protocol-level event counters."""

    __slots__ = ("bus_rd", "bus_rdx", "bus_upgr", "cache_to_cache",
                 "invalidations", "memory_fills", "writebacks")

    def __init__(self) -> None:
        self.bus_rd = 0
        self.bus_rdx = 0
        self.bus_upgr = 0
        self.cache_to_cache = 0
        self.invalidations = 0
        self.memory_fills = 0
        self.writebacks = 0

    @property
    def transactions(self) -> int:
        return self.bus_rd + self.bus_rdx + self.bus_upgr

    def summary(self) -> dict:
        return {
            "bus_rd": self.bus_rd,
            "bus_rdx": self.bus_rdx,
            "bus_upgr": self.bus_upgr,
            "transactions": self.transactions,
            "cache_to_cache": self.cache_to_cache,
            "invalidations": self.invalidations,
            "memory_fills": self.memory_fills,
            "writebacks": self.writebacks,
        }


class SnoopyCoherence:
    """MSI/MESI over private caches + shared levels + memory.

    Parameters
    ----------
    private_caches:
        One L1 (data, or unified) per CPU; write-back only.
    shared_caches:
        The shared lower levels (possibly empty), nearest first.
    bus / memory:
        The arbitrated bus (simulated) and the DRAM behind it.
    protocol:
        ``"msi"`` or ``"mesi"``.
    """

    def __init__(self, private_caches: list[Cache], shared_caches: list[Cache],
                 bus: Bus, memory: DRAM, protocol: str = "mesi") -> None:
        if protocol not in ("msi", "mesi"):
            raise ConfigError(f"unknown coherence protocol {protocol!r}")
        for c in private_caches:
            if c.cfg.write_policy != "write-back":
                raise ConfigError(
                    f"snoopy protocol requires write-back private caches "
                    f"({c.name} is {c.cfg.write_policy})")
        if bus.resource is None:
            raise ConfigError("coherent bus must be built with a simulator")
        self.private = private_caches
        self.shared = shared_caches
        self.bus = bus
        self.memory = memory
        self.protocol = protocol
        self.stats = CoherenceStats()
        self.line_bytes = private_caches[0].cfg.line_bytes

    # -- local (bus-free) hit classification --------------------------------

    def local_hit(self, cpu: int, address: int, is_write: bool) -> bool:
        """Can this access complete without a bus transaction?

        Reads hit on any valid state; writes hit on MODIFIED or (MESI)
        EXCLUSIVE — an E write upgrades to M silently.  A hit updates
        replacement state and the cache's hit counters.
        """
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
            cache.lookup(address, is_write=True)   # marks MODIFIED
            return True
        return False   # SHARED write (or MSI EXCLUSIVE, unreachable)

    # -- bus transactions (generators) ----------------------------------------

    def read_miss(self, cpu: int, address: int):
        """BusRd: load the line for reading."""
        self.stats.bus_rd += 1
        cache = self.private[cpu]
        cache.lookup(address, is_write=False)      # records the miss
        yield self.bus.resource.acquire()
        try:
            cycles = self.bus.cfg.arbitration_cycles + self.bus.cfg.snoop_cycles
            others_have_copy = False
            dirty_supplied = False
            for other_cpu, other in enumerate(self.private):
                if other_cpu == cpu:
                    continue
                state = other.probe(address)
                if not state.is_valid:
                    continue
                others_have_copy = True
                if state is LineState.MODIFIED:
                    # Owner flushes: cache-to-cache transfer + memory update.
                    self.stats.cache_to_cache += 1
                    other.stats.snoop_flushes += 1
                    other.set_state(address, LineState.SHARED)
                    cycles += self.bus.cfg.transfer_cycles(self.line_bytes)
                    cycles += self.memory.write_cycles(self.line_bytes)
                    dirty_supplied = True
                elif state is LineState.EXCLUSIVE:
                    other.set_state(address, LineState.SHARED)
            if not dirty_supplied:
                # Clean copies do not supply; the shared levels/memory do.
                cycles += self._fill_from_below(address, is_write=False)
            new_state = (LineState.EXCLUSIVE
                         if self.protocol == "mesi" and not others_have_copy
                         else LineState.SHARED)
            cycles += self._install(cpu, address, new_state)
            self.bus.transactions += 1
            self.bus.busy_cycles += cycles
            yield cycles
        finally:
            self.bus.resource.release()

    def write_miss(self, cpu: int, address: int):
        """BusRdX: load the line for writing, invalidating other copies."""
        self.stats.bus_rdx += 1
        cache = self.private[cpu]
        cache.lookup(address, is_write=True)       # records the miss
        yield self.bus.resource.acquire()
        try:
            cycles = self.bus.cfg.arbitration_cycles + self.bus.cfg.snoop_cycles
            supplied = False
            for other_cpu, other in enumerate(self.private):
                if other_cpu == cpu:
                    continue
                state = other.invalidate(address)
                if state is LineState.MODIFIED:
                    # Dirty owner supplies the line directly.
                    self.stats.cache_to_cache += 1
                    other.stats.snoop_flushes += 1
                    cycles += self.bus.cfg.transfer_cycles(self.line_bytes)
                    supplied = True
                if state.is_valid:
                    self.stats.invalidations += 1
            if not supplied:
                cycles += self._fill_from_below(address, is_write=False)
            cycles += self._install(cpu, address, LineState.MODIFIED)
            self.bus.transactions += 1
            self.bus.busy_cycles += cycles
            yield cycles
        finally:
            self.bus.resource.release()

    def write_upgrade(self, cpu: int, address: int):
        """BusUpgr: SHARED → MODIFIED without a data transfer."""
        self.stats.bus_upgr += 1
        cache = self.private[cpu]
        yield self.bus.resource.acquire()
        try:
            cycles = self.bus.cfg.arbitration_cycles + self.bus.cfg.snoop_cycles
            if not cache.probe(address).is_valid:
                # Our copy was invalidated while we waited for the bus:
                # the upgrade becomes a full BusRdX fill.
                for other_cpu, other in enumerate(self.private):
                    if other_cpu == cpu:
                        continue
                    state = other.invalidate(address)
                    if state is LineState.MODIFIED:
                        self.stats.cache_to_cache += 1
                        other.stats.snoop_flushes += 1
                        cycles += self.bus.cfg.transfer_cycles(self.line_bytes)
                    if state.is_valid:
                        self.stats.invalidations += 1
                cycles += self._fill_from_below(address, is_write=False)
                cycles += self._install(cpu, address, LineState.MODIFIED)
            else:
                for other_cpu, other in enumerate(self.private):
                    if other_cpu == cpu:
                        continue
                    if other.invalidate(address).is_valid:
                        self.stats.invalidations += 1
                cache.lookup(address, is_write=True)   # hit; marks MODIFIED
            self.bus.transactions += 1
            self.bus.busy_cycles += cycles
            yield cycles
        finally:
            self.bus.resource.release()

    # -- below-the-bus helpers (analytic, inside the bus hold) --------------

    def _fill_from_below(self, address: int, is_write: bool) -> float:
        """Latency to obtain the line from shared levels or memory."""
        cycles = 0.0
        for cache in self.shared:
            cycles += cache.cfg.hit_cycles
            if cache.lookup(address, is_write=False):
                return cycles
        self.stats.memory_fills += 1
        cycles += self.memory.read_cycles(self.line_bytes)
        cycles += self.bus.cfg.transfer_cycles(self.line_bytes)
        # Install in the shared levels on the way up (non-inclusive walk).
        for cache in self.shared:
            victim = cache.insert(address, LineState.SHARED)
            if victim is not None and victim[1].is_dirty:
                self.stats.writebacks += 1
                cycles += self.memory.write_cycles(cache.cfg.line_bytes)
        return cycles

    def _install(self, cpu: int, address: int, state: LineState) -> float:
        """Install the line in the requesting L1; handle a dirty victim."""
        cycles = 0.0
        victim = self.private[cpu].insert(address, state)
        if victim is not None and victim[1].is_dirty:
            self.stats.writebacks += 1
            cycles += self.bus.cfg.transfer_cycles(self.line_bytes)
            cycles += self.memory.write_cycles(self.line_bytes)
        return cycles
