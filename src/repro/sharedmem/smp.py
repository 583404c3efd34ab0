"""Shared-memory multiprocessor nodes (Section 4.3).

"By only using the computational model and configuring it with multiple
processors, a shared memory multiprocessor can be simulated."

The SMP node puts ``n_cpus`` CPUs on one node: each CPU has a private
(write-back) L1 — split or unified per the level-1 configuration — kept
coherent by the snoopy MSI/MESI protocol; the remaining cache levels and
the DRAM are shared behind the arbitrated bus.  Each CPU runs as a
kernel process, so bus contention and coherence traffic between CPUs
are simulated in time, not estimated.

Timing granularity: a CPU accumulates the cost of local operations
(arithmetic, L1 hits) and synchronizes with the kernel at every bus
transaction; interleaving between CPUs is therefore exact at bus-
transaction granularity (the only points where CPUs can interact).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from ..compmodel.bus import Bus
from ..compmodel.cache import Cache, LineState
from ..compmodel.coherence import SnoopyCoherence
from ..compmodel.cpu import CPU
from ..compmodel.directory import DirectoryCoherence
from ..compmodel.memory import DRAM
from ..config import ConfigError, NodeConfig
from ..operations.ops import (
    COMMUNICATION_OPS,
    OpCode,
    Operation,
)
from ..pearl import Simulator

__all__ = ["SMPNodeModel", "SMPResult", "CPUActivity"]


class CPUActivity:
    """Busy/stall breakdown for one CPU of an SMP node."""

    __slots__ = ("cpu", "busy_cycles", "mem_stall_cycles", "comm_cycles",
                 "instructions", "finish_time")

    def __init__(self, cpu: int) -> None:
        self.cpu = cpu
        self.busy_cycles = 0.0
        self.mem_stall_cycles = 0.0
        self.comm_cycles = 0.0
        self.instructions = 0
        self.finish_time = 0.0

    def summary(self) -> dict:
        return {
            "cpu": self.cpu,
            "busy_cycles": self.busy_cycles,
            "mem_stall_cycles": self.mem_stall_cycles,
            "comm_cycles": self.comm_cycles,
            "instructions": self.instructions,
            "finish_time": self.finish_time,
        }


class SMPResult:
    """Outcome of one SMP-node simulation."""

    def __init__(self, total_cycles: float, activity: list[CPUActivity],
                 coherence_summary: dict, cache_summaries: dict,
                 bus_summary: dict, memory_summary: dict,
                 clock_hz: float) -> None:
        self.total_cycles = total_cycles
        self.activity = activity
        self.coherence_summary = coherence_summary
        self.cache_summaries = cache_summaries
        self.bus_summary = bus_summary
        self.memory_summary = memory_summary
        self.clock_hz = clock_hz

    @property
    def seconds(self) -> float:
        return self.total_cycles / self.clock_hz

    def summary(self) -> dict:
        return {
            "total_cycles": self.total_cycles,
            "seconds": self.seconds,
            "cpus": [a.summary() for a in self.activity],
            "coherence": self.coherence_summary,
            "caches": self.cache_summaries,
            "bus": self.bus_summary,
            "memory": self.memory_summary,
        }

    def __repr__(self) -> str:
        return (f"<SMPResult cycles={self.total_cycles:.0f} "
                f"cpus={len(self.activity)}>")


class SMPNodeModel:
    """A multi-CPU shared-memory node with snoopy coherence."""

    def __init__(self, cfg: NodeConfig, sim: Optional[Simulator] = None,
                 node_id: int = 0,
                 rng: Optional[np.random.Generator] = None) -> None:
        cfg.validate()
        if not cfg.cache_levels:
            raise ConfigError("an SMP node needs private L1 caches")
        self.cfg = cfg
        self.node_id = node_id
        self.sim = sim if sim is not None else Simulator()
        rng = rng if rng is not None else np.random.default_rng(node_id)
        l1 = cfg.cache_levels[0]
        prefix = f"node{node_id}"
        self.dcaches = [Cache(l1.data, f"{prefix}.cpu{c}.L1d", rng)
                        for c in range(cfg.n_cpus)]
        if l1.split:
            self.icaches = [Cache(l1.instr, f"{prefix}.cpu{c}.L1i", rng)
                            for c in range(cfg.n_cpus)]
        else:
            # Unified private L1: instruction fetches share the data cache.
            self.icaches = self.dcaches
        self.shared_caches = [Cache(lvl.data, f"{prefix}.L{i + 2}", rng)
                              for i, lvl in enumerate(cfg.cache_levels[1:])]
        fabric_ports = cfg.n_cpus if cfg.fabric == "crossbar" else 1
        self.bus = Bus(cfg.bus, self.sim, f"{prefix}.{cfg.fabric}",
                       capacity=fabric_ports)
        self.memory = DRAM(cfg.memory, f"{prefix}.memory")
        if cfg.coherence_style == "directory":
            self.coherence = DirectoryCoherence(
                self.dcaches, self.shared_caches, self.bus, self.memory,
                cfg.coherence, cfg.directory_lookup_cycles, cfg.fabric,
                sim=self.sim)
        else:
            self.coherence = SnoopyCoherence(
                self.dcaches, self.shared_caches, self.bus, self.memory,
                cfg.coherence)
        # Cost-table CPUs (no attached memsys; memory timing is ours).
        self.cpus = [CPU(cfg.cpu, None, cpu_id=c) for c in range(cfg.n_cpus)]
        self.activity = [CPUActivity(c) for c in range(cfg.n_cpus)]

    @property
    def n_cpus(self) -> int:
        return self.cfg.n_cpus

    # -- the per-CPU process -----------------------------------------------

    def cpu_process(self, cpu_id: int, ops: Iterable[Operation],
                    comm_handler: Optional[Callable] = None):
        """Kernel process executing one CPU's operation stream.

        ``comm_handler(op)`` — a generator factory — is invoked for
        communication operations (hybrid SMP-cluster mode); without it
        they are an error, as in the pure computational model.
        """
        cfg = self.cfg.cpu
        act = self.activity[cpu_id]
        coh = self.coherence
        cpu = self.cpus[cpu_id]
        dcache = self.dcaches[cpu_id]
        icache = self.icaches[cpu_id]
        sim = self.sim
        acc = 0.0
        for op in ops:
            code = op.code
            if code is OpCode.LOAD or code is OpCode.STORE:
                is_write = code is OpCode.STORE
                cpu.stats.op_counts[code] += 1
                cpu.stats.instructions += 1
                cpu.stats.memory_accesses += 1
                act.instructions += 1
                acc += (cfg.store_issue_cycles if is_write
                        else cfg.load_issue_cycles)
                addr = op.arg
                if coh.local_hit(cpu_id, addr, is_write):
                    acc += dcache.cfg.hit_cycles
                else:
                    if acc:
                        act.busy_cycles += acc
                        yield acc
                        acc = 0.0
                    t0 = sim.now
                    state = dcache.probe(addr)
                    if is_write and state is LineState.SHARED:
                        yield from coh.write_upgrade(cpu_id, addr)
                    elif is_write:
                        yield from coh.write_miss(cpu_id, addr)
                    else:
                        yield from coh.read_miss(cpu_id, addr)
                    act.mem_stall_cycles += sim.now - t0
            elif code is OpCode.IFETCH:
                cpu.stats.op_counts[code] += 1
                cpu.stats.instructions += 1
                cpu.stats.ifetches += 1
                act.instructions += 1
                addr = op.arg
                if icache.lookup(addr, is_write=False):
                    acc += icache.cfg.hit_cycles
                else:
                    if acc:
                        act.busy_cycles += acc
                        yield acc
                        acc = 0.0
                    t0 = sim.now
                    yield from self._ifetch_miss(icache, addr)
                    act.mem_stall_cycles += sim.now - t0
            elif code in COMMUNICATION_OPS:
                if comm_handler is None:
                    raise ValueError(
                        f"cpu {cpu_id}: communication operation {op!r} in an "
                        "SMP computational trace (use "
                        "repro.sharedmem.HybridArchitectureModel for "
                        "SMP clusters)")
                if acc:
                    act.busy_cycles += acc
                    yield acc
                    acc = 0.0
                t0 = sim.now
                yield from comm_handler(op)
                act.comm_cycles += sim.now - t0
            else:
                acc += cpu.op_cycles(op)
                act.instructions += 1
        if acc:
            act.busy_cycles += acc
            yield acc
        act.finish_time = sim.now

    def _ifetch_miss(self, icache: Cache, addr: int):
        """Instruction-cache miss: bus + shared levels/memory (no snoop —
        code is read-only)."""
        yield self.bus.resource.acquire()
        try:
            cycles = self.bus.cfg.arbitration_cycles
            cycles += self.coherence._fill_from_below(addr, is_write=False)
            victim = icache.insert(addr, LineState.SHARED)
            if victim is not None and victim[1].is_dirty:
                cycles += self.bus.cfg.transfer_cycles(icache.cfg.line_bytes)
                cycles += self.memory.write_cycles(icache.cfg.line_bytes)
            yield cycles
        finally:
            self.bus.resource.release()

    # -- top-level run -----------------------------------------------------------

    def run_traces(self, per_cpu_ops: Sequence[Iterable[Operation]]
                   ) -> SMPResult:
        """Simulate the SMP node driven by one op stream per CPU."""
        if len(per_cpu_ops) != self.n_cpus:
            raise ValueError(
                f"expected {self.n_cpus} op streams, got {len(per_cpu_ops)}")
        for cpu_id, ops in enumerate(per_cpu_ops):
            self.sim.process(self.cpu_process(cpu_id, iter(ops)),
                             name=f"node{self.node_id}.cpu{cpu_id}")
        self.sim.run(check_deadlock=True)
        return self.result()

    def result(self) -> SMPResult:
        caches: dict[str, dict] = {}
        for c in self.dcaches + self.shared_caches:
            caches[c.name] = c.stats.summary()
        if self.icaches is not self.dcaches:
            for c in self.icaches:
                caches[c.name] = c.stats.summary()
        return SMPResult(
            self.sim.now, self.activity, self.coherence.stats.summary(),
            caches, self.bus.summary(), self.memory.summary(),
            self.cfg.cpu.clock_hz)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<SMPNodeModel node={self.node_id} cpus={self.n_cpus} "
                f"{self.cfg.coherence}>")
