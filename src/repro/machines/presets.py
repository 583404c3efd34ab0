"""Machine presets — parameter sets for the paper's reference targets.

Section 6 measures Mermaid simulating "a multicomputer consisting of
T805 transputers and a single-node model of a Motorola PowerPC 601 using
two levels of cache".  The presets below are those two machines, with
parameters drawn from published datasheet figures, plus a fast generic
machine for experiments.  Machine parameters are deliberately *data*
(see :mod:`repro.config`): copy a preset and tweak fields to
explore the design space.
"""

from __future__ import annotations

from ..config import (
    BusConfig,
    CPUConfig,
    CacheConfig,
    CacheLevelConfig,
    MachineConfig,
    MemoryConfig,
    NetworkConfig,
    NodeConfig,
    TopologyConfig,
)
from ..operations.optypes import ArithType

__all__ = ["t805_grid", "powerpc601_node", "generic_multicomputer",
           "smp_node"]


def _t805_cpu() -> CPUConfig:
    """INMOS T805 transputer @ 30 MHz.

    The T805 is a stack-machine with an on-chip FPU; abstract-operation
    costs approximate its published instruction timings (integer ALU
    ~1-2 cycles, FP add ~7, FP mul ~13, FP div ~25+).
    """
    return CPUConfig(
        name="T805-30",
        clock_hz=30e6,
        add_cycles={ArithType.INT: 1.0, ArithType.FLOAT: 7.0,
                    ArithType.DOUBLE: 7.0},
        sub_cycles={ArithType.INT: 1.0, ArithType.FLOAT: 7.0,
                    ArithType.DOUBLE: 7.0},
        mul_cycles={ArithType.INT: 38.0, ArithType.FLOAT: 13.0,
                    ArithType.DOUBLE: 20.0},
        div_cycles={ArithType.INT: 40.0, ArithType.FLOAT: 25.0,
                    ArithType.DOUBLE: 32.0},
        loadc_cycles=1.0,
        branch_cycles=4.0,
        call_cycles=7.0,
        ret_cycles=5.0,
        load_issue_cycles=1.0,
        store_issue_cycles=1.0,
    )


def t805_grid(rows: int = 4, cols: int = 4) -> MachineConfig:
    """A T805 transputer grid (mesh), software store-and-forward routing.

    The T805 has 4 KiB on-chip SRAM (modelled as a small single-cycle
    "cache" level) and four 20 Mbit/s bidirectional links; message
    routing through intermediate transputers is store-and-forward in
    software, hence the high per-message overhead.
    """
    node = NodeConfig(
        cpu=_t805_cpu(),
        cache_levels=[CacheLevelConfig(data=CacheConfig(
            name="onchip-sram", size_bytes=4 * 1024, line_bytes=32,
            associativity=0, hit_cycles=1.0, write_policy="write-back",
            replacement="lru"))],
        bus=BusConfig(width_bytes=4, cycles_per_beat=1.0,
                      arbitration_cycles=1.0),
        memory=MemoryConfig(access_cycles=5.0, cycles_per_word=1.0,
                            word_bytes=4),
    )
    # 20 Mbit/s link at 30 MHz -> ~0.083 bytes/cycle.
    network = NetworkConfig(
        topology=TopologyConfig(kind="mesh", dims=(rows, cols)),
        routing="dimension_order",
        switching="store_and_forward",
        link_bandwidth=20e6 / 8 / 30e6,
        link_latency=2.0,
        packet_bytes=512,
        header_bytes=4,
        flit_bytes=1,
        routing_cycles=20.0,      # software through-routing
        send_overhead=150.0,      # library setup, ~5 us at 30 MHz
        recv_overhead=150.0,
    )
    return MachineConfig(name=f"t805-grid-{rows}x{cols}", node=node,
                         network=network).validate()


def powerpc601_node() -> MachineConfig:
    """A Motorola PowerPC 601 node with two cache levels (Section 6).

    601 @ 66 MHz: 32 KiB unified 8-way L1 (64-byte lines), an external
    512 KiB direct-mapped L2, a 64-bit system bus and ~10 bus-cycle DRAM.
    Configured as a single node ("full" topology of size 1 is invalid, so
    a minimal 2-node ring carries the — unused — network).
    """
    cpu = CPUConfig(
        name="PPC601-66",
        clock_hz=66e6,
        add_cycles={ArithType.INT: 1.0, ArithType.FLOAT: 1.0,
                    ArithType.DOUBLE: 1.0},
        sub_cycles={ArithType.INT: 1.0, ArithType.FLOAT: 1.0,
                    ArithType.DOUBLE: 1.0},
        mul_cycles={ArithType.INT: 5.0, ArithType.FLOAT: 1.0,
                    ArithType.DOUBLE: 2.0},
        div_cycles={ArithType.INT: 36.0, ArithType.FLOAT: 17.0,
                    ArithType.DOUBLE: 31.0},
        loadc_cycles=1.0,
        branch_cycles=1.0,
        call_cycles=2.0,
        ret_cycles=2.0,
        load_issue_cycles=1.0,
        store_issue_cycles=1.0,
    )
    node = NodeConfig(
        cpu=cpu,
        cache_levels=[
            CacheLevelConfig(data=CacheConfig(
                name="L1", size_bytes=32 * 1024, line_bytes=64,
                associativity=8, hit_cycles=1.0,
                write_policy="write-back", replacement="lru")),
            CacheLevelConfig(data=CacheConfig(
                name="L2", size_bytes=512 * 1024, line_bytes=64,
                associativity=1, hit_cycles=8.0,
                write_policy="write-back", replacement="lru")),
        ],
        bus=BusConfig(width_bytes=8, cycles_per_beat=2.0,
                      arbitration_cycles=2.0),
        memory=MemoryConfig(access_cycles=20.0, cycles_per_word=4.0,
                            word_bytes=8),
    )
    network = NetworkConfig(topology=TopologyConfig(kind="ring", dims=(2,)))
    return MachineConfig(name="powerpc601-node", node=node,
                         network=network).validate()


def generic_multicomputer(kind: str = "mesh", dims: tuple[int, ...] = (4, 4),
                          switching: str = "wormhole",
                          n_cpus: int = 1) -> MachineConfig:
    """A fast generic multicomputer for design-space experiments.

    100 MHz nodes with split 16 KiB L1s and a 256 KiB L2, wormhole
    network at 4 bytes/cycle.  All arguments feed straight into the
    corresponding config fields.
    """
    node = NodeConfig(
        cpu=CPUConfig(name="generic-100", clock_hz=100e6),
        cache_levels=[
            CacheLevelConfig(
                data=CacheConfig(name="L1d", size_bytes=16 * 1024,
                                 line_bytes=32, associativity=4,
                                 hit_cycles=1.0),
                instr=CacheConfig(name="L1i", size_bytes=16 * 1024,
                                  line_bytes=32, associativity=2,
                                  hit_cycles=1.0)),
            CacheLevelConfig(data=CacheConfig(
                name="L2", size_bytes=256 * 1024, line_bytes=64,
                associativity=8, hit_cycles=6.0)),
        ],
        n_cpus=n_cpus,
    )
    network = NetworkConfig(
        topology=TopologyConfig(kind=kind, dims=dims),
        switching=switching,
    )
    return MachineConfig(
        name=f"generic-{kind}{'x'.join(map(str, dims))}-{switching}",
        node=node, network=network).validate()


def smp_node(n_cpus: int = 4, coherence: str = "mesi") -> MachineConfig:
    """A bus-based shared-memory multiprocessor node (Section 4.3)."""
    machine = generic_multicomputer(kind="ring", dims=(2,), n_cpus=n_cpus)
    machine.name = f"smp-{n_cpus}cpu-{coherence}"
    machine.node.coherence = coherence
    return machine.validate()
