"""Machine configuration: validation rules and serialization."""

from __future__ import annotations

import pytest

from repro.config import (
    BusConfig,
    CPUConfig,
    CacheConfig,
    CacheLevelConfig,
    ConfigError,
    MachineConfig,
    MemoryConfig,
    NetworkConfig,
    NodeConfig,
    TopologyConfig,
)
from repro.machines import generic_multicomputer, powerpc601_node, t805_grid
from repro.operations import ArithType


class TestCacheConfig:
    def test_derived_geometry(self):
        c = CacheConfig(size_bytes=32 * 1024, line_bytes=32, associativity=4)
        assert c.n_lines == 1024
        assert c.n_sets == 256

    def test_fully_associative(self):
        c = CacheConfig(size_bytes=1024, line_bytes=32, associativity=0)
        assert c.n_sets == 1
        c.validate()

    def test_bad_line_size(self):
        with pytest.raises(ConfigError):
            CacheConfig(line_bytes=24).validate()

    def test_size_not_multiple_of_line(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=100, line_bytes=32).validate()

    def test_assoc_does_not_divide(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=96, line_bytes=32,
                        associativity=2).validate()

    def test_bad_policies(self):
        with pytest.raises(ConfigError):
            CacheConfig(write_policy="write-maybe").validate()
        with pytest.raises(ConfigError):
            CacheConfig(replacement="clairvoyant").validate()


class TestBusMemory:
    def test_bus_transfer_cycles(self):
        bus = BusConfig(width_bytes=8, cycles_per_beat=2.0)
        assert bus.transfer_cycles(8) == 2.0
        assert bus.transfer_cycles(9) == 4.0    # ceil to two beats
        assert bus.transfer_cycles(0) == 2.0    # minimum one beat

    def test_memory_line_fill(self):
        mem = MemoryConfig(access_cycles=20.0, cycles_per_word=2.0,
                           word_bytes=8)
        assert mem.line_fill_cycles(8) == 20.0
        assert mem.line_fill_cycles(64) == 20.0 + 7 * 2.0

    def test_bad_values(self):
        with pytest.raises(ConfigError):
            BusConfig(width_bytes=0).validate()
        with pytest.raises(ConfigError):
            MemoryConfig(access_cycles=-1).validate()


class TestCPUConfig:
    def test_missing_arith_entry(self):
        cfg = CPUConfig()
        del cfg.add_cycles[ArithType.DOUBLE]
        with pytest.raises(ConfigError, match="add_cycles"):
            cfg.validate()

    def test_negative_cost(self):
        cfg = CPUConfig(branch_cycles=-1.0)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_bad_clock(self):
        with pytest.raises(ConfigError):
            CPUConfig(clock_hz=0).validate()


class TestNodeNetwork:
    def test_multi_cpu_needs_cache(self):
        with pytest.raises(ConfigError, match="multi-CPU"):
            NodeConfig(n_cpus=2, cache_levels=[]).validate()

    def test_bad_coherence(self):
        with pytest.raises(ConfigError):
            NodeConfig(coherence="moesi++",
                       cache_levels=[CacheLevelConfig()]).validate()

    def test_bad_routing_switching(self):
        with pytest.raises(ConfigError):
            NetworkConfig(routing="hot-potato").validate()
        with pytest.raises(ConfigError):
            NetworkConfig(switching="circuit").validate()

    def test_bad_link_params(self):
        with pytest.raises(ConfigError):
            NetworkConfig(link_bandwidth=0).validate()

    def test_n_nodes(self):
        m = MachineConfig(network=NetworkConfig(
            topology=TopologyConfig(kind="hypercube", dims=(4,))))
        assert m.n_nodes == 16


class TestSerialization:
    @pytest.mark.parametrize("machine", [
        t805_grid(2, 3), powerpc601_node(),
        generic_multicomputer("torus", (3, 3), switching="store_and_forward",
                              n_cpus=2)])
    def test_dict_round_trip(self, machine):
        data = machine.to_dict()
        again = MachineConfig.from_dict(data)
        assert again.to_dict() == data
        assert again.name == machine.name
        assert again.n_nodes == machine.n_nodes

    def test_round_trip_preserves_arith_tables(self):
        m = t805_grid(2, 2)
        again = MachineConfig.from_dict(m.to_dict())
        assert again.node.cpu.mul_cycles[ArithType.INT] == \
            m.node.cpu.mul_cycles[ArithType.INT]
