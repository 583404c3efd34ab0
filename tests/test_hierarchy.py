"""Cache hierarchy latency composition (uniprocessor analytic path)."""

from __future__ import annotations

import pytest

from repro.compmodel import AccessKind, CacheHierarchy
from repro.config import (
    BusConfig,
    CacheConfig,
    CacheLevelConfig,
    MemoryConfig,
)


BUS = BusConfig(width_bytes=8, cycles_per_beat=1.0, arbitration_cycles=1.0)
MEM = MemoryConfig(access_cycles=20.0, cycles_per_word=2.0, word_bytes=8)


def make_hierarchy(levels):
    return CacheHierarchy(levels, BUS, MEM)


def one_level(**kw):
    defaults = dict(size_bytes=1024, line_bytes=32, associativity=2,
                    hit_cycles=1.0)
    defaults.update(kw)
    return [CacheLevelConfig(data=CacheConfig(**defaults))]


def line_fill_cost(line_bytes=32):
    """bus arb + bus transfer + DRAM line fill, per the configs above."""
    beats = -(-line_bytes // BUS.width_bytes)
    words = -(-line_bytes // MEM.word_bytes)
    return (BUS.arbitration_cycles + beats * BUS.cycles_per_beat
            + MEM.access_cycles + (words - 1) * MEM.cycles_per_word)


class TestSingleLevel:
    def test_cold_miss_then_hit(self):
        h = make_hierarchy(one_level())
        miss = h.access_cycles(AccessKind.READ, 0x100, 8)
        assert miss == pytest.approx(1.0 + line_fill_cost())
        hit = h.access_cycles(AccessKind.READ, 0x100, 8)
        assert hit == pytest.approx(1.0)

    def test_cacheless_goes_to_memory(self):
        h = make_hierarchy([])
        cost = h.access_cycles(AccessKind.READ, 0x0, 8)
        # 8-byte access: 1 beat + arb + single-word DRAM access.
        assert cost == pytest.approx(1.0 + 1.0 + 20.0)

    def test_line_spanning_access_costs_two_lines(self):
        h = make_hierarchy(one_level())
        spanning = h.access_cycles(AccessKind.READ, 0x100 + 28, 8)
        assert spanning == pytest.approx(2 * (1.0 + line_fill_cost()))

    def test_write_allocate_fills_line(self):
        h = make_hierarchy(one_level(write_allocate=True))
        h.access_cycles(AccessKind.WRITE, 0x200, 8)
        assert h.data_path[0].contains(0x200)

    def test_write_no_allocate_bypasses(self):
        h = make_hierarchy(one_level(write_allocate=False))
        cost = h.access_cycles(AccessKind.WRITE, 0x200, 8)
        assert not h.data_path[0].contains(0x200)
        assert h.memory.writes == 1
        assert cost > 1.0

    def test_dirty_eviction_adds_writeback(self):
        # Direct-mapped cache: two addresses mapping to the same set.
        h = make_hierarchy(one_level(size_bytes=128, line_bytes=32,
                                     associativity=1))
        h.access_cycles(AccessKind.WRITE, 0x000, 8)     # dirty line in set 0
        clean_fill = 1.0 + line_fill_cost()
        cost = h.access_cycles(AccessKind.READ, 0x080, 8)  # evicts dirty
        assert cost == pytest.approx(clean_fill + line_fill_cost())
        assert h.memory.writes == 1


class TestTwoLevels:
    def two_level(self):
        return [
            CacheLevelConfig(data=CacheConfig(
                name="L1", size_bytes=256, line_bytes=32, associativity=2,
                hit_cycles=1.0)),
            CacheLevelConfig(data=CacheConfig(
                name="L2", size_bytes=4096, line_bytes=32, associativity=4,
                hit_cycles=6.0)),
        ]

    def test_l2_hit_cost(self):
        h = make_hierarchy(self.two_level())
        h.access_cycles(AccessKind.READ, 0x100, 8)          # fill both
        # Evict from L1 by filling its set (set count = 256/32/2 = 4 sets).
        for i in range(1, 3):
            h.access_cycles(AccessKind.READ, 0x100 + i * 0x80, 8)
        assert not h.data_path[0].contains(0x100)
        assert h.data_path[1].contains(0x100)
        cost = h.access_cycles(AccessKind.READ, 0x100, 8)
        assert cost == pytest.approx(1.0 + 6.0)             # L1 miss + L2 hit

    def test_full_miss_costs_both_tag_checks(self):
        h = make_hierarchy(self.two_level())
        cost = h.access_cycles(AccessKind.READ, 0x100, 8)
        assert cost == pytest.approx(1.0 + 6.0 + line_fill_cost())

    def test_victim_resident_below_writes_back_cheaply(self):
        h = make_hierarchy(self.two_level())
        h.access_cycles(AccessKind.WRITE, 0x000, 8)
        # Thrash set 0 of L1 to evict the dirty line; L2 holds it.
        h.access_cycles(AccessKind.READ, 0x080, 8)
        mem_writes_before = h.memory.writes
        h.access_cycles(AccessKind.READ, 0x100, 8)   # evicts dirty 0x000
        assert h.memory.writes == mem_writes_before   # absorbed by L2
        from repro.compmodel import LineState
        assert h.data_path[1].probe(0x000) is LineState.MODIFIED


class TestWriteThrough:
    def test_write_through_propagates_traffic(self):
        levels = one_level(write_policy="write-through")
        h = make_hierarchy(levels)
        h.access_cycles(AccessKind.READ, 0x100, 8)    # fill
        writes_before = h.memory.writes
        hit_cost = h.access_cycles(AccessKind.WRITE, 0x100, 8)
        assert hit_cost == pytest.approx(1.0)          # no stall
        assert h.memory.writes == writes_before + 1    # traffic counted
        from repro.compmodel import LineState
        assert h.data_path[0].probe(0x100) is LineState.SHARED


class TestSplitL1:
    def split(self):
        return [CacheLevelConfig(
            data=CacheConfig(name="L1d", size_bytes=256, line_bytes=32,
                             associativity=2),
            instr=CacheConfig(name="L1i", size_bytes=256, line_bytes=32,
                              associativity=2))]

    def test_ifetch_uses_instruction_path(self):
        h = make_hierarchy(self.split())
        h.access_cycles(AccessKind.IFETCH, 0x400000, 4)
        assert h.instr_path[0].contains(0x400000)
        assert not h.data_path[0].contains(0x400000)

    def test_data_uses_data_path(self):
        h = make_hierarchy(self.split())
        h.access_cycles(AccessKind.READ, 0x100, 8)
        assert h.data_path[0].contains(0x100)
        assert not h.instr_path[0].contains(0x100)

    def test_unified_level_shares(self):
        h = make_hierarchy(one_level())
        h.access_cycles(AccessKind.IFETCH, 0x500, 4)
        assert h.data_path[0].contains(0x500)


class TestSummary:
    def test_summary_structure(self):
        h = make_hierarchy(one_level())
        h.access_cycles(AccessKind.READ, 0, 8)
        s = h.summary()
        assert "caches" in s and "bus" in s and "memory" in s
        assert s["memory"]["reads"] == 1
