"""Cache tag store: mapping, replacement, write policies, invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compmodel import Cache, LineState
from repro.config import CacheConfig


def make_cache(**kwargs) -> Cache:
    defaults = dict(size_bytes=128, line_bytes=16, associativity=2,
                    hit_cycles=1.0)
    defaults.update(kwargs)
    return Cache(CacheConfig(**defaults))


class TestMapping:
    def test_line_address(self):
        c = make_cache()
        assert c.line_address(0x0) == 0x0
        assert c.line_address(0x1f) == 0x10
        assert c.line_address(0x20) == 0x20

    def test_same_line_same_set(self):
        c = make_cache()
        c.insert(0x100, LineState.SHARED)
        assert c.contains(0x100) and c.contains(0x10f)
        assert not c.contains(0x110)


class TestLookupAndInsert:
    def test_miss_then_hit(self):
        c = make_cache()
        assert not c.lookup(0x40, is_write=False)
        c.insert(0x40, LineState.SHARED)
        assert c.lookup(0x40, is_write=False)
        assert c.stats.read_misses == 1
        assert c.stats.read_hits == 1

    def test_write_hit_dirties_writeback_line(self):
        c = make_cache(write_policy="write-back")
        c.insert(0x40, LineState.SHARED)
        assert c.lookup(0x40, is_write=True)
        assert c.probe(0x40) is LineState.MODIFIED

    def test_write_hit_does_not_dirty_writethrough_line(self):
        c = make_cache(write_policy="write-through")
        c.insert(0x40, LineState.SHARED)
        c.lookup(0x40, is_write=True)
        assert c.probe(0x40) is LineState.SHARED

    def test_insert_existing_replaces_state(self):
        c = make_cache()
        c.insert(0x40, LineState.SHARED)
        assert c.insert(0x40, LineState.MODIFIED) is None
        assert c.probe(0x40) is LineState.MODIFIED
        assert c.resident_lines == 1

    def test_eviction_returns_victim(self):
        c = make_cache()   # 4 sets, 2 ways; set = (addr>>4) & 3
        # Three lines in set 0: 0x000, 0x040, 0x080
        c.insert(0x000, LineState.SHARED)
        c.insert(0x040, LineState.MODIFIED)
        victim = c.insert(0x080, LineState.SHARED)
        assert victim == (0x000, LineState.SHARED)
        assert c.stats.evictions == 1
        assert c.stats.writebacks == 0

    def test_dirty_victim_counts_writeback(self):
        c = make_cache()
        c.insert(0x000, LineState.MODIFIED)
        c.insert(0x040, LineState.SHARED)
        victim = c.insert(0x080, LineState.SHARED)
        assert victim == (0x000, LineState.MODIFIED)
        assert c.stats.writebacks == 1


class TestReplacement:
    def test_lru_refreshes_on_hit(self):
        c = make_cache(replacement="lru")
        c.insert(0x000, LineState.SHARED)
        c.insert(0x040, LineState.SHARED)
        c.lookup(0x000, is_write=False)      # refresh 0x000
        victim = c.insert(0x080, LineState.SHARED)
        assert victim[0] == 0x040

    def test_fifo_ignores_hits(self):
        c = make_cache(replacement="fifo")
        c.insert(0x000, LineState.SHARED)
        c.insert(0x040, LineState.SHARED)
        c.lookup(0x000, is_write=False)      # does not refresh under FIFO
        victim = c.insert(0x080, LineState.SHARED)
        assert victim[0] == 0x000

    def test_random_eviction_deterministic_with_seed(self):
        def victims(seed):
            c = Cache(CacheConfig(size_bytes=128, line_bytes=16,
                                  associativity=2, replacement="random"),
                      rng=np.random.default_rng(seed))
            c.insert(0x000, LineState.SHARED)
            c.insert(0x040, LineState.SHARED)
            out = []
            for addr in (0x080, 0x0c0, 0x100):
                v = c.insert(addr, LineState.SHARED)
                out.append(v[0])
            return out
        assert victims(1) == victims(1)


class TestCoherenceHooks:
    def test_invalidate(self):
        c = make_cache()
        c.insert(0x40, LineState.MODIFIED)
        assert c.invalidate(0x40) is LineState.MODIFIED
        assert not c.contains(0x40)
        assert c.stats.invalidations_received == 1
        assert c.invalidate(0x40) is LineState.INVALID

    def test_set_state(self):
        c = make_cache()
        c.insert(0x40, LineState.SHARED)
        c.set_state(0x40, LineState.EXCLUSIVE)
        assert c.probe(0x40) is LineState.EXCLUSIVE
        c.set_state(0x40, LineState.INVALID)
        assert not c.contains(0x40)

    def test_set_state_missing_raises(self):
        c = make_cache()
        with pytest.raises(KeyError):
            c.set_state(0x40, LineState.MODIFIED)

    def test_flush_all(self):
        c = make_cache()
        c.insert(0x00, LineState.MODIFIED)
        c.insert(0x40, LineState.SHARED)
        assert c.flush_all() == 1
        assert c.resident_lines == 0


class TestInvariants:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1023), st.booleans()),
                    max_size=300))
    def test_capacity_never_exceeded(self, accesses):
        c = make_cache()
        for addr, is_write in accesses:
            if not c.lookup(addr, is_write):
                c.insert(addr, LineState.MODIFIED if is_write
                         else LineState.SHARED)
        assert c.resident_lines <= c.cfg.n_lines
        # Every set individually bounded by associativity.
        for s in c._sets:
            assert len(s) <= c.assoc

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 255), min_size=1, max_size=100))
    def test_most_recent_line_always_resident(self, addrs):
        c = make_cache()
        for addr in addrs:
            if not c.lookup(addr, is_write=False):
                c.insert(addr, LineState.SHARED)
            assert c.contains(addr)

    def test_hit_rate_calculation(self):
        c = make_cache()
        c.insert(0x00, LineState.SHARED)
        c.lookup(0x00, is_write=False)
        c.lookup(0x40, is_write=False)
        assert c.stats.hit_rate() == pytest.approx(0.5)
        assert c.stats.accesses == 2
