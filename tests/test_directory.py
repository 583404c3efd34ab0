"""Directory-based coherence and the crossbar node fabric."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.compmodel import LineState
from repro.config import (
    CacheConfig,
    CacheLevelConfig,
    ConfigError,
    NodeConfig,
)
from repro.operations import MemType, load, store
from repro.sharedmem import SMPNodeModel


def make_smp(n_cpus=2, protocol="mesi", fabric="bus",
             lookup=2.0) -> SMPNodeModel:
    cfg = NodeConfig(
        n_cpus=n_cpus,
        coherence=protocol,
        coherence_style="directory",
        directory_lookup_cycles=lookup,
        fabric=fabric,
        cache_levels=[CacheLevelConfig(data=CacheConfig(
            size_bytes=512, line_bytes=32, associativity=2))])
    return SMPNodeModel(cfg)


L = lambda a: load(MemType.INT64, a)
S = lambda a: store(MemType.INT64, a)


class TestDirectoryProtocol:
    def test_first_read_exclusive_under_mesi(self):
        smp = make_smp()
        smp.run_traces([[L(0x100)], []])
        assert smp.dcaches[0].probe(0x100) is LineState.EXCLUSIVE
        assert smp.coherence.sharers_of(0x100) == {0}

    def test_msi_loads_shared(self):
        smp = make_smp(protocol="msi")
        smp.run_traces([[L(0x100)], []])
        assert smp.dcaches[0].probe(0x100) is LineState.SHARED

    def test_sharer_set_tracks_readers(self):
        smp = make_smp(n_cpus=3)
        smp.run_traces([[L(0x100)], [L(0x100)], [L(0x100)]])
        assert smp.coherence.sharers_of(0x100) == {0, 1, 2}

    def test_write_invalidates_only_sharers(self):
        smp = make_smp(n_cpus=4)
        # CPUs 0,1 share the line; CPU 2 writes it; CPU 3 never touches it.
        smp.run_traces([[L(0x100)], [L(0x100)], [S(0x100)], [L(0x900)]])
        stats = smp.coherence.stats
        # Exactly the two actual sharers received invalidations.
        assert stats.invalidations_sent == 2
        assert smp.coherence.sharers_of(0x100) == {2}
        assert smp.dcaches[2].probe(0x100) is LineState.MODIFIED

    def test_dirty_owner_fetch(self):
        smp = make_smp()
        smp.run_traces([[S(0x100)], [L(0x100)]])
        assert smp.coherence.stats.owner_fetches >= 1
        assert smp.dcaches[0].probe(0x100) is LineState.SHARED
        assert smp.dcaches[1].probe(0x100) is LineState.SHARED
        assert smp.coherence.sharers_of(0x100) == {0, 1}

    def test_silent_e_to_m_records_ownership(self):
        smp = make_smp()
        smp.run_traces([[L(0x100), S(0x100)], []])
        # One directory read, no upgrade (MESI silent transition).
        assert smp.coherence.stats.reads == 1
        assert smp.coherence.stats.upgrades == 0
        assert smp.coherence._dir[
            smp.coherence._line(0x100)].dirty_owner == 0

    def test_eviction_notice_cleans_sharer_map(self):
        smp = make_smp()
        # 2-way sets: three same-set lines evict the first.
        smp.run_traces([[L(0x000), L(0x100), L(0x200)], []])
        assert smp.coherence.stats.eviction_notices >= 1
        assert smp.coherence.sharers_of(0x000) == set()

    def test_private_data_no_invalidations(self):
        smp = make_smp(n_cpus=4)
        traces = [[L(0x1000 * (c + 1)), S(0x1000 * (c + 1))]
                  for c in range(4)]
        smp.run_traces(traces)
        assert smp.coherence.stats.invalidations_sent == 0


class TestDirectoryInvariants:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 7), st.booleans()),
        min_size=1, max_size=100))
    def test_sharer_map_matches_caches(self, accesses):
        """The directory's sharer set equals the caches' residency."""
        smp = make_smp(n_cpus=3)
        traces = [[], [], []]
        for cpu, line, is_write in accesses:
            addr = 0x1000 + line * 32
            traces[cpu].append(S(addr) if is_write else L(addr))
        smp.run_traces(traces)
        for line_idx in range(8):
            addr = 0x1000 + line_idx * 32
            holders = {c for c in range(3)
                       if smp.dcaches[c].probe(addr).is_valid}
            assert smp.coherence.sharers_of(addr) == holders

    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 7), st.booleans()),
        min_size=1, max_size=100))
    def test_single_writer(self, accesses):
        smp = make_smp(n_cpus=3)
        traces = [[], [], []]
        for cpu, line, is_write in accesses:
            addr = 0x1000 + line * 32
            traces[cpu].append(S(addr) if is_write else L(addr))
        smp.run_traces(traces)
        for line_idx in range(8):
            addr = 0x1000 + line_idx * 32
            states = [c.probe(addr) for c in smp.dcaches]
            exclusive = [s for s in states
                         if s in (LineState.MODIFIED, LineState.EXCLUSIVE)]
            if exclusive:
                assert len(exclusive) == 1
                assert sum(1 for s in states if s.is_valid) == 1


class TestCrossbarFabric:
    def test_crossbar_overlaps_disjoint_traffic(self):
        """Independent per-CPU misses overlap on the crossbar but
        serialize on the bus."""
        def runtime(fabric):
            smp = make_smp(n_cpus=4, fabric=fabric)
            traces = [[L(0x10000 * (c + 1) + i * 32) for i in range(12)]
                      for c in range(4)]
            return smp.run_traces(traces).total_cycles

        assert runtime("crossbar") < runtime("bus")

    def test_directory_port_still_serializes(self):
        """Even on the crossbar, directory lookups are one at a time:
        4 CPUs missing the same moment take longer than 1."""
        def runtime(n_busy):
            smp = make_smp(n_cpus=4, fabric="crossbar")
            traces = [[L(0x10000 * (c + 1))] if c < n_busy else []
                      for c in range(4)]
            return smp.run_traces(traces).total_cycles

        assert runtime(4) > runtime(1)

    def test_snoopy_rejects_crossbar(self):
        cfg = NodeConfig(
            n_cpus=2, coherence_style="snoopy", fabric="crossbar",
            cache_levels=[CacheLevelConfig(data=CacheConfig())])
        with pytest.raises(ConfigError, match="broadcast"):
            cfg.validate()


class TestStyleComparison:
    def test_private_writes_cheaper_than_snoopy_broadcast_counts(self):
        """Directory sends zero invalidations for unshared data; snoopy
        still occupies the bus per transaction (counts comparable), but
        the directory's invalidation count is exactly zero."""
        directory = make_smp(n_cpus=4)
        directory.run_traces([[L(0x1000 * (c + 1)), S(0x1000 * (c + 1))]
                              for c in range(4)])
        assert directory.coherence.stats.invalidations_sent == 0

    def test_lookup_latency_visible(self):
        fast = make_smp(lookup=0.0)
        slow = make_smp(lookup=50.0)
        trace = [L(0x1000 + i * 32) for i in range(10)]
        t_fast = fast.run_traces([trace, []]).total_cycles
        t_slow = slow.run_traces([trace, []]).total_cycles
        assert t_slow == pytest.approx(t_fast + 10 * 50.0)

    def test_config_round_trip_with_new_fields(self):
        from repro.config import MachineConfig
        from repro import smp_node
        m = smp_node(4)
        m.node.coherence_style = "directory"
        m.node.fabric = "crossbar"
        m.node.directory_lookup_cycles = 7.5
        again = MachineConfig.from_dict(m.to_dict())
        assert again.node.coherence_style == "directory"
        assert again.node.fabric == "crossbar"
        assert again.node.directory_lookup_cycles == 7.5
