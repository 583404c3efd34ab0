"""Snoopy MSI/MESI protocol: transitions, traffic, invariants."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.compmodel import LineState
from repro.config import (CacheConfig,
                               CacheLevelConfig,
                               ConfigError,
                               NodeConfig)
from repro.operations import MemType, load, store
from repro.sharedmem import SMPNodeModel


def make_smp(n_cpus=2, protocol="mesi", **node_kw) -> SMPNodeModel:
    cfg = NodeConfig(
        n_cpus=n_cpus,
        coherence=protocol,
        cache_levels=[CacheLevelConfig(data=CacheConfig(
            size_bytes=512, line_bytes=32, associativity=2))],
        **node_kw)
    return SMPNodeModel(cfg)


def run(smp: SMPNodeModel, *traces):
    return smp.run_traces(list(traces))


L = lambda a: load(MemType.INT64, a)
S = lambda a: store(MemType.INT64, a)


class TestMESITransitions:
    def test_first_read_loads_exclusive(self):
        smp = make_smp()
        run(smp, [L(0x100)], [])
        assert smp.dcaches[0].probe(0x100) is LineState.EXCLUSIVE

    def test_second_reader_demotes_to_shared(self):
        smp = make_smp()
        run(smp, [L(0x100)], [L(0x100)])
        assert smp.dcaches[0].probe(0x100) is LineState.SHARED
        assert smp.dcaches[1].probe(0x100) is LineState.SHARED

    def test_write_to_exclusive_is_silent(self):
        smp = make_smp()
        run(smp, [L(0x100), S(0x100)], [])
        assert smp.dcaches[0].probe(0x100) is LineState.MODIFIED
        # One BusRd only; the E->M upgrade needs no transaction.
        assert smp.coherence.stats.transactions == 1

    def test_write_to_shared_needs_upgrade(self):
        smp = make_smp()
        # CPU0's intervening miss on 0x200 lets CPU1's BusRd demote
        # CPU0's copy of 0x100 to SHARED before CPU0 writes it.
        run(smp, [L(0x100), L(0x200), S(0x100)], [L(0x100)])
        stats = smp.coherence.stats
        assert stats.bus_upgr >= 1
        assert stats.invalidations >= 1

    def test_write_miss_invalidates_all(self):
        smp = make_smp(n_cpus=3)
        run(smp, [L(0x100)], [L(0x100)], [S(0x100)])
        assert smp.dcaches[2].probe(0x100) is LineState.MODIFIED
        assert not smp.dcaches[0].contains(0x100)
        assert not smp.dcaches[1].contains(0x100)

    def test_dirty_line_supplied_cache_to_cache(self):
        smp = make_smp()
        run(smp, [S(0x100)], [L(0x100)])
        stats = smp.coherence.stats
        assert stats.cache_to_cache >= 1
        # After the flush both copies are SHARED.
        assert smp.dcaches[0].probe(0x100) is LineState.SHARED
        assert smp.dcaches[1].probe(0x100) is LineState.SHARED


class TestMSI:
    def test_msi_never_exclusive(self):
        smp = make_smp(protocol="msi")
        run(smp, [L(0x100)], [])
        assert smp.dcaches[0].probe(0x100) is LineState.SHARED

    def test_msi_private_write_pays_upgrade(self):
        """The MESI advantage: read-then-write of private data is silent
        under MESI but costs a BusUpgr under MSI."""
        msi = make_smp(protocol="msi")
        run(msi, [L(0x100), S(0x100)], [])
        mesi = make_smp(protocol="mesi")
        run(mesi, [L(0x100), S(0x100)], [])
        assert msi.coherence.stats.transactions == 2
        assert mesi.coherence.stats.transactions == 1


class TestProtocolInvariants:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 2),              # cpu
                  st.integers(0, 7),              # line index
                  st.booleans()),                 # is_write
        min_size=1, max_size=120))
    def test_single_writer_multiple_readers(self, accesses):
        smp = make_smp(n_cpus=3)
        traces = [[], [], []]
        for cpu, line, is_write in accesses:
            addr = 0x1000 + line * 32
            traces[cpu].append(S(addr) if is_write else L(addr))
        run(smp, *traces)
        # Invariant: per line, at most one M/E copy; M/E excludes others.
        lines = {0x1000 + i * 32 for i in range(8)}
        for addr in lines:
            states = [c.probe(addr) for c in smp.dcaches]
            exclusive = [s for s in states
                         if s in (LineState.MODIFIED, LineState.EXCLUSIVE)]
            valid = [s for s in states if s.is_valid]
            if exclusive:
                assert len(exclusive) == 1
                assert len(valid) == 1

    def test_total_time_exceeds_serial_busy(self):
        smp = make_smp()
        res = run(smp, [S(0x100)] * 10, [S(0x100)] * 10)
        # Ping-ponging a line is slower than either trace alone.
        assert res.total_cycles > 10


class TestConfigErrors:
    def test_write_through_private_l1_rejected(self):
        cfg = NodeConfig(
            n_cpus=2,
            cache_levels=[CacheLevelConfig(data=CacheConfig(
                write_policy="write-through"))])
        with pytest.raises(ConfigError, match="write-back"):
            SMPNodeModel(cfg)

    def test_no_cache_rejected(self):
        with pytest.raises(ConfigError):
            SMPNodeModel(NodeConfig(n_cpus=1, cache_levels=[]))
