"""The Workbench facade: every simulation mode through one entry point."""

from __future__ import annotations

import pytest

from repro import Workbench, generic_multicomputer, smp_node
from repro.apps import make_matmul, make_pingpong
from repro.commmodel import CommResult
from repro.compmodel import NodeResult
from repro.hybrid import HybridResult
from repro.operations import (
    MemType,
    add,
    compute,
    ifetch,
    load,
    recv,
    send,
)
from repro.sharedmem import SMPResult
from repro.tracegen import StochasticAppDescription


@pytest.fixture(scope="module")
def wb() -> Workbench:
    return Workbench(generic_multicomputer("mesh", (2, 2)))


class TestModes:
    def test_run_hybrid_with_callable(self, wb):
        res = wb.run_hybrid(make_pingpong(size=1024, repeats=2))
        assert isinstance(res, HybridResult)
        assert res.comm.messages_delivered == 4

    def test_run_mixed_traces(self, wb):
        traces = wb.record_traces(make_matmul(n=8))
        res = wb.run_mixed_traces(traces)
        assert isinstance(res, HybridResult)
        assert res.total_instructions > 0

    def test_run_comm_only(self, wb):
        traces = [
            [compute(100), send(256, 1)],
            [recv(0)],
            [compute(50)],
            [],
        ]
        res = wb.run_comm_only(traces)
        assert isinstance(res, CommResult)
        assert res.messages_delivered == 1

    def test_run_stochastic_task(self, wb):
        res = wb.run_stochastic(StochasticAppDescription(), level="task",
                                rounds=10)
        assert isinstance(res, CommResult)
        assert res.total_cycles > 0

    def test_run_stochastic_instruction(self, wb):
        res = wb.run_stochastic(StochasticAppDescription(),
                                level="instruction", ops_per_node=3000)
        assert isinstance(res, HybridResult)
        assert res.total_instructions > 0

    def test_run_stochastic_bad_level(self, wb):
        with pytest.raises(ValueError, match="unknown level"):
            wb.run_stochastic(StochasticAppDescription(), level="quantum")

    def test_run_single_node(self, wb):
        res = wb.run_single_node(
            [ifetch(0x400000), load(MemType.FLOAT64, 0), add()])
        assert isinstance(res, NodeResult)
        assert res.instructions == 3

    def test_run_smp(self):
        wb = Workbench(smp_node(2))
        res = wb.run_smp([[load(MemType.INT64, 0x100)],
                          [load(MemType.INT64, 0x100)]])
        assert isinstance(res, SMPResult)

    def test_run_smp_cluster(self):
        wb = Workbench(smp_node(2))   # ring of 2 SMP nodes
        res = wb.run_smp_cluster([
            [[compute(10), send(64, 1)], []],
            [[recv(0)], []],
        ])
        assert res.comm.messages_delivered == 1

    def test_record_traces_valid(self, wb, assert_lint_clean):
        ts = wb.record_traces(make_matmul(n=8))
        assert_lint_clean(traces=ts)

    def test_determinism_across_runs(self, wb):
        a = wb.run_hybrid(make_matmul(n=8)).total_cycles
        b = wb.run_hybrid(make_matmul(n=8)).total_cycles
        assert a == b


class TestDesignSpaceIntuition:
    """The workbench exists to compare designs; check the comparisons
    point the right way."""

    def test_bigger_cache_not_slower(self):
        from repro import vary_machine

        def set_l1(m, kib):
            m.node.cache_levels[0].data.size_bytes = kib * 1024
            m.node.cache_levels[0].instr.size_bytes = kib * 1024

        small, big = vary_machine(generic_multicomputer("mesh", (2, 2)),
                                  set_l1, [1, 64])
        t_small = Workbench(small).run_hybrid(make_matmul(n=16)).total_cycles
        t_big = Workbench(big).run_hybrid(make_matmul(n=16)).total_cycles
        assert t_big <= t_small

    def test_faster_links_not_slower(self):
        from repro import vary_machine

        def set_bw(m, bw):
            m.network.link_bandwidth = bw

        slow, fast = vary_machine(generic_multicomputer("mesh", (2, 2)),
                                  set_bw, [0.5, 8.0])
        t_slow = Workbench(slow).run_hybrid(
            make_pingpong(size=8192, repeats=2)).total_cycles
        t_fast = Workbench(fast).run_hybrid(
            make_pingpong(size=8192, repeats=2)).total_cycles
        assert t_fast < t_slow


class TestVSMEntry:
    def test_run_vsm(self, wb):
        from repro.vsm import SharedRegion

        def program(ctx):
            region = SharedRegion(ctx, "wbtest", 64, page_bytes=512)
            if ctx.node_id == 0:
                for i in range(64):
                    region.write(i)
            ctx.barrier()
            region.read(0)

        res = wb.run_vsm(program)
        assert res.faults > 0
        assert res.total_cycles > 0


class TestSweepEntry:
    def test_sweep_rooted_at_bound_machine(self, wb):
        sweep = wb.sweep("bw study")
        assert sweep.label == "bw study"
        sweep.axis("bw", lambda m, v: setattr(m.network,
                                              "link_bandwidth", v),
                   [1.0, 2.0])
        original_bw = wb.machine.network.link_bandwidth
        rows = sweep.run(lambda m: {"bw_out": m.network.link_bandwidth})
        assert [r["bw_out"] for r in rows] == [1.0, 2.0]
        # The bound machine is never mutated by sweeping.
        assert wb.machine.network.link_bandwidth == original_bw
