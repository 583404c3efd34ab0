"""Reference workloads: trace validity and expected structure."""

from __future__ import annotations

import pytest

from repro import Workbench, generic_multicomputer
from repro.apps import (
    ThreadedApplication,
    alltoall_task_traces,
    make_alltoall,
    make_jacobi,
    make_matmul,
    make_pingpong,
    make_pipeline,
    make_reduction,
    matmul_flops,
    pingpong_task_traces,
    pipeline_task_traces,
)
from repro.operations import OpCode


@pytest.fixture(scope="module")
def wb() -> Workbench:
    return Workbench(generic_multicomputer("mesh", (2, 2)))


class TestRecordedValidity:
    @pytest.mark.parametrize("program_factory", [
        lambda: make_matmul(n=8),
        lambda: make_jacobi(grid=8, iterations=2),
        lambda: make_pingpong(size=128, repeats=2),
        lambda: make_alltoall(block_bytes=64),
        lambda: make_pipeline(items=3, item_bytes=128),
        lambda: make_reduction(local_elems=16),
    ], ids=["matmul", "jacobi", "pingpong", "alltoall", "pipeline",
            "reduction"])
    @pytest.mark.parametrize("n_nodes", [2, 4])
    def test_traces_matched(self, program_factory, n_nodes, assert_lint_clean):
        ts = ThreadedApplication(program_factory(), n_nodes).record()
        assert_lint_clean(traces=ts)


class TestMatmul:
    def test_flops_formula(self):
        assert matmul_flops(10) == 2000

    def test_mul_count_matches_n_cubed(self):
        ts = ThreadedApplication(make_matmul(n=8, gather=False), 2).record()
        muls = sum(t.op_histogram().get(OpCode.MUL, 0) for t in ts)
        assert muls == 8 ** 3

    def test_more_nodes_than_rows(self, assert_lint_clean):
        ts = ThreadedApplication(make_matmul(n=2), 4).record()
        assert_lint_clean(traces=ts)

    def test_runs_hybrid(self, wb):
        res = wb.run_hybrid(make_matmul(n=8))
        assert res.total_cycles > 0

    def test_bad_size(self):
        with pytest.raises(ValueError):
            make_matmul(n=0)


class TestJacobi:
    def test_halo_messages(self):
        ts = ThreadedApplication(make_jacobi(grid=8, iterations=3),
                                 4).record()
        sends = sum(t.op_histogram().get(OpCode.SEND, 0) for t in ts)
        # interior nodes: 2 sends, edges: 1; per iteration: 2*2 + 2*1 = 6.
        assert sends == 3 * 6

    def test_single_node_no_comm(self):
        ts = ThreadedApplication(make_jacobi(grid=8, iterations=1),
                                 1).record()
        assert ts[0].communication_count == 0

    def test_bad_params(self):
        with pytest.raises(ValueError):
            make_jacobi(grid=2)
        with pytest.raises(ValueError):
            make_jacobi(grid=8, iterations=0)


class TestPingpong:
    def test_round_trip_count(self, wb):
        res = wb.run_hybrid(make_pingpong(size=256, repeats=3))
        assert res.comm.messages_delivered == 6

    def test_task_traces(self, assert_lint_clean):
        ts = pingpong_task_traces(4, size=128, repeats=2,
                                  think_cycles=100.0)
        assert_lint_clean(traces=ts)
        assert ts[0].op_histogram()[OpCode.COMPUTE] == 2

    def test_same_node_rejected(self):
        with pytest.raises(ValueError):
            pingpong_task_traces(2, a=0, b=0)


class TestAlltoall:
    def test_every_pair_communicates(self, assert_lint_clean):
        n = 4
        ts = alltoall_task_traces(n, block_bytes=64)
        assert_lint_clean(traces=ts)
        for t in ts:
            dests = {op.peer for op in t if op.code is OpCode.SEND}
            assert dests == set(range(n)) - {t.node}

    def test_runs_hybrid(self, wb):
        res = wb.run_hybrid(make_alltoall(block_bytes=128))
        assert res.comm.messages_delivered == 4 * 3


class TestPipeline:
    def test_item_flow(self, wb):
        res = wb.run_hybrid(make_pipeline(items=3, item_bytes=256))
        # 3 stages forward: (n_nodes - 1) * items messages.
        assert res.comm.messages_delivered == 3 * 3

    def test_imbalanced_stage_dominates(self):
        balanced = pipeline_task_traces(4, items=6, stage_cycles=1000.0)
        skewed = pipeline_task_traces(4, items=6,
                                      stage_cycles=[1000, 5000, 1000, 1000])
        wb = Workbench(generic_multicomputer("ring", (4,)))
        t_bal = wb.run_comm_only(balanced).total_cycles
        t_skew = wb.run_comm_only(skewed).total_cycles
        assert t_skew > t_bal * 2

    def test_bad_stage_list(self):
        with pytest.raises(ValueError):
            pipeline_task_traces(3, stage_cycles=[1.0, 2.0])


class TestReduction:
    @pytest.mark.parametrize("n", [2, 4])
    def test_allreduce_correct_payloads(self, n, assert_lint_clean):
        # The program itself asserts the reduced value on every node.
        ts = ThreadedApplication(make_reduction(local_elems=8), n).record()
        assert_lint_clean(traces=ts)

    def test_runs_hybrid(self, wb):
        res = wb.run_hybrid(make_reduction(local_elems=16))
        assert res.total_cycles > 0
