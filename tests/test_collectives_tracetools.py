"""Collective operations (scatter/gather/allgather) and trace tools."""

from __future__ import annotations

import io

import pytest

from repro import Workbench, generic_multicomputer
from repro.analysis import (
    compare_trace_sets,
    dump_trace,
    trace_profile,
    trace_set_profile,
)
from repro.apps import ThreadedApplication, make_matmul
from repro.operations import (
    MemType,
    Trace,
    TraceSet,
    add,
    ifetch,
    load,
    send,
)


class TestCollectives:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_scatter(self, n, assert_lint_clean):
        got = {}

        def program(ctx):
            values = [f"v{i}" for i in range(ctx.n_nodes)] \
                if ctx.node_id == 0 else None
            got[ctx.node_id] = ctx.scatter(0, 64, values)

        ts = ThreadedApplication(program, n).record()
        assert_lint_clean(traces=ts)
        assert got == {i: f"v{i}" for i in range(n)}

    @pytest.mark.parametrize("n", [1, 2, 4, 5])
    def test_gather(self, n, assert_lint_clean):
        got = {}

        def program(ctx):
            got[ctx.node_id] = ctx.gather(0, 32, ctx.node_id * 10)

        ts = ThreadedApplication(program, n).record()
        assert_lint_clean(traces=ts)
        assert got[0] == [i * 10 for i in range(n)]
        assert all(got[i] is None for i in range(1, n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
    def test_allgather(self, n, assert_lint_clean):
        got = {}

        def program(ctx):
            got[ctx.node_id] = ctx.allgather(16, ctx.node_id + 100)

        ts = ThreadedApplication(program, n).record()
        assert_lint_clean(traces=ts)
        expected = [i + 100 for i in range(n)]
        assert all(got[i] == expected for i in range(n))

    def test_scatter_wrong_value_count(self):
        def program(ctx):
            values = [1] if ctx.node_id == 0 else None
            ctx.scatter(0, 8, values)

        with pytest.raises(Exception, match="scatter needs"):
            ThreadedApplication(program, 3).record()

    def test_collectives_simulate(self):
        def program(ctx):
            mine = ctx.scatter(0, 1024,
                               list(range(ctx.n_nodes))
                               if ctx.node_id == 0 else None)
            everyone = ctx.allgather(512, mine * 2)
            total = ctx.gather(0, 256, sum(everyone))
            if ctx.node_id == 0:
                assert all(t == sum(2 * i for i in range(ctx.n_nodes))
                           for t in total)

        wb = Workbench(generic_multicomputer("mesh", (2, 2)))
        res = wb.run_hybrid(program)
        assert res.comm.messages_delivered > 0


class TestTraceTools:
    def sample(self) -> Trace:
        ops = [ifetch(0x400000), load(MemType.FLOAT64, 0x1000), add(),
               ifetch(0x400000), add(), send(128, 1)]
        return Trace(0, ops)

    def test_dump(self):
        buf = io.StringIO()
        n = dump_trace(self.sample(), buf)
        assert n == 6
        assert "send" in buf.getvalue()

    def test_dump_limit(self):
        buf = io.StringIO()
        n = dump_trace(self.sample(), buf, limit=2)
        assert n == 2
        assert "more" in buf.getvalue()

    def test_profile(self):
        p = trace_profile(self.sample())
        assert p["ops"] == 6
        assert p["memory"] == 1
        assert p["arithmetic"] == 2
        assert p["communication"] == 1
        assert p["bytes_sent"] == 128
        assert p["loop_reuse"] == 2.0   # two fetches of one address

    def test_set_profile_totals(self):
        ts = TraceSet([self.sample(), Trace(1, [add()])])
        rows = trace_set_profile(ts)
        assert rows[-1]["node"] == "all"
        assert rows[-1]["ops"] == 7

    def test_compare_identical(self):
        app = ThreadedApplication(make_matmul(n=8), 2)
        a = app.record()
        b = ThreadedApplication(make_matmul(n=8), 2).record()
        diff = compare_trace_sets(a, b)
        assert diff["comparable"] and diff["identical"]

    def test_compare_differs(self):
        a = TraceSet([Trace(0, [add(), add()])])
        b = TraceSet([Trace(0, [add(), load(MemType.INT32, 0)])])
        diff = compare_trace_sets(a, b)
        assert not diff["identical"]
        assert diff["first_difference"][0] == 1
        assert diff["count_deltas"]["load"] == 1

    def test_compare_incomparable(self):
        a = TraceSet([Trace(0)])
        b = TraceSet([Trace(0), Trace(1)])
        assert compare_trace_sets(a, b)["comparable"] is False

    def test_compare_length_difference(self):
        a = TraceSet([Trace(0, [add()])])
        b = TraceSet([Trace(0, [add(), add()])])
        diff = compare_trace_sets(a, b)
        assert diff["first_difference"][0] == 1
