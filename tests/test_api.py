"""The instrumentation API: NodeContext, collectives, ThreadedApplication."""

from __future__ import annotations

import pytest

from repro.apps import ThreadedApplication, api, make_matmul
from repro.operations import (
    ArithType,
    MemType,
    OpCode,
)
from repro.tracegen import TargetABI


def record(program, n_nodes=4):
    return ThreadedApplication(program, n_nodes).record()


class TestAnnotationsThroughContext:
    def test_loop_emits_backedges(self):
        def program(ctx):
            for _ in ctx.loop(range(5)):
                ctx.const()
        ts = record(program, 1)
        hist = ts[0].op_histogram()
        assert hist[OpCode.LOADC] == 5
        assert hist[OpCode.BRANCH] == 4      # n-1 back edges
        # Back edges recur at the same fetch address.
        branches = [op.address for op in ts[0]
                    if op.code is OpCode.BRANCH]
        assert len(set(branches)) == 1

    def test_function_decorator(self):
        def program(ctx):
            @ctx.function
            def helper():
                ctx.add(ArithType.INT)
            helper()
            helper()
        ts = record(program, 1)
        hist = ts[0].op_histogram()
        assert hist[OpCode.CALL] == 2
        assert hist[OpCode.RET] == 2

    def test_function_scope_isolated(self):
        def program(ctx):
            @ctx.function
            def helper():
                ctx.local_var("tmp", MemType.INT32)   # fresh scope each call
            helper()
            helper()   # would raise 'already declared' without scoping
        record(program, 1)

    def test_flops(self):
        def program(ctx):
            ctx.flops(10)
        ts = record(program, 1)
        assert ts[0].op_histogram()[OpCode.MUL] == 10

    def test_register_variable_emits_nothing(self):
        def program(ctx):
            i = ctx.local_var("i", MemType.INT32)
            ctx.read(i)
            ctx.write(i)
        ts = record(program, 1)
        assert len(ts[0]) == 0


class TestStaticSites:
    """A site is its (filename, lineno); each line is resolved once per
    call instruction, process-wide; addresses stay per node."""

    def test_one_line_one_ifetch_address(self):
        def program(ctx):
            ctx.const(), ctx.const(MemType.FLOAT64)
            ctx.const()
        ops = list(record(program, 1)[0])
        fetches = [op.address for op in ops if op.code is OpCode.IFETCH]
        assert fetches[0] == fetches[1] != fetches[2]

    @staticmethod
    def resolutions(monkeypatch, program, n_nodes):
        """(line-number resolutions, distinct ifetch addresses of node 0)
        for one recording from an empty memo."""
        resolved = []
        real = api._resolve_site

        def spy(frame):
            resolved.append(real(frame))
            return resolved[-1]
        monkeypatch.setattr(api, "_SITES", {})
        monkeypatch.setattr(api, "_resolve_site", spy)
        ts = record(program, n_nodes)
        fetches = {op.address for op in ts[0] if op.code is OpCode.IFETCH}
        return resolved, fetches

    def test_lines_resolved_once_per_static_site(self, monkeypatch):
        counts = []
        for n in (4, 8):
            resolved, fetches = self.resolutions(
                monkeypatch, make_matmul(n=n), 2)
            # matmul has one annotation per line: every resolution is a
            # distinct site, and every site shows up as one fetch address.
            assert len(set(resolved)) == len(resolved) == len(fetches)
            counts.append(len(resolved))
        assert counts[0] == counts[1]

    def test_nodes_assign_addresses_independently(self):
        def program(ctx):
            for first in ((True, False) if ctx.node_id == 0
                          else (False, True)):
                if first:
                    ctx.const(MemType.INT32)
                else:
                    ctx.const(MemType.FLOAT64)
        ts = record(program, 2)
        # Each node numbers its sites in its own first-execution order,
        # although both share the process-wide line memo.
        for trace in ts:
            ops = list(trace)
            assert [ops[0].address, ops[2].address] == [
                TargetABI().code_base,
                TargetABI().code_base + TargetABI().instr_bytes]
        assert ts[0][1].mem_type is MemType.INT32
        assert ts[1][1].mem_type is MemType.FLOAT64


class TestCollectives:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
    def test_barrier_matches(self, n, assert_lint_clean):
        def program(ctx):
            ctx.barrier()
        assert_lint_clean(traces=record(program, n))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("root", [0, 1])
    def test_broadcast_delivers_payload(self, n, root, assert_lint_clean):
        if root >= n:
            pytest.skip("root outside machine")
        seen = {}

        def program(ctx):
            value = ctx.broadcast(root, 8,
                                  "tok" if ctx.node_id == root else None)
            seen[ctx.node_id] = value
        assert_lint_clean(traces=record(program, n))
        assert all(v == "tok" for v in seen.values())
        assert len(seen) == n

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_reduce_to_root(self, n, assert_lint_clean):
        results = {}

        def program(ctx):
            results[ctx.node_id] = ctx.reduce_to_root(
                0, 8, float(ctx.node_id + 1))
        assert_lint_clean(traces=record(program, n))
        assert results[0] == sum(range(1, n + 1))
        assert all(results[i] is None for i in range(1, n))


class TestThreadedApplication:
    def test_spmd_replication(self):
        def program(ctx):
            ctx.const()
        ts = record(program, 3)
        assert len(ts) == 3
        assert all(len(t) == 2 for t in ts)   # ifetch + loadc

    def test_mpmd_list(self):
        def a(ctx):
            ctx.send(1, 8)

        def b(ctx):
            ctx.recv(0)
        app = ThreadedApplication([a, b], 2)
        ts = app.record()
        assert ts[0].op_histogram()[OpCode.SEND] == 1
        assert ts[1].op_histogram()[OpCode.RECV] == 1

    def test_mpmd_wrong_count(self):
        with pytest.raises(ValueError):
            ThreadedApplication([lambda c: None], 2)

    def test_bad_n_nodes(self):
        with pytest.raises(ValueError):
            ThreadedApplication(lambda c: None, 0)

    def test_streams_are_fresh_each_call(self):
        def program(ctx):
            ctx.const()
        app = ThreadedApplication(program, 2)
        s1 = app.streams()
        s2 = app.streams()
        assert len(s1) == 2
        assert s1[0].thread is not s2[0].thread
        for s in s1 + s2:
            s.close()

    def test_node_identity(self):
        ids = []

        def program(ctx):
            ids.append((ctx.node_id, ctx.n_nodes))
        record(program, 3)
        assert sorted(ids) == [(0, 3), (1, 3), (2, 3)]
