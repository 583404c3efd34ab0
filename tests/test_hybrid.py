"""Hybrid model: execution-driven + trace-driven co-simulation."""

from __future__ import annotations

import pytest

from repro.apps import ThreadedApplication
from repro.config import (
    CacheConfig,
    CacheLevelConfig,
    MachineConfig,
    NetworkConfig,
    NodeConfig,
    TopologyConfig,
)
from repro.hybrid import HybridModel
from repro.operations import ArithType, MemType
from repro.pearl import DeadlockError


def machine(n=4) -> MachineConfig:
    return MachineConfig(
        name="hyb",
        node=NodeConfig(cache_levels=[CacheLevelConfig(data=CacheConfig())]),
        network=NetworkConfig(
            topology=TopologyConfig(kind="ring", dims=(n,)))).validate()


def exchange_program(ctx):
    me, n = ctx.node_id, ctx.n_nodes
    X = ctx.global_var("x", MemType.FLOAT64, 64)
    for i in ctx.loop(range(64)):
        ctx.read(X, i)
        ctx.add(ArithType.DOUBLE)
    right, left = (me + 1) % n, (me - 1) % n
    if me % 2 == 0:
        ctx.send(right, 512, payload=me)
        got = ctx.recv(left)
    else:
        got = ctx.recv(left)
        ctx.send(right, 512, payload=me)
    assert got == left


class TestExecutionDriven:
    def test_runs_and_accounts(self):
        hm = HybridModel(machine())
        res = hm.run_application(ThreadedApplication(exchange_program, 4))
        assert res.total_cycles > 0
        assert res.total_instructions > 4 * 64
        assert res.comm.messages_delivered == 4
        assert len(res.node_summaries) == 4
        assert res.seconds == pytest.approx(
            res.total_cycles / 100e6)

    def test_compute_time_matches_node_models(self):
        hm = HybridModel(machine())
        res = hm.run_application(ThreadedApplication(exchange_program, 4))
        for i in range(4):
            # The network saw exactly the cycles the node model charged.
            assert res.comm.activity[i].compute_cycles == pytest.approx(
                res.task_stats[i].total_task_cycles)

    def test_a_bare_program_is_a_type_error_naming_the_wrap(self):
        """``hybrid`` cannot wrap a program itself (it shares a layer
        with ``apps``): it names the two ways that do, instead of an
        ``AttributeError`` on ``n_nodes``."""
        from repro.apps import as_application
        from repro.core.workbench import Workbench

        hm = HybridModel(machine())
        with pytest.raises(TypeError, match=r"Workbench\.run_hybrid.*"
                           r"repro\.apps\.as_application"):
            hm.run_application(exchange_program)
        wrapped = hm.run_application(as_application(exchange_program, 4))
        assert wrapped.total_cycles == \
            Workbench(machine()).run_hybrid(exchange_program).total_cycles

    def test_node_count_mismatch(self):
        hm = HybridModel(machine(4))
        with pytest.raises(ValueError, match="nodes"):
            hm.run_application(ThreadedApplication(exchange_program, 2))

    def test_deadlocking_program_detected_and_threads_cleaned(self):
        def bad(ctx):
            ctx.recv((ctx.node_id + 1) % ctx.n_nodes)   # everyone waits
        hm = HybridModel(machine())
        app = ThreadedApplication(bad, 4)
        with pytest.raises(DeadlockError):
            hm.run_application(app)

    def test_payload_dependent_control_flow(self):
        """The defining execution-driven property: behaviour follows
        received data."""
        log = []

        def program(ctx):
            if ctx.node_id == 0:
                ctx.send(1, 8, payload="long")
            elif ctx.node_id == 1:
                mode = ctx.recv(0)
                reps = 10 if mode == "long" else 1
                for _ in ctx.loop(range(reps)):
                    ctx.add(ArithType.INT)
                log.append(reps)
        hm = HybridModel(machine(2))
        # ring of 2
        m = machine(2)
        hm = HybridModel(m)
        hm.run_application(ThreadedApplication(program, 2))
        assert log == [10]


class TestTraceDriven:
    def test_recorded_traces_reproduce_stream_timing(self):
        """For payload-independent programs, trace-file mode and
        execution-driven mode give identical simulated time."""
        app = ThreadedApplication(exchange_program, 4)
        recorded = app.record()

        hm_stream = HybridModel(machine())
        t_stream = hm_stream.run_application(
            ThreadedApplication(exchange_program, 4)).total_cycles

        hm_trace = HybridModel(machine())
        t_trace = hm_trace.run_traces(recorded).total_cycles
        assert t_trace == pytest.approx(t_stream)

    def test_trace_count_mismatch(self):
        hm = HybridModel(machine(4))
        with pytest.raises(ValueError):
            hm.run_traces([[], []])


class TestConfigGuards:
    def test_multi_cpu_machine_rejected(self):
        m = machine()
        m.node.n_cpus = 2
        with pytest.raises(ValueError, match="single-CPU"):
            HybridModel(m)


class TestAgainstPaperStructure:
    def test_comm_only_faster_than_hybrid_in_host_time(self):
        """Fig 2's point: the task-level mode costs far less host work.

        We proxy host work by the number of kernel events processed:
        the hybrid run executes every abstract instruction, comm-only
        executes only task events.
        """
        app = ThreadedApplication(exchange_program, 4)
        hm = HybridModel(machine())
        res = hm.run_application(app)
        instr = res.total_instructions
        comm_ops = sum(t.communication_ops for t in res.task_stats)
        assert instr > 10 * comm_ops
