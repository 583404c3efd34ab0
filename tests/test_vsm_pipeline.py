"""VSM runs ride the hybrid model's node pipeline.

A page fault is a global event of the node's operation stream, handled
by the communication model's driver like a message: a node pause gates
it, and an observer sees the same task hand-offs and metric sources as
in a hybrid run.
"""

from __future__ import annotations

from repro import generic_multicomputer
from repro.apps import make_pingpong
from repro.apps.api import ThreadedApplication
from repro.faults import FaultPlan, NodeWindow
from repro.hybrid import HybridModel
from repro.pearl import Observer
from repro.vsm import SharedRegion, VSMModel

PAUSE_END = 50_000.0


class Instants(Observer):
    """Records every model-level instant as (cat, name, ts, tid)."""

    def __init__(self) -> None:
        self.seen: list[tuple] = []

    def instant(self, cat, name, ts, tid, args=None):
        self.seen.append((cat, name, ts, tid, args))


def two_nodes():
    return generic_multicomputer("mesh", (2, 1))


def late_writer(ctx):
    """Node 1 computes past the pause's start, then write-faults on a
    page homed at node 0."""
    region = SharedRegion(ctx, "paused", 16, page_bytes=256)
    if ctx.node_id == 1:
        for _ in ctx.loop(range(20)):
            ctx.add()
        region.write(0)


def observed(model, program):
    probe = Instants()
    model.sim.observer = probe
    result = model.run_application(
        ThreadedApplication(program, model.n_nodes))
    return result, probe.seen


class TestNodePause:
    def test_a_paused_node_faults_only_after_its_window(self):
        plan = FaultPlan(node_pauses=[NodeWindow(1.0, PAUSE_END, node=1)])
        result, seen = observed(VSMModel(two_nodes(), faults=plan),
                                late_writer)
        assert result.vsm["write_faults"] == 1
        requests = [ts for cat, _, ts, _, args in seen
                    if cat == "message" and args["src"] == 1]
        assert requests, "node 1's fault sent no request to its home"
        # The fault request leaves only after the pause and the local
        # trap overhead.
        assert min(requests) >= PAUSE_END
        assert result.comm.fault_summary["node_pauses"] >= 1

    def test_page_faults_count_as_processed_operations(self):
        result, _ = observed(VSMModel(two_nodes()), late_writer)
        # One compute task before the fault, one after, and the fault.
        assert result.faults == 1
        assert result.comm.activity[1].ops_processed == 3


class TestObservabilityParity:
    def test_vsm_run_emits_the_hybrid_task_instants(self):
        program = make_pingpong(size=64, repeats=2)
        hybrid, hybrid_seen = observed(HybridModel(two_nodes()), program)
        vsm, vsm_seen = observed(VSMModel(two_nodes()), program)
        tasks = [i for i in hybrid_seen if i[0] == "task"]
        assert tasks
        assert [i for i in vsm_seen if i[0] == "task"] == tasks
        assert vsm.total_cycles == hybrid.total_cycles

    def test_a_page_fault_is_a_task_hand_off(self):
        _, seen = observed(VSMModel(two_nodes()), late_writer)
        assert any(cat == "task" and name.startswith("vsm_fault(")
                   and tid == "node1" for cat, name, _, tid, _ in seen)

    def test_vsm_registers_the_hybrid_metric_sources(self):
        hybrid = HybridModel(two_nodes()).registry.namespaces()
        vsm = VSMModel(two_nodes()).registry.namespaces()
        per_node = {f"node{i}.{kind}" for i in range(2)
                    for kind in ("compute", "tasks")}
        assert per_node <= set(hybrid)
        assert per_node <= set(vsm)
        assert set(hybrid) <= set(vsm)
