"""recv_any (occam-ALT extension) and the master/worker runtime."""

from __future__ import annotations

import pytest

from repro import Workbench, generic_multicomputer, vary_machine
from repro.apps import ThreadedApplication, make_master_worker
from repro.commmodel import MultiNodeModel, RecvAnyEvent
from repro.config import MachineConfig, NetworkConfig, TopologyConfig
from repro.operations import compute, recv, send


def make_net(n=4, **net_kw) -> MultiNodeModel:
    cfg = NetworkConfig(topology=TopologyConfig(kind="ring", dims=(n,)),
                        send_overhead=0.0, recv_overhead=0.0, **net_kw)
    return MultiNodeModel(MachineConfig(name="net", network=cfg).validate())


class TestRecvAnyEvent:
    def test_needs_sources(self):
        with pytest.raises(ValueError):
            RecvAnyEvent([])

    def test_is_global_event(self):
        ev = RecvAnyEvent([1, 2])
        assert ev.is_global_event
        assert ev.sources == frozenset({1, 2})


class TestNICRecvAny:
    def test_takes_first_arrival(self):
        net = make_net()
        log = []
        ops0 = [RecvAnyEvent([1, 2]), RecvAnyEvent([1, 2])]
        net.sim.process(net.node_driver(0, iter(ops0),
                                        result_sink=log.append))
        net.sim.process(net.node_driver(
            1, iter([compute(5000), send(64, 0)])))
        net.sim.process(net.node_driver(2, iter([send(64, 0)])))
        net.sim.process(net.node_driver(3, iter([])))
        net.sim.run(check_deadlock=True)
        # Node 2 sent immediately; node 1 after 5000 cycles.
        assert [src for src, _ in log] == [2, 1]

    def test_buffered_earliest_wins(self):
        net = make_net()
        log = []
        # Receiver sleeps; both messages buffer; earliest delivery wins.
        ops0 = [compute(50_000), RecvAnyEvent([1, 2])]
        net.sim.process(net.node_driver(0, iter(ops0),
                                        result_sink=log.append))
        net.sim.process(net.node_driver(1, iter([compute(100),
                                                 send(64, 0)])))
        net.sim.process(net.node_driver(2, iter([send(64, 0)])))
        net.sim.process(net.node_driver(3, iter([])))
        net.sim.run(check_deadlock=True)
        assert log[0][0] == 2      # node 2's message arrived first

    def test_specific_recv_unaffected(self):
        """recv(source) still matches only its source even when another
        node's message is buffered."""
        net = make_net()
        res = net.run([
            [recv(2)],                # must wait for node 2, not node 1
            [send(64, 0)],
            [compute(10_000), send(64, 0)],
            [],
        ])
        assert res.activity[0].finish_time >= 10_000


class TestMasterWorker:
    def test_all_tasks_done_and_balanced(self):
        collect: dict = {}
        wb = Workbench(generic_multicomputer("mesh", (2, 2)))
        res = wb.run_hybrid(make_master_worker(n_tasks=24, seed=1,
                                               collect=collect))
        assert sum(collect["per_worker"].values()) == 24
        assert set(collect["per_worker"]) == {1, 2, 3}
        # Dynamic scheduling: every worker got something.
        assert all(v > 0 for v in collect["per_worker"].values())
        # Messages: 3 requests + 24 tasks + 24 results + 3 poisons.
        assert res.comm.messages_delivered == 3 + 24 + 24 + 3

    def test_schedule_is_architecture_dependent(self):
        """The defining execution-driven property at system level: a
        different machine yields a different assignment."""
        def schedule(machine):
            collect: dict = {}
            Workbench(machine).run_hybrid(
                make_master_worker(n_tasks=30, seed=2, collect=collect))
            return collect["assignments"]

        base = generic_multicomputer("mesh", (2, 2))
        slow, fast = vary_machine(
            base, lambda m, bw: setattr(m.network, "link_bandwidth", bw),
            [0.25, 16.0])
        # Same program + seed, different interconnects.
        assert schedule(slow) != schedule(fast)

    def test_deterministic_per_machine(self):
        def schedule():
            collect: dict = {}
            wb = Workbench(generic_multicomputer("mesh", (2, 2)))
            wb.run_hybrid(make_master_worker(n_tasks=20, seed=3,
                                             collect=collect))
            return collect["assignments"]
        assert schedule() == schedule()

    def test_needs_two_nodes(self):
        wb = Workbench(generic_multicomputer("mesh", (1, 1)))
        with pytest.raises(Exception, match="at least 2"):
            wb.run_hybrid(make_master_worker(n_tasks=4))

    def test_recording_supports_recv_any(self):
        collect: dict = {}
        ts = ThreadedApplication(
            make_master_worker(n_tasks=12, seed=4, collect=collect),
            4).record()
        assert sum(collect["per_worker"].values()) == 12
        # Logical recording picks lowest-id ready worker; still a
        # complete, matched trace modulo the RecvAnyEvent markers.
        assert len(ts) == 4


class TestRecvAnyInContext:
    def test_default_sources_all_others(self):
        got = {}

        def program(ctx):
            if ctx.node_id == 0:
                got["pair"] = ctx.recv_any()
            else:
                if ctx.node_id == 2:
                    ctx.send(0, 8, payload="hi")

        wb = Workbench(generic_multicomputer("mesh", (2, 2)))
        wb.run_hybrid(program)
        assert got["pair"] == (2, "hi")
