"""The observer contract: one slot, one vocabulary, no effect on the run.

A :class:`~repro.pearl.Simulator` has one slot for whatever watches a
run, ``sim.observer``.  Every call site under ``src/`` speaks the
vocabulary of :class:`~repro.pearl.Observer`, so a bare ``Observer()``
must be attachable anywhere and leave every result as the detached run
computes it, and each vocabulary method must have a caller (a method no
run reaches is a dead entry).
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.apps import alltoall_task_traces, make_pingpong
from repro.apps.api import ThreadedApplication
from repro.commmodel.message import reset_message_ids
from repro.commmodel.network import MultiNodeModel
from repro.faults import DownWindow, FaultPlan, LinkFault
from repro.hybrid.model import HybridModel
from repro.machines.presets import generic_multicomputer
from repro.pearl import Channel, Observer, Simulator

VOCABULARY = sorted(name for name, attr in vars(Observer).items()
                    if callable(attr) and not name.startswith("_"))


def _machine(switching: str, routing: str = "dimension_order", dims=(4, 4)):
    machine = generic_multicomputer("mesh", dims, switching=switching)
    machine.network.routing = routing
    return machine.validate()


def faulted_wormhole_alltoall(observer):
    """Wormhole all-to-all with dropped packets and a down window: the
    fault layer's instants, the retransmit path and the VC resources."""
    plan = FaultPlan(seed=7, link_faults=[LinkFault(drop_prob=0.02)],
                     link_down=[DownWindow(100.0, 3_000.0, src=8, dst=12)])
    model = MultiNodeModel(_machine("wormhole"), faults=plan)
    model.sim.observer = observer
    result = model.run(list(alltoall_task_traces(model.n_nodes,
                                                 block_bytes=512)))
    return dict(result.summary(), events=result.events_executed,
                faults=model.injector.summary())


def detailed_hybrid(observer):
    """Execution-driven hybrid run: the hybrid scheduler's task
    boundaries, holds of the computational side."""
    model = HybridModel(_machine("wormhole", dims=(2, 2)))
    model.sim.observer = observer
    app = ThreadedApplication(make_pingpong(size=256, repeats=2),
                              model.n_nodes)
    result = model.run_application(app)
    return dict(result.summary(), events=model.sim.events_executed)


def adaptive_routing(observer):
    """Virtual cut-through under random minimal routing."""
    model = MultiNodeModel(_machine("virtual_cut_through",
                                    routing="random_minimal"))
    model.sim.observer = observer
    result = model.run(list(alltoall_task_traces(model.n_nodes,
                                                 block_bytes=256)))
    return dict(result.summary(), events=result.events_executed)


def pearl_channels(observer):
    """Rendezvous and buffered channels.  No model under ``src/`` sends
    on a :class:`Channel`, so this is the ``channel`` call's run."""
    sim = Simulator()
    sim.observer = observer
    log = []

    def producer(chan, tag):
        for i in range(3):
            yield chan.send((tag, i))
            yield 1.0

    def consumer(chan):
        for _ in range(3):
            log.append((sim.now, (yield chan.receive())))

    for capacity in (0, 1, None):
        chan = Channel(sim, capacity=capacity, name=f"chan{capacity}")
        sim.process(producer(chan, capacity), name=f"tx{capacity}")
        sim.process(consumer(chan), name=f"rx{capacity}")
    end = sim.run()
    return {"end": end, "events": sim.events_executed, "log": log}


RUNS = {
    "faulted_wormhole_alltoall": faulted_wormhole_alltoall,
    "detailed_hybrid": detailed_hybrid,
    "adaptive_routing": adaptive_routing,
    "pearl_channels": pearl_channels,
}


def rows(run, observer):
    reset_message_ids()
    return json.dumps(run(observer), sort_keys=True, default=repr)


class CallCounter(Observer):
    """Counts every vocabulary call, and nothing else."""

    def __init__(self):
        self.calls = Counter()


def _counting(name):
    def method(self, *args, **kwargs):
        self.calls[name] += 1
    method.__name__ = name
    return method


for _name in VOCABULARY:
    setattr(CallCounter, _name, _counting(_name))


@pytest.mark.parametrize("run", RUNS.values(), ids=list(RUNS))
def test_bare_observer_leaves_the_rows_alone(run):
    assert rows(run, Observer()) == rows(run, None)


def test_every_vocabulary_method_has_a_caller():
    counter = CallCounter()
    for run in RUNS.values():
        rows(run, counter)
    assert VOCABULARY == ["channel", "counter", "dispatch", "hold",
                          "instant", "resource_acquire",
                          "resource_release", "span"]
    assert [name for name in VOCABULARY if not counter.calls[name]] == []
