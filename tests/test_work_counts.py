"""The packet path's work, pinned absolutely.

The equivalence suites compare the product kernel against the reference
dispatcher, but both run the same switching engines, so a change that
makes every packet do more work (an extra event per hop, an extra
process per message, a VC held longer) passes them.  This golden holds
the deterministic counts behind the packet path's cost: kernel events
executed, processes created, VC grants and waits, link traffic, and a
digest of the whole ``(time, target)`` dispatch sequence, for each
switching discipline, under a fault plan, and under adaptive routing.

A change that moves a count on purpose regenerates the golden with
``REPRO_REGEN_GOLDEN=1`` in the same diff and says why.
"""

from __future__ import annotations

import hashlib
import json

from repro.apps import alltoall_task_traces, pingpong_task_traces
from repro.commmodel.message import reset_message_ids
from repro.commmodel.network import MultiNodeModel
from repro.faults import DownWindow, FaultPlan, LinkFault
from repro.machines.presets import generic_multicomputer
from repro.pearl import Observer, Process

from .reference_kernel import ReferenceSimulator, reference_stack
from .test_determinism import GOLDEN_DIR, check_golden

#: dispatch targets that are not processes (timeouts, timer fires,
#: releases) are recorded under one token, so the digest pins *when*
#: a callback runs, not how the kernel spells it
CALLBACK = "<callback>"


class DispatchDigest(Observer):
    """Hashes the ``(time, target)`` sequence the kernel dispatches."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def dispatch(self, ts, target):
        name = target.name if type(target) is Process else CALLBACK
        self.sha.update(f"{ts!r} {name}\n".encode())


def _machine(switching: str, kind: str = "mesh",
             routing: str = "dimension_order"):
    machine = generic_multicomputer(kind, (4, 4), switching=switching)
    machine.network.routing = routing
    return machine.validate()


def _fault_plan() -> FaultPlan:
    # 8 -> 12 lies on the ping-pong route 0 -> 15 and on all-to-all ones.
    return FaultPlan(seed=7, link_faults=[LinkFault(drop_prob=0.02)],
                     link_down=[DownWindow(100.0, 3_000.0, src=8, dst=12)])


SCENARIOS = {
    "saf": lambda: (_machine("store_and_forward"), None),
    "vct": lambda: (_machine("virtual_cut_through"), None),
    "wormhole": lambda: (_machine("wormhole"), None),
    "wormhole_torus": lambda: (_machine("wormhole", kind="torus"), None),
    "wormhole_faulted": lambda: (_machine("wormhole"), _fault_plan()),
    "adaptive_vct": lambda: (_machine("virtual_cut_through",
                                      routing="random_minimal"), None),
}

WORKLOADS = {
    "alltoall": lambda n: alltoall_task_traces(n, block_bytes=512),
    "pingpong": lambda n: pingpong_task_traces(n, size=1024, repeats=4),
}


def _run(scenario: str, workload: str, traced: bool) -> tuple[dict, str]:
    """One run: its counts, and the digest of its dispatch sequence when
    ``traced`` (the observer routes it through the instrumented loop)."""
    machine, plan = SCENARIOS[scenario]()
    reset_message_ids()
    model = MultiNodeModel(machine, faults=plan)
    sim = model.sim
    digest = DispatchDigest()
    if traced:
        sim.observer = digest
    result = model.run(list(WORKLOADS[workload](model.n_nodes)))
    engine = model.engine
    links = engine.links.values()
    vcs = [vc for link in links for vc in link.vcs]
    counts = {
        "events_executed": result.events_executed,
        "processes_created": len(sim._procs),
        "vc_acquisitions": sum(vc.acquisitions for vc in vcs),
        "vc_max_queue_len": max(vc.max_queue_len for vc in vcs),
        "vc_total_wait_time": sum(vc.total_wait_time for vc in vcs),
        "link_packets": sum(link.packets for link in links),
        "link_bytes": sum(link.bytes_moved for link in links),
        "link_busy_cycles": sum(link.busy_cycles for link in links),
        "total_cycles": result.total_cycles,
        "packet_latency": engine.packet_latency.summary(),
        "messages_injected": engine.messages_injected,
        "messages_delivered": engine.messages_delivered,
    }
    if model.injector is not None:
        counts["faults"] = model.injector.summary()
    return counts, digest.sha.hexdigest()


def work_counts(detached_too: bool) -> dict:
    """Every scenario's counts and digest, from a traced run; with
    ``detached_too`` each is also run detached (the product kernel's
    bulk loop) and must count exactly the same work."""
    out = {}
    for scenario in SCENARIOS:
        for workload in WORKLOADS:
            counts, digest = _run(scenario, workload, traced=True)
            if detached_too:
                detached, _ = _run(scenario, workload, traced=False)
                assert detached == counts, (scenario, workload)
            out[f"{scenario}/{workload}"] = dict(counts, dispatch_sha256=digest)
    return out


class TestWorkCounts:
    def test_product_matches_golden(self):
        check_golden("work_counts", work_counts(detached_too=True))

    def test_reference_kernel_matches_golden(self):
        with reference_stack() as built:
            # The reference has one dispatch loop, traced or not.
            counts = work_counts(detached_too=False)
        assert built and all(isinstance(s, ReferenceSimulator) for s in built)
        check_golden("work_counts", counts)

    def test_faulted_scenario_drops_and_waits(self):
        """The fault plan really drops packets and holds some at a
        down link, so the golden pins both paths."""
        golden = json.loads((GOLDEN_DIR / "work_counts.json").read_text())
        for workload in WORKLOADS:
            faults = golden[f"wormhole_faulted/{workload}"]["faults"]
            assert faults["dropped"] > 0
            assert faults["down_waits"] > 0
