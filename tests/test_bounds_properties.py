"""Property tests (hypothesis): the bound oracle over randomized workloads.

Two invariants, each under both kernel dispatchers:

* **soundness** — for any stochastic workload the static
  ``cycle_lower_bound`` never exceeds the simulated ``total_cycles``,
  and the static per-link wire bytes equal the engine's
  ``Link.bytes_moved`` accounting exactly (deterministic routing);
* **tightness** — on a contention-free single-message ping-pong the
  bound is not just below the simulated time, it *is* the simulated
  time, for any message size up to one packet.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.bounds import compute_bounds
from repro.plans import build_machine
from repro.commmodel.network import MultiNodeModel
from repro.operations.ops import compute, recv, send
from repro.operations.trace import Trace, TraceSet
from repro.tracegen import WORKLOAD_CLASSES, StochasticGenerator
from repro.tracegen.descriptions import StochasticAppDescription
from tests.reference_kernel import KERNELS

workload_names = st.sampled_from((None,) + tuple(sorted(WORKLOAD_CLASSES)))


def _stochastic_traces(workload, rounds: int, seed: int,
                       n_nodes: int) -> TraceSet:
    desc = (StochasticAppDescription() if workload is None
            else WORKLOAD_CLASSES[workload]())
    gen = StochasticGenerator(desc, n_nodes, seed=seed)
    return gen.generate_task_level(rounds)


@pytest.mark.parametrize("kernel", KERNELS)
@settings(max_examples=10, deadline=None)
@given(workload=workload_names, rounds=st.integers(1, 4),
       seed=st.integers(0, 2**16))
def test_bound_never_exceeds_simulated(kernel, workload, rounds, seed):
    machine = build_machine("t805-grid-2x2")
    traces = _stochastic_traces(workload, rounds, seed, machine.n_nodes)
    bound = compute_bounds(machine, traces)
    model = MultiNodeModel(machine, sim=KERNELS[kernel]())
    result = model.run(list(traces))
    assert bound.cycle_lower_bound <= result.total_cycles * (1 + 1e-9)
    simulated = {key: link.bytes_moved
                 for key, link in model.engine.links.items()
                 if link.bytes_moved}
    static = {(l.src, l.dst): l.bytes for l in bound.link_loads}
    assert set(static) == set(simulated)
    for key, nbytes in static.items():
        assert math.isclose(nbytes, simulated[key], rel_tol=1e-9)


@pytest.mark.parametrize("kernel", KERNELS)
@settings(max_examples=10, deadline=None)
@given(size=st.integers(1, 512), work=st.floats(0.0, 5_000.0),
       seed=st.integers(0, 2**16))
def test_exact_tie_on_contention_free_pingpong(kernel, size, work, seed):
    """One message in flight at a time: the bound is exact.

    t805 packets are 512 bytes, so any size here is a single packet;
    the round trip between nodes 0 and 1 on the 2x2 grid never shares
    a link with other traffic, so every inequality the analyzer relies
    on collapses to an equality."""
    del seed  # sized by hypothesis for shrink diversity only
    machine = build_machine("t805-grid-2x2")
    lists = [
        [compute(work), send(size, 1), recv(1)],
        [recv(0), send(size, 0)],
        [], [],
    ]
    traces = TraceSet([Trace(i, ops) for i, ops in enumerate(lists)])
    bound = compute_bounds(machine, traces)
    model = MultiNodeModel(machine, sim=KERNELS[kernel]())
    total = model.run(list(traces)).total_cycles
    assert math.isclose(bound.cycle_lower_bound, total, rel_tol=1e-9)
