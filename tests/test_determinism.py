"""Determinism harness: golden snapshots + cross-process reproducibility.

The Pearl kernel breaks simultaneous-event ties with a global monotone
sequence number, so every simulation is a pure function of (machine,
workload, code) — the property the parallel sweep subsystem and its
result cache rest on.  This suite pins it down three ways:

* **golden snapshots** — representative workloads must keep producing
  the exact committed metric values (``tests/golden/*.json``).
  Regenerate deliberately with ``REPRO_REGEN_GOLDEN=1`` after a
  semantics-changing simulator change;
* **run-to-run** — two runs in one process are identical;
* **cross-process** — values computed in freshly forked worker
  processes are identical to in-process values (what makes parallel
  sweep rows byte-identical to serial ones).
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro import Workbench, generic_multicomputer, t805_grid
from repro.parallel.pool import _mp_context
from repro.tracegen import StochasticAppDescription, StochasticGenerator
from tests.reference_kernel import reference_stack

GOLDEN_DIR = Path(__file__).parent / "golden"


def check_golden(name: str, value: dict) -> None:
    path = GOLDEN_DIR / f"{name}.json"
    if os.environ.get("REPRO_REGEN_GOLDEN") or not path.exists():
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(value, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"golden snapshot {name} (re)generated")
    golden = json.loads(path.read_text())
    assert value == golden, (
        f"{name}: metrics diverged from the golden snapshot; if the "
        f"simulator's semantics changed on purpose, regenerate with "
        f"REPRO_REGEN_GOLDEN=1")


# ---------------------------------------------------------------------------
# Workloads (module level: they also run inside forked workers)
# ---------------------------------------------------------------------------

def stochastic_task_metrics() -> dict:
    """Fixed-seed stochastic traces, task level, on the T805 grid."""
    wb = Workbench(t805_grid(2, 2))
    res = wb.run_stochastic(StochasticAppDescription(), level="task",
                            rounds=5, seed=42)
    return {"total_cycles": res.total_cycles,
            "mean_latency": res.message_latency.mean,
            "max_latency": res.message_latency.max}


def mixed_trace_metrics() -> dict:
    """A small ``run_mixed_traces`` workload on the generic mesh."""
    machine = generic_multicomputer("mesh", (2, 2))
    traces = StochasticGenerator(
        StochasticAppDescription(), machine.n_nodes,
        seed=11).generate_instruction_level(3_000)
    res = Workbench(machine).run_mixed_traces(traces)
    return {"total_cycles": res.total_cycles,
            "comm_cycles": res.comm.total_cycles}


def single_node_metrics() -> dict:
    """Fixed-seed instruction trace through one node template."""
    machine = generic_multicomputer("mesh", (2, 2))
    trace = StochasticGenerator(
        StochasticAppDescription(), 1,
        seed=5).generate_instruction_level(5_000)[0]
    res = Workbench(machine).run_single_node(trace)
    return {"cycles": res.cycles, "cpi": res.cpi}


WORKLOADS = {
    "stochastic_task_t805_2x2": stochastic_task_metrics,
    "mixed_traces_mesh_2x2": mixed_trace_metrics,
    "single_node_generic": single_node_metrics,
}


def compute_workload(name: str) -> dict:
    return WORKLOADS[name]()


# ---------------------------------------------------------------------------
# Golden snapshots
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_golden_snapshot(name):
    check_golden(name, compute_workload(name))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_golden_snapshot_on_reference_stack(name):
    """The specification (heap-only kernel, scalar cost loop) produces
    the same committed values as the product."""
    with reference_stack() as built:
        check_golden(name, compute_workload(name))
    # The single-node workload has no event kernel under it; there the
    # specification is the scalar cost loop alone.
    assert built or name == "single_node_generic"


# ---------------------------------------------------------------------------
# Run-to-run and cross-process identity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_two_runs_identical(name):
    first = compute_workload(name)
    second = compute_workload(name)
    assert json.dumps(first, sort_keys=True) == \
        json.dumps(second, sort_keys=True)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_identical_across_process_boundary(name):
    in_process = compute_workload(name)
    with ProcessPoolExecutor(max_workers=2,
                             mp_context=_mp_context()) as pool:
        child_a = pool.submit(compute_workload, name)
        child_b = pool.submit(compute_workload, name)
        assert child_a.result() == in_process
        assert child_b.result() == in_process
