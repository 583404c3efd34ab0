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

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro import Workbench, generic_multicomputer, t805_grid
from repro.apps import (
    make_alltoall,
    make_fft,
    make_jacobi,
    make_master_worker,
    make_matmul,
    make_pingpong,
    make_pipeline,
    make_reduction,
)
from repro.operations import Operation
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


def _stream_digests(traces) -> list:
    """``[op count, sha256 over repr(op.to_tuple())]`` per node (a
    master-worker ``recv_any`` event, not a Table-1 op, hashes its
    repr)."""
    out = []
    for trace in traces:
        digest = hashlib.sha256()
        for op in trace:
            key = op.to_tuple() if isinstance(op, Operation) else op
            digest.update(repr(key).encode())
        out.append([len(trace), digest.hexdigest()])
    return out


def annotation_streams() -> dict:
    """Every bundled recordable program, small, on 4 nodes, plus the
    instruction-level stochastic generator on two seeds."""
    programs = {
        "matmul": make_matmul(n=8),
        "jacobi": make_jacobi(grid=8, iterations=2),
        "fft": make_fft(points_per_node=16),
        "pingpong": make_pingpong(size=256, repeats=3),
        "alltoall": make_alltoall(block_bytes=256, work_flops=16),
        "pipeline": make_pipeline(items=3, item_bytes=256, stage_flops=16),
        "reduction": make_reduction(local_elems=16),
        "master_worker": make_master_worker(n_tasks=6, mean_flops=16),
    }
    wb = Workbench(generic_multicomputer("mesh", (2, 2)))
    streams = {name: _stream_digests(wb.record_traces(program))
               for name, program in programs.items()}
    for seed in (1, 20260930):
        streams[f"stochastic_seed_{seed}"] = _stream_digests(
            StochasticGenerator(StochasticAppDescription(), 4, seed=seed)
            .generate_instruction_level(2_000))
    return streams


def test_annotation_streams_match_committed_values():
    """Trace generation is pinned op for op: a speed-up of the
    annotation translator or the stochastic generator must leave every
    emitted stream byte-identical."""
    check_golden("annotation_streams", annotation_streams())


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
