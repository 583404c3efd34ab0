"""Workload-class presets for the stochastic generator.

"Application descriptions may range from full-blown parallel programs
to small benchmarks" (Section 3); these presets are the stochastic
counterparts of common application classes — calibrated by the shape of
the corresponding instrumented workloads in :mod:`repro.apps`, they give
fast-prototyping studies a realistic starting point without writing a
description from scratch.

A sweep names its workload by class (``None``: generic).  What a name
stands for, a sweep job's traces and its cache workload id, spelled and
read back, live here only: ``repro.plans`` and the bound audit share them.
"""

from __future__ import annotations

import re
from typing import Optional

from ..operations.trace import TraceSet
from .descriptions import (
    CommunicationBehaviour,
    InstructionMix,
    MemoryBehaviour,
    StochasticAppDescription,
)
from .stochastic import StochasticGenerator

__all__ = ["stencil_class", "dense_linear_algebra_class",
           "irregular_class", "comm_bound_class", "WORKLOAD_CLASSES",
           "stochastic_task_traces", "sweep_workload_id",
           "traces_from_workload_id", "workload_description"]


def stencil_class() -> StochasticAppDescription:
    """Jacobi-like: streaming loads, neighbour exchanges, tight loops."""
    return StochasticAppDescription(
        name="stencil-class",
        mix=InstructionMix(load=0.35, store=0.12, loadc=0.04, add=0.30,
                           sub=0.02, mul=0.08, div=0.0, branch=0.08,
                           call=0.005, ret=0.005, float_fraction=0.8,
                           double_data_fraction=0.9),
        memory=MemoryBehaviour(working_set_bytes=512 * 1024,
                               sequential_fraction=0.85,
                               stack_fraction=0.05),
        comm=CommunicationBehaviour(mean_ops_between_rounds=8_000,
                                    min_message_bytes=256,
                                    max_message_bytes=2048,
                                    pattern="neighbour"),
        n_basic_blocks=16, mean_block_len=12.0, loopback_prob=0.85,
        far_jump_prob=0.02, mean_task_cycles=25_000.0)


def dense_linear_algebra_class() -> StochasticAppDescription:
    """Matmul-like: multiply-heavy, large working set, coarse exchanges."""
    return StochasticAppDescription(
        name="dla-class",
        mix=InstructionMix(load=0.35, store=0.06, loadc=0.02, add=0.22,
                           sub=0.02, mul=0.22, div=0.0, branch=0.10,
                           call=0.005, ret=0.005, float_fraction=0.95,
                           double_data_fraction=1.0),
        memory=MemoryBehaviour(working_set_bytes=2 * 1024 * 1024,
                               sequential_fraction=0.6,
                               stack_fraction=0.02),
        comm=CommunicationBehaviour(mean_ops_between_rounds=50_000,
                                    min_message_bytes=4096,
                                    max_message_bytes=65536,
                                    pattern="random"),
        n_basic_blocks=8, mean_block_len=16.0, loopback_prob=0.9,
        far_jump_prob=0.01, mean_task_cycles=150_000.0)


def irregular_class() -> StochasticAppDescription:
    """Graph/pointer-chasing-like: random accesses, branchy, small msgs."""
    return StochasticAppDescription(
        name="irregular-class",
        mix=InstructionMix(load=0.32, store=0.10, loadc=0.06, add=0.16,
                           sub=0.04, mul=0.02, div=0.005, branch=0.24,
                           call=0.04, ret=0.04, float_fraction=0.1,
                           double_data_fraction=0.2),
        memory=MemoryBehaviour(working_set_bytes=8 * 1024 * 1024,
                               sequential_fraction=0.1,
                               stack_fraction=0.3),
        comm=CommunicationBehaviour(mean_ops_between_rounds=4_000,
                                    min_message_bytes=32,
                                    max_message_bytes=512,
                                    async_fraction=0.5,
                                    pattern="random"),
        n_basic_blocks=256, mean_block_len=5.0, loopback_prob=0.4,
        far_jump_prob=0.25, mean_task_cycles=8_000.0)


def comm_bound_class() -> StochasticAppDescription:
    """Exchange-dominated: little computation between big messages."""
    return StochasticAppDescription(
        name="comm-bound-class",
        comm=CommunicationBehaviour(mean_ops_between_rounds=800,
                                    min_message_bytes=8192,
                                    max_message_bytes=131072,
                                    pattern="random"),
        mean_task_cycles=2_000.0)


#: name → factory registry (CLI / sweep convenience).
WORKLOAD_CLASSES = {
    "stencil": stencil_class,
    "dense-linear-algebra": dense_linear_algebra_class,
    "irregular": irregular_class,
    "comm-bound": comm_bound_class,
}


def workload_description(workload: Optional[str]) -> StochasticAppDescription:
    """``None``: the generic description; else a :data:`WORKLOAD_CLASSES`
    class (an unknown name raises ``ValueError`` listing them)."""
    if workload is None:
        return StochasticAppDescription()
    if workload not in WORKLOAD_CLASSES:
        raise ValueError(f"unknown workload {workload!r}; choose from: "
                         + ", ".join(sorted(WORKLOAD_CLASSES)))
    return WORKLOAD_CLASSES[workload]()


def stochastic_task_traces(workload: Optional[str], n_nodes: int,
                           rounds: int, seed: int) -> TraceSet:
    """Task-level traces of a named workload (a sweep job's traces)."""
    return StochasticGenerator(workload_description(workload), n_nodes,
                               seed=seed).generate_task_level(rounds)


_ID_TAG = "cli-stochastic"


def sweep_workload_id(workload: Optional[str], rounds: int,
                      seed: int) -> str:
    """The cache workload id of a stochastic sweep job."""
    return f"{_ID_TAG}:{workload or 'generic'}:rounds={rounds}:seed={seed}"


def traces_from_workload_id(workload_id: str,
                            n_nodes: int) -> Optional[TraceSet]:
    """The traces a :func:`sweep_workload_id` id names (generation is
    seeded); ``None`` for any other id."""
    match = re.fullmatch(rf"{_ID_TAG}:([^:]+):rounds=(\d+):seed=(\d+)",
                         workload_id)
    if match is None:
        return None
    name, rounds, seed = match.groups()
    workload = None if name == "generic" else name
    if workload is not None and workload not in WORKLOAD_CLASSES:
        return None
    return stochastic_task_traces(workload, n_nodes, int(rounds), int(seed))
