"""Computational-task extraction — the bridge of the hybrid model (Fig 2).

"The computational tasks are derived from the computational model,
which constructs them by measuring the simulated time between two
consecutive communication operations" (Section 3.2).

:func:`extract_tasks` turns a *mixed* operation stream (computational +
communication) into a *task-level* stream: runs of computational
operations collapse into single ``compute(duration)`` operations, with
the communication operations passed through unchanged.  The resulting
stream is exactly what the multi-node communication model consumes.

Because the extractor is a generator over a generator, it composes with
execution-driven (lazily generated) traces: extraction never runs ahead
of a global event, preserving trace validity.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..operations.ops import COMPUTATIONAL_OPS, Operation, compute
from .node import SingleNodeModel

__all__ = ["extract_tasks", "TaskExtractionStats"]


class TaskExtractionStats:
    """Bookkeeping from one extraction pass."""

    __slots__ = ("computational_ops", "communication_ops", "tasks_emitted",
                 "total_task_cycles")

    def __init__(self) -> None:
        self.computational_ops = 0
        self.communication_ops = 0
        self.tasks_emitted = 0
        self.total_task_cycles = 0.0

    def summary(self) -> dict:
        return {
            "computational_ops": self.computational_ops,
            "communication_ops": self.communication_ops,
            "tasks_emitted": self.tasks_emitted,
            "total_task_cycles": self.total_task_cycles,
            "mean_task_cycles": (self.total_task_cycles / self.tasks_emitted
                                 if self.tasks_emitted else 0.0),
        }


def extract_tasks(node_model: SingleNodeModel, ops: Iterable[Operation],
                  stats: TaskExtractionStats | None = None,
                  ) -> Iterator[Operation]:
    """Collapse computational runs into tasks using ``node_model`` timing.

    Yields a task-level operation stream: ``compute(c)`` for each run of
    computational operations (``c`` = simulated cycles the node model
    charges for the run) interleaved with the original communication
    operations.  Zero-length runs emit nothing.

    Plain analytic node models are charged by the batched cost loop of
    :mod:`repro.compmodel.batch` — same yielded stream, statistics and
    exceptions, less host time per operation.
    """
    if stats is None:
        stats = TaskExtractionStats()
    from .batch import extract_tasks_fast, fast_eligible
    if fast_eligible(node_model):
        return extract_tasks_fast(node_model, ops, stats)
    return _extract_tasks_scalar(node_model, ops, stats)


def _extract_tasks_scalar(node_model: SingleNodeModel,
                          ops: Iterable[Operation],
                          stats: TaskExtractionStats) -> Iterator[Operation]:
    """The seed per-op extraction loop (also the non-template fallback)."""
    acc = 0.0
    op_cycles = node_model.op_cycles
    for op in ops:
        if op.code in COMPUTATIONAL_OPS:
            acc += op_cycles(op)
            stats.computational_ops += 1
        else:
            if acc > 0.0:
                stats.tasks_emitted += 1
                stats.total_task_cycles += acc
                yield compute(acc)
                acc = 0.0
            stats.communication_ops += 1
            yield op
    if acc > 0.0:
        stats.tasks_emitted += 1
        stats.total_task_cycles += acc
        yield compute(acc)
