"""Global-event scheduling glue for hybrid co-simulation.

This module wires an :class:`~repro.tracegen.threads.InterleavedStream`
(a suspended/resumed node thread) to the communication model's node
driver, realizing the thread-scheduling scheme of Section 3.1: "the
simulation does not resume a thread until all other threads have reached
the same point in simulated time as the suspended thread" — which the
event kernel guarantees, because the driver process only advances past a
global event when the event completes in simulated time, and only then
pulls (and thereby resumes) the thread.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional, Tuple

from ..commmodel.network import MultiNodeModel
from ..compmodel.node import SingleNodeModel
from ..compmodel.tasks import TaskExtractionStats, extract_tasks
from ..operations.ops import Operation
from ..tracegen.threads import InterleavedStream

__all__ = ["stream_hooks", "make_node_pipeline", "traced_tasks"]


def traced_tasks(network: MultiNodeModel, node_id: int,
                 task_ops: Iterator[Operation]) -> Iterator[Operation]:
    """Pass-through that marks each task-level operation boundary.

    When the simulator has an observer, every operation handed from the
    computational side to the node driver is reported to it as a
    ``task`` instant on the node's track — the hybrid hand-off points
    of Fig 2.  The check is per operation so an observer set mid-run is
    honored.
    """
    sim = network.sim
    for op in task_ops:
        observer = sim.observer
        if observer is not None:
            observer.instant("task", repr(op), sim.now, f"node{node_id}")
        yield op


def stream_hooks(stream: InterleavedStream
                 ) -> Tuple[Callable[[], Any], Callable[[Any], None]]:
    """(payload_source, result_sink) pair for one interleaved stream.

    * ``payload_source`` reads the host payload of the global event the
      thread is currently suspended at (valid exactly while the driver
      processes that event);
    * ``result_sink`` stores the value (received payload) the thread
      will be resumed with.
    """
    def payload_source() -> Any:
        return stream.thread.pending_payload

    return payload_source, stream.post_result


def make_node_pipeline(network: MultiNodeModel, node_id: int,
                       ops: Iterator[Operation],
                       node_model: Optional[SingleNodeModel] = None,
                       stream: Optional[InterleavedStream] = None,
                       stats: Optional[TaskExtractionStats] = None):
    """Build one node's driver process body.

    ``ops`` is the node's operation source (static trace iterator or an
    interleaved stream).  With ``node_model`` given, the full hybrid
    pipeline runs: computational operations are timed by the node model
    and collapsed into tasks (Fig 2); without it, ``ops`` must already
    be task level.  With ``stream`` given, payloads flow between the
    simulated network and the live node thread.
    """
    task_ops = (extract_tasks(node_model, ops, stats)
                if node_model is not None else ops)
    task_ops = traced_tasks(network, node_id, task_ops)
    if stream is not None:
        payload_source, result_sink = stream_hooks(stream)
    else:
        payload_source = result_sink = None
    return network.node_driver(node_id, task_ops, payload_source,
                               result_sink)
