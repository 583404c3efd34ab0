"""``repro.apps`` — the application level: instrumentation API + workloads.

:class:`NodeContext` / :class:`ThreadedApplication` are the annotation
library instrumented programs are written against; the workload modules
(matmul, jacobi, pingpong, alltoall, pipeline, reduction) are the
reference instrumented applications used by examples, tests and
benchmarks.
"""

from .alltoall import alltoall_task_traces, make_alltoall
from .api import NodeContext, ThreadedApplication
from .fft import make_fft
from .jacobi import make_jacobi
from .masterworker import make_master_worker
from .matmul import make_matmul, matmul_flops
from .pingpong import make_pingpong, pingpong_task_traces
from .pipeline import make_pipeline, pipeline_task_traces
from .reduction import make_reduction

#: the bundled task-level apps runnable by name (``repro trace`` /
#: ``stats`` / ``bound`` / ``chaos`` / ``verify``): ``builder(n_nodes)``
TASK_APPS = {
    "pingpong": pingpong_task_traces,
    "alltoall": alltoall_task_traces,
    "pipeline": pipeline_task_traces,
}
#: each builder's keywords for (message bytes, repeat count), so a
#: caller can size any bundled app the same way (``repro chaos``)
TASK_APP_SIZING = {
    "pingpong": ("size", "repeats"),
    "alltoall": ("block_bytes", "rounds"),
    "pipeline": ("item_bytes", "items"),
}

__all__ = [
    "NodeContext", "TASK_APPS", "TASK_APP_SIZING", "ThreadedApplication",
    "alltoall_task_traces",
    "make_alltoall", "make_fft", "make_jacobi", "make_master_worker",
    "make_matmul", "make_pingpong",
    "make_pipeline", "make_reduction", "matmul_flops",
    "pingpong_task_traces", "pipeline_task_traces",
]
