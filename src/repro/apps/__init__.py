"""``repro.apps`` — the application level: instrumentation API + workloads.

:class:`NodeContext` / :class:`ThreadedApplication` are the annotation
library instrumented programs are written against; the workload modules
(matmul, jacobi, pingpong, alltoall, pipeline, reduction) are the
reference instrumented applications used by examples, tests and
benchmarks.  :data:`TASK_APPS` is the one table of the apps runnable by
name and :func:`task_app` the one lookup every front door asks.
"""

from typing import Callable, NamedTuple, Sequence

from ..config import ConfigError
from ..operations.trace import TraceSet
from .alltoall import alltoall_task_traces, make_alltoall
from .api import NodeContext, ThreadedApplication, as_application
from .fft import make_fft
from .jacobi import make_jacobi
from .masterworker import make_master_worker
from .matmul import make_matmul, matmul_flops
from .pingpong import make_pingpong, pingpong_task_traces
from .pipeline import make_pipeline, pipeline_task_traces
from .reduction import make_reduction


class TaskApp(NamedTuple):
    """A bundled task-level app: ``build(n_nodes, **sizing)`` and the
    keywords that size it (message bytes, repeat count), so a caller
    can size any bundled app the same way (``repro chaos``)."""
    build: Callable[..., TraceSet]
    size_kw: str
    repeats_kw: str


#: the bundled task-level apps runnable by name (``repro trace`` /
#: ``stats`` / ``bound`` / ``check`` / ``chaos`` / ``verify``)
TASK_APPS = {
    "pingpong": TaskApp(pingpong_task_traces, "size", "repeats"),
    "alltoall": TaskApp(alltoall_task_traces, "block_bytes", "rounds"),
    "pipeline": TaskApp(pipeline_task_traces, "item_bytes", "items"),
}


def task_app(name: str, *, extra: Sequence[str] = ()) -> str:
    """The bundled app ``name`` names (``examples/<name>.py`` accepted):
    a key of :data:`TASK_APPS` or one of a caller's ``extra`` programs.
    Any other name raises one :class:`ConfigError` listing the choices."""
    app = name.removeprefix("examples/").removesuffix(".py")
    if app in TASK_APPS or app in extra:
        return app
    raise ConfigError(f"unknown application {name!r}; choose from: "
                      + ", ".join(sorted({*TASK_APPS, *extra})))


__all__ = [
    "NodeContext", "TASK_APPS", "TaskApp", "ThreadedApplication",
    "alltoall_task_traces", "as_application",
    "make_alltoall", "make_fft", "make_jacobi", "make_master_worker",
    "make_matmul", "make_pingpong",
    "make_pipeline", "make_reduction", "matmul_flops",
    "pingpong_task_traces", "pipeline_task_traces", "task_app",
]
