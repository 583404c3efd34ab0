"""Parallel sweep execution and content-addressed result caching.

The workbench's design-space sweeps are embarrassingly parallel and —
thanks to the Pearl kernel's deterministic event ordering — bit-for-bit
reproducible, so this package makes them fast without making them less
trustworthy:

* :class:`ParallelSweepRunner` — run a sweep's points as one blocking
  job; ordered results, per-variant error capture;
* :class:`WorkerPool` — the one process pool everything fans out
  over: ordered streaming, crashed workers replaced and their task
  requeued, then a typed :class:`WorkerCrashed`; :func:`run_sharded`
  maps the two non-sweep fan-outs (``repro verify`` shards, the
  ``repro bound --audit`` rows) over an ephemeral one;
* :class:`ResultCache` — skip variants whose ``(machine, workload,
  code version, fault plan)`` hash already has a row;
* :func:`result_key` / :func:`code_version` — the cache key scheme;
* :class:`Executor` — sweeps as submit/poll/cancel/stream *jobs*
  (the service layer in :mod:`repro.service` builds on it);
  :class:`InProcessExecutor` and :class:`LocalAsyncExecutor` are the
  names the layered benchmark still constructs.

Normally reached through ``Sweep.run(runner, workers=..., cache=...)``
(see :mod:`repro.core.experiment`) or the ``repro sweep`` CLI command.
"""

from .cache import (
    ResultCache,
    code_version,
    result_key,
    sources_digest,
)
from .executor import (
    Executor,
    ExecutorError,
    InProcessExecutor,
    JobSpec,
    JobState,
    JobStatus,
    LocalAsyncExecutor,
    TERMINAL_STATES,
)
from .pool import WorkerCrashed, WorkerPool, run_sharded
from .runner import (
    ParallelSweepRunner,
    SweepVariantError,
    default_workload_id,
    error_message,
    execute_variant,
    run_cached_sweep,
)

__all__ = [
    "Executor", "ExecutorError", "InProcessExecutor",
    "JobSpec", "JobState", "JobStatus", "LocalAsyncExecutor",
    "ParallelSweepRunner", "ResultCache", "SweepVariantError",
    "TERMINAL_STATES", "WorkerCrashed", "WorkerPool",
    "code_version", "default_workload_id", "error_message",
    "execute_variant", "result_key", "run_cached_sweep", "run_sharded",
    "sources_digest",
]
