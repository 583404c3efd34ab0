"""Parallel execution of design-space sweeps.

"The evaluation of a wide range of architectural design tradeoffs"
means running the same workload on many machine variants — trivially
parallel work.  This module holds what every way of running a sweep
shares; the processes themselves belong to
:class:`~repro.parallel.pool.WorkerPool` and the job lifecycle to
:class:`~repro.parallel.executor.Executor`:

* :func:`execute_variant` — run one variant, capturing a runner
  exception as an error payload (``on_error="capture"``), so an
  overnight sweep survives one sick configuration;
* :func:`run_cached_sweep` — cache scan, pre-flight, row assembly and
  progress for a batch of points: variants whose ``(machine, workload,
  code, fault plan)`` key already has a row in the
  :class:`~repro.parallel.cache.ResultCache` are not simulated again,
  and rows are collected **in point order**, never completion order;
* :class:`ParallelSweepRunner` — the blocking front door behind
  ``Sweep.run``: one :class:`~repro.parallel.executor.JobSpec`
  run to its end on an executor, returned as rows.

Every variant runs under the Pearl kernel's deterministic schedule
(global monotone sequence tie-breaking), so rows computed on worker
processes are bit-identical to serial ones.  The runner callable and
the machine configs must be picklable to leave the process (a
module-level function, or a :func:`functools.partial` over one);
anything else runs in-process, with identical rows.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
import traceback
from typing import Any, Callable, Iterator, Optional, Sequence

# `check.check_machine` is looked up per call: tests and the layered
# benchmark's `check` span patch the attribute on the module.
from .. import check
from ..core.config import MachineConfig
from .cache import ResultCache

__all__ = ["ParallelSweepRunner", "SweepVariantError",
           "default_workload_id", "error_message", "execute_variant",
           "run_cached_sweep", "variant_outcome"]

Runner = Callable[[MachineConfig], dict]
#: one sweep point: ``(coordinates, machine variant)``, or ``(coordinates,
#: machine variant, fault plan)`` — the plan a normalized
#: :class:`~repro.faults.FaultPlan` or ``None``, and the runner then
#: called as ``runner(machine, faults=plan)``
Point = tuple[Any, ...]
#: progress callback: (rows completed so far, total rows, the new row)
ProgressFn = Callable[[int, int, dict], None]


def default_workload_id(runner: Runner) -> str:
    """A workload id derived from the runner's qualified name.

    Good enough when the runner closes over a fixed workload; pass an
    explicit ``workload_id`` when the same function runs different
    workloads (the name does not hash the workload's *content* — only
    :func:`~repro.parallel.cache.code_version` tracks code changes).
    """
    func = runner
    while hasattr(func, "func"):          # unwrap functools.partial
        func = func.func
    module = getattr(func, "__module__", "?")
    name = getattr(func, "__qualname__", repr(func))
    return f"{module}.{name}"


def execute_variant(runner: Runner, machine: MachineConfig
                    ) -> tuple[str, Any]:
    """Run one variant, capturing any exception.

    Returns ``("ok", metrics)`` or ``("error", payload)`` where the
    payload is a dict ``{"error": "Type: message", "traceback": ...}``
    carrying the formatted traceback from the worker that raised — the
    traceback travels back over the pickle boundary as a plain string,
    so failed-job records stay debuggable from the service side.
    Exceptions exposing a ``partial_row()`` method (notably
    :class:`repro.faults.DeliveryFailed`, which carries the partial
    ``CommResult``) extend the payload with ``partial_row()`` columns
    so the captured row keeps the same metric columns as successful
    rows — campaign-style reductions never see a ragged schema.
    Shared by the serial and parallel paths so both capture failures
    identically.
    """
    try:
        metrics = runner(machine)
    except Exception as exc:              # noqa: BLE001 - captured by design
        message = f"{type(exc).__name__}: {exc}"
        payload = {"error": message, "traceback": traceback.format_exc()}
        partial = getattr(exc, "partial_row", None)
        if callable(partial):
            try:
                columns = partial()
            except Exception:             # noqa: BLE001 - salvage is best-effort
                columns = None
            if columns:
                payload.update(columns)
        return "error", payload
    if not isinstance(metrics, dict):
        return "error", {"error": (f"TypeError: runner returned "
                                   f"{type(metrics).__name__}, expected dict")}
    return "ok", metrics


def error_message(payload: Any) -> str:
    """The human-readable message of an ``("error", payload)`` outcome
    (the ``"error"`` entry of a structured payload, or the payload
    itself when a legacy caller passed a plain string)."""
    if isinstance(payload, dict):
        return payload["error"]
    return payload


def variant_outcome(runner: Runner, timing: bool,
                    variant: tuple[MachineConfig, Any]
                    ) -> tuple[str, Any, float]:
    """:func:`execute_variant` as a ``(status, payload, wall)`` outcome.

    ``variant`` is ``(machine, plan)``: the runner is called as
    ``runner(machine)`` for a ``None`` plan and ``runner(machine,
    faults=plan)`` otherwise.  ``wall`` is the variant's wall time in
    seconds when ``timing`` is set and pinned to ``0.0`` otherwise.
    The picklable unit of sweep work: backends map
    ``partial(variant_outcome, runner, timing)`` over the variants.
    """
    machine, plan = variant
    if plan is not None:
        runner = functools.partial(runner, faults=plan)
    # Host-side measurement: wall time here IS the measurand.
    t0 = time.perf_counter()               # repro: noqa[PY002]
    status, payload = execute_variant(runner, machine)
    wall = time.perf_counter() - t0        # repro: noqa[PY002]
    return status, payload, wall if timing else 0.0


#: ordered streaming map: ``imap(fn, items)`` yields ``fn(item)`` per
#: item, in item order — :meth:`repro.parallel.pool.WorkerPool.imap`
ImapFn = Callable[[Callable[[Any], Any], Sequence[Any]], Iterator[Any]]


def run_cached_sweep(imap: ImapFn, runner: Runner,
                     points: Sequence[Point], *,
                     cache: Optional[ResultCache] = None,
                     workload_id: Optional[str] = None,
                     on_error: str = "capture",
                     progress: Optional[ProgressFn] = None,
                     timing: bool = False) -> list[dict]:
    """The cache-scan / row-assembly / progress core of every sweep.

    ``imap`` maps :func:`variant_outcome` over the ``(machine, plan)``
    variants of the cache misses, streaming outcomes in variant order;
    the generator it returns is closed as soon as the sweep stops
    consuming it, so an aborted sweep leaves no variant running.  Every
    sweep funnels through this one function, so rows are byte-identical
    across backends and front doors by construction: same cache keys,
    same pre-flight, same row assembly, same progress contract (hits
    and pre-flight failures in point order during the scan, then
    executed variants in point order — streamed progress reaches 100%
    even when every row is served from cache).

    A miss is pre-flighted by :func:`repro.check.check_machine` (once
    per machine object) before it may reach ``imap``: a failing one
    resolves during the scan as a ``CheckError: ...`` row — looked up
    and not found, so one ``miss``, no ``store``, ``wall_time_s``
    ``0.0`` — or raises, per ``on_error``.  A row is only ``put`` for a
    machine that passed, under a key hashing the ``repro`` sources, so
    a hit needs no second verdict.

    A point's fault plan (its optional third element) extends its cache
    key with the plan digest, so faulty and fault-free rows of the same
    machine never collide.  With a cache, each distinct key is
    simulated and stored once per job: a miss whose key equals an
    earlier miss's (a campaign's baseline and severity-0 rungs) takes
    that point's outcome, with ``wall_time_s`` ``0.0`` like a hit.
    """
    if on_error not in ("capture", "raise"):
        raise ValueError(f"on_error must be 'capture' or 'raise', "
                         f"got {on_error!r}")
    wid = workload_id or default_workload_id(runner)
    rows: list[Optional[dict]] = [None] * len(points)
    done = 0

    def resolve(idx: int, row: dict, wall: float) -> None:
        nonlocal done
        if timing:
            row["wall_time_s"] = wall
        rows[idx] = row
        done += 1
        if progress is not None:
            progress(done, len(points), row)

    pending: list[tuple[int, str]] = []   # (point index, cache key)
    variants: list[tuple[MachineConfig, Any]] = []   # one per simulation
    #: with a cache, the outcome of each missed key once it has run
    outcome_of: dict[str, Optional[tuple[str, Any]]] = {}
    #: per machine object pre-flighted, its failure message (or None)
    verdict_of: dict[int, Optional[str]] = {}
    for idx, point in enumerate(points):
        coords, machine = point[:2]
        plan = point[2] if len(point) > 2 else None
        key = ""
        if cache is not None:
            key = cache.key_for(machine, wid, faults=plan)
            if key in outcome_of:
                pending.append((idx, key))
                continue
            cached = cache.get(key)
            if cached is not None:
                resolve(idx, {**coords, **cached}, 0.0)
                continue
        if id(machine) not in verdict_of:
            report = check.check_machine(machine)
            verdict_of[id(machine)] = None if report.ok \
                else f"CheckError: {report.summary_message()}"
        error = verdict_of[id(machine)]
        if error is not None:
            if on_error == "raise":
                raise SweepVariantError(coords, error)
            resolve(idx, {**coords, "error": error}, 0.0)
            continue
        if cache is not None:
            outcome_of[key] = None
        pending.append((idx, key))
        variants.append((machine, plan))

    with contextlib.closing(imap(
            functools.partial(variant_outcome, runner, timing),
            variants)) as outcomes:
        for idx, key in pending:
            coords, machine = points[idx][:2]
            if outcome_of.get(key) is not None:
                (status, payload), wall = outcome_of[key], 0.0
            else:
                status, payload, wall = next(outcomes)
                if cache is not None:
                    outcome_of[key] = (status, payload)
                    if status == "ok":
                        # The full config (not just the name) rides
                        # along so `repro bound --audit` can rebuild the
                        # exact machine behind any historical row.
                        cache.put(key, payload, meta={
                            "machine": machine.name, "workload_id": wid,
                            "machine_config": machine.to_dict()})
            if status == "ok":
                row = {**coords, **payload}
            elif on_error == "raise":
                raise SweepVariantError(coords, error_message(payload))
            else:
                # The structured payload carries the "error" key, the
                # remote traceback, plus any partial metric columns.
                row = ({**coords, **payload} if isinstance(payload, dict)
                       else {**coords, "error": payload})
            resolve(idx, row, wall)
    return rows  # type: ignore[return-value]


class ParallelSweepRunner:
    """Run a sweep's points as one blocking executor job, with caching.

    ::

        runner = ParallelSweepRunner(workers=8, cache=ResultCache(dir))
        rows = runner.run(run_node, sweep.points())

    Sugar over the :class:`~repro.parallel.executor.Executor` interface:
    :meth:`run` submits one :class:`~repro.parallel.executor.JobSpec` to
    ``executor`` — or, given ``workers`` instead, to an executor of
    that size that lives for the call (``workers=1`` starts no process)
    — and returns the rows.  Rows come back in point order; failed
    variants become ``{**coords, "error": ...}`` rows unless
    ``on_error="raise"``.
    """

    def __init__(self, workers: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 executor: Any = None) -> None:
        if executor is not None and workers is not None:
            raise ValueError("pass either workers= or executor=, not both")
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers if workers is not None \
            else (os.cpu_count() or 1)
        self.cache = cache
        self.executor = executor

    def run(self, runner: Runner, points: Sequence[Point], *,
            workload_id: Optional[str] = None,
            on_error: str = "capture",
            progress: Optional[ProgressFn] = None,
            timing: bool = False) -> list[dict]:
        """One metric row per point, in point order.

        ``progress(done, total, row)`` is called once per resolved row —
        hits and pre-flight failures in point order during the scan,
        then executed variants in point order.  ``timing=True`` adds a
        ``wall_time_s`` column to every executed row (rows resolved
        during the scan report ``0.0``); it is opt-in
        because wall time is nondeterministic and would break row
        equality between runs.  Wall times never enter the cache.

        Whatever made the job fail — a variant under
        ``on_error="raise"``, an exception from ``progress`` — is
        re-raised here as itself; a job that timed out or was cancelled
        on a shared executor raises ``RuntimeError``.
        """
        from .executor import Executor, JobSpec, JobState

        spec = JobSpec(runner=runner, points=points, workload_id=workload_id,
                       on_error=on_error, timing=timing, cache=self.cache)
        on_event = None
        if progress is not None:
            def on_event(event: dict) -> None:
                if event["event"] == "progress":
                    progress(event["done"], event["total"], event["row"])
        job = JobState("sweep", on_event=on_event)
        with (contextlib.nullcontext(self.executor)
              if self.executor is not None
              else Executor(workers=self.workers)) as executor:
            executor.submit(spec, state=job)
        if job.state != "done":
            if job.exc is not None:
                raise job.exc
            raise RuntimeError(f"sweep job {job.state}: {job.error}")
        return job.rows

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<ParallelSweepRunner workers={self.workers} "
                f"cache={self.cache!r} executor={self.executor!r}>")


class SweepVariantError(RuntimeError):
    """A variant failed and the sweep was run with ``on_error='raise'``."""

    def __init__(self, coords: dict, message: str) -> None:
        super().__init__(f"sweep variant {coords!r} failed: {message}")
        self.coords = coords
        self.message = message
