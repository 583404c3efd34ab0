"""Host-time spans around each layer's public functions, from outside.

The traced run measures where an op's wall time goes without touching
``src/``: :func:`install` replaces the public entry points of each
``repro`` package with wrappers that open a span (name, layer, start,
end, the span that caused it, the op it belongs to), and puts the
originals back afterwards.  Spans are kept in memory; the caller
writes them out as Chrome trace JSON when the run is over.  A layer's
*self time* is its spans' duration minus the part their child spans
cover.

What a span can see is bounded by process and call boundaries:

* ``pearl`` is ``Simulator.run``.  The kernel resumes the model's
  process bodies from inside its dispatch loop, so this span holds the
  kernel *and* the communication-model code it drives; the two are
  reported together and the bare kernel is timed by the ``pearl.*``
  probes instead.
* work done in pool workers, executor workers and the ``repro serve``
  process happens in other interpreters: from here it is time the
  ``parallel`` or ``service`` span spent waiting.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from typing import Any, Callable, Iterator

__all__ = ["LAYERS", "NullTracer", "Span", "Tracer", "chrome_trace",
           "install", "layer_self_seconds", "self_seconds"]

#: the repo's packages, bottom of the stack first; ``harness`` is the
#: benchmark's own code between the calls (op loop, verification).
LAYERS = ("pearl", "commmodel", "topology", "tracegen", "compmodel",
          "hybrid", "core", "check", "parallel", "service", "cli")
HARNESS = "harness"


class Span:
    """One timed call: ``parent`` is the span that caused it."""

    __slots__ = ("layer", "name", "start", "end", "parent", "op", "tid")

    def __init__(self, layer: str, name: str, start: float,
                 parent: "Span | None", op: Any, tid: int) -> None:
        self.layer = layer
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.tid = tid

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; one open-span stack per thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.spans: list[Span] = []
        self._clock = clock
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def begin(self, layer: str, name: str, op: Any = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(layer, name, self._clock(), parent,
                    op if op is not None else (parent.op if parent else None),
                    threading.get_ident())
        stack.append(span)
        self.spans.append(span)     # list.append is atomic under the GIL
        return span

    def end(self, span: Span) -> None:
        span.end = self._clock()
        stack = self._stack()
        while stack and stack.pop() is not span:
            pass

    @contextlib.contextmanager
    def span(self, layer: str, name: str, op: Any = None) -> Iterator[Span]:
        span = self.begin(layer, name, op)
        try:
            yield span
        finally:
            self.end(span)


class NullTracer:
    """Same surface, records nothing: the untraced side of a staged op."""

    spans: tuple = ()

    @contextlib.contextmanager
    def span(self, layer: str, name: str, op: Any = None) -> Iterator[None]:
        yield None


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus what its direct children cover,
    keyed by ``id(span)``."""
    own = {id(s): s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            own[id(s.parent)] -= s.duration
    return own


def layer_self_seconds(spans: list[Span]) -> dict[str, float]:
    """Self time summed per layer (every layer present, 0.0 if idle)."""
    own = self_seconds(spans)
    totals = {layer: 0.0 for layer in (*LAYERS, HARNESS)}
    for s in spans:
        totals[s.layer] = totals.get(s.layer, 0.0) + own[id(s)]
    return totals


def chrome_trace(spans: list[Span], label: str) -> dict:
    """Chrome ``trace_event`` JSON (complete events, microseconds)."""
    ids = {id(s): i for i, s in enumerate(spans)}
    t0 = min((s.start for s in spans), default=0.0)
    tids = {tid: n for n, tid in enumerate(sorted({s.tid for s in spans}))}
    events = [{
        "name": s.name, "cat": s.layer, "ph": "X", "pid": 1,
        "tid": tids[s.tid], "ts": (s.start - t0) * 1e6,
        "dur": s.duration * 1e6,
        "args": {"id": ids[id(s)], "op": s.op,
                 "parent": ids[id(s.parent)] if s.parent else None},
    } for s in spans]
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"benchmark": "layered", "label": label}}


#: (layer, module, class or None, attribute) of every wrapped entry
#: point.  Functions another module imported by name are listed under
#: the importing module too, since that binding is the one it calls.
_TARGETS = (
    ("core", "repro.core.workbench", "Workbench", "run_hybrid"),
    ("core", "repro.core.workbench", "Workbench", "run_mixed_traces"),
    ("core", "repro.core.workbench", "Workbench", "run_comm_only"),
    ("core", "repro.core.workbench", "Workbench", "run_stochastic"),
    ("core", "repro.core.workbench", "Workbench", "run_single_node"),
    ("core", "repro.core.workbench", "Workbench", "run_smp"),
    ("core", "repro.core.workbench", "Workbench", "record_traces"),
    ("core", "repro.core.experiment", "Sweep", "run"),
    ("core", "repro.core.experiment", "Sweep", "points"),
    ("hybrid", "repro.hybrid.model", "HybridModel", "__init__"),
    ("hybrid", "repro.hybrid.model", "HybridModel", "run_application"),
    ("hybrid", "repro.hybrid.model", "HybridModel", "run_traces"),
    ("commmodel", "repro.commmodel.network", "MultiNodeModel", "__init__"),
    ("commmodel", "repro.commmodel.network", "MultiNodeModel", "run"),
    ("topology", "repro.commmodel.network", None, "build_topology"),
    ("pearl", "repro.pearl.kernel", "Simulator", "run"),
    ("tracegen", "repro.apps.api", "ThreadedApplication", "record"),
    ("tracegen", "repro.tracegen.stochastic", "StochasticGenerator",
     "generate_task_level"),
    ("tracegen", "repro.tracegen.stochastic", "StochasticGenerator",
     "generate_instruction_level"),
    ("compmodel", "repro.compmodel.node", "SingleNodeModel", "run_trace"),
    ("compmodel", "repro.sharedmem.smp", "SMPNodeModel", "run_traces"),
    ("check", "repro.check", None, "check_machine"),
    ("parallel", "repro.parallel.runner", "ParallelSweepRunner", "run"),
    ("parallel", "repro.parallel.cache", "ResultCache", "key_for"),
    ("parallel", "repro.parallel.cache", "ResultCache", "get"),
    ("parallel", "repro.parallel.cache", "ResultCache", "put"),
    ("service", "repro.service.client", "ServiceClient", "submit"),
    ("service", "repro.service.client", "ServiceClient", "wait"),
    ("service", "repro.service.client", "ServiceClient", "status"),
    ("service", "repro.service.client", "ServiceClient", "result"),
)


def _wrapped(tracer: Tracer, layer: str, name: str,
             fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span = tracer.begin(layer, name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(span)
    return wrapper


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every entry point in ``_TARGETS``; returns the undo."""
    undo: list[tuple[Any, str, Any]] = []
    for layer, module_name, cls_name, attr in _TARGETS:
        owner = importlib.import_module(module_name)
        if cls_name is not None:
            owner = getattr(owner, cls_name)
        original = owner.__dict__[attr] if cls_name else getattr(owner, attr)
        label = f"{cls_name or module_name.rsplit('.', 1)[-1]}.{attr}"
        setattr(owner, attr, _wrapped(tracer, layer, label, original))
        undo.append((owner, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return uninstall
