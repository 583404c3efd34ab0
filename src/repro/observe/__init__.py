"""``repro.observe`` — the workbench's observability layer.

Two first-class instruments over a running simulation:

* :class:`Tracer` — typed span/instant/counter records out of the
  kernel, channels, resources, NICs, switching engines, the fault
  layer and the hybrid scheduler; it is an
  :class:`~repro.pearl.Observer`, set as ``sim.observer = Tracer()``.
  Exports Chrome ``trace_event`` JSON that opens directly in
  ``about://tracing`` / Perfetto (``repro trace <app> --out
  trace.json``).
* :class:`MetricRegistry` — namespaces every component's
  :class:`~repro.pearl.TallyMonitor` / summary dict and snapshots them
  into one flat experiment row (``repro stats``).

Both are opt-in and zero-cost when detached (one ``None`` check of
``sim.observer`` per kernel operation).

Dispatcher independence: the kernel has one dispatcher with two loops.
A simulator with no observer (and no tie-break) takes the
instrumentation-free bulk loop; setting a tracer as its observer moves
it to the instrumented loop, which executes the same schedule — an
observer never changes what a simulation computes, and not having one
costs the hot path nothing.
``tests/test_kernel_equivalence.py`` and the dispatcher parity suite
in ``tests/test_pearl_kernel.py`` pin record-level equality with the
heap-only reference dispatcher in ``tests/reference_kernel.py``.
"""

from .registry import CounterMetric, MetricRegistry
from .tracer import Tracer, TraceRecord, validate_chrome_trace

__all__ = ["CounterMetric", "MetricRegistry", "TraceRecord", "Tracer",
           "validate_chrome_trace"]
