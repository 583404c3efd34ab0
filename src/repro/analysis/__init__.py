"""``repro.analysis`` — visualization and analysis tools (Fig 1).

Slowdown measurement (the paper's Section-6 metric), timelines read
from a run's :class:`~repro.observe.Tracer` records with text Gantt
rendering, statistics post-processing, and text reports.
"""

from .heatmap import link_utilization_grid, top_links
from .report import comm_report, format_table, node_report, smp_report
from .slowdown import SlowdownMeasurement, SlowdownMeter
from .stats import geometric_mean, histogram, percentiles, speedup_table
from .timeline import TimelineRecorder, render_gantt
from .tracetools import (
    compare_trace_sets,
    dump_trace,
    trace_profile,
    trace_set_profile,
)

__all__ = [
    "SlowdownMeasurement", "SlowdownMeter", "TimelineRecorder",
    "comm_report", "compare_trace_sets", "dump_trace", "format_table",
    "geometric_mean", "histogram", "link_utilization_grid",
    "node_report", "percentiles",
    "render_gantt", "smp_report", "speedup_table", "top_links",
    "trace_profile",
    "trace_set_profile",
]
