#!/usr/bin/env python
"""Application scaling study with a run-time timeline.

Predicts SPMD matmul speedup on 1..16 nodes of a generic wormhole
multicomputer, then re-runs the 4-node case with a tracer attached and
renders the timeline of its node hand-offs as a text Gantt chart — the
headless equivalent of Mermaid's run-time visualization.

Run:  python examples/matmul_scaling.py
"""

from repro import Workbench, generic_multicomputer
from repro.analysis import (
    TimelineRecorder,
    format_table,
    render_gantt,
    speedup_table,
)
from repro.apps import ThreadedApplication, make_matmul
from repro.hybrid import HybridModel
from repro.observe import Tracer


def scaling_study(n_matrix: int = 32) -> None:
    times = {}
    for n in (1, 2, 4, 8, 16):
        machine = generic_multicomputer("mesh", (n, 1) if n > 1 else (1, 1))
        res = Workbench(machine).run_hybrid(make_matmul(n=n_matrix))
        times[n] = res.total_cycles
    rows = speedup_table(times)
    print(format_table(rows, title=f"matmul {n_matrix}x{n_matrix} "
                       "scaling (generic mesh):"))
    print()


def timeline_view(n_matrix: int = 24) -> None:
    machine = generic_multicomputer("mesh", (4, 1))
    model = HybridModel(machine)
    tracer = Tracer()
    model.sim.observer = tracer
    model.run_application(ThreadedApplication(make_matmul(n=n_matrix), 4))
    recorder = TimelineRecorder(tracer)

    print(f"timeline (matmul {n_matrix}, 4 nodes; node 0 gathers):")
    print(render_gantt(recorder, width=68))
    print()
    for entity in recorder.entities():
        totals = recorder.state_totals(entity)
        parts = ", ".join(f"{k}={v:,.0f}" for k, v in sorted(totals.items()))
        print(f"  {entity}: {parts}")


if __name__ == "__main__":
    scaling_study()
    timeline_view()
