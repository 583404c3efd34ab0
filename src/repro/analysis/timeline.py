"""Timelines and their rendering — the visualization substrate.

Mermaid provided "a suite of tools ... to visualize and analyze the
simulation output.  Visualization of simulation data can be performed
both at run-time and post-mortem."  Headless reproduction: a run-time
view is an observer in the ``sim.observer`` slot; a
:class:`TimelineRecorder` is the post-mortem view of a
:class:`~repro.observe.Tracer`'s records, rendered as a text Gantt
chart or CSV export.
"""

from __future__ import annotations

from typing import Optional, TextIO

from ..observe import Tracer

__all__ = ["TimelineRecorder", "render_gantt"]

#: Characters used for the Gantt rendering, by state name.
_STATE_GLYPHS = {
    "compute": "#",
    "busy": "#",
    "send": ">",
    "send_wait": ">",
    "recv": "<",
    "recv_wait": "<",
    "overhead": "o",
    "mem_stall": "m",
    "idle": ".",
}

#: The state a ``task`` instant opens, by the operation name it carries
#: (``send(size=64, dest=1)`` -> ``send``); other names are the state.
_TASK_STATES = {"asend": "send", "arecv": "recv", "end": "idle"}


class TimelineRecorder:
    """(entity, state, start, end) intervals in simulated time.

    Each ``task`` instant on a track (the hybrid hand-offs
    :func:`repro.hybrid.scheduler.traced_tasks` emits) opens a state for
    that entity and closes the one before; the last state closes where
    the trace ends.
    """

    def __init__(self, tracer: Tracer) -> None:
        records = tracer.records
        self.intervals: list[tuple[str, str, float, float]] = []
        opened: dict[str, tuple[str, float]] = {}
        for rec in records:
            if rec.cat != "task":
                continue
            prev = opened.get(rec.tid)
            if prev is not None and rec.ts > prev[1]:
                self.intervals.append((rec.tid, *prev, rec.ts))
            kind = rec.name.partition("(")[0]
            opened[rec.tid] = (_TASK_STATES.get(kind, kind), rec.ts)
        end = max((rec.ts + rec.dur for rec in records), default=0.0)
        for entity, (state, start) in opened.items():
            if end > start:
                self.intervals.append((entity, state, start, end))

    # -- post-mortem exports ------------------------------------------------

    def entities(self) -> list[str]:
        seen: dict[str, None] = {}
        for entity, _, _, _ in self.intervals:
            seen.setdefault(entity)
        return list(seen)

    def to_csv(self, fp: TextIO) -> None:
        fp.write("entity,state,start,end\n")
        for entity, state, start, end in self.intervals:
            fp.write(f"{entity},{state},{start:.6g},{end:.6g}\n")

    def state_totals(self, entity: str) -> dict[str, float]:
        """Total simulated time per state for one entity."""
        totals: dict[str, float] = {}
        for ent, state, start, end in self.intervals:
            if ent == entity:
                totals[state] = totals.get(state, 0.0) + (end - start)
        return totals


def render_gantt(recorder: TimelineRecorder, width: int = 72,
                 until: Optional[float] = None) -> str:
    """Text Gantt chart: one row per entity, one glyph per time bucket.

    Each bucket shows the state occupying the most time within it.
    """
    intervals = recorder.intervals
    if not intervals:
        return "(empty timeline)"
    horizon = until if until is not None else max(e for _, _, _, e in intervals)
    if horizon <= 0:
        return "(empty timeline)"
    bucket = horizon / width
    rows = []
    for entity in recorder.entities():
        # occupancy[b][state] = time of `state` within bucket b.
        occupancy: list[dict[str, float]] = [{} for _ in range(width)]
        for ent, state, start, end in intervals:
            if ent != entity:
                continue
            b0 = min(int(start / bucket), width - 1)
            b1 = min(int((end - 1e-12) / bucket), width - 1)
            for b in range(b0, b1 + 1):
                lo = max(start, b * bucket)
                hi = min(end, (b + 1) * bucket)
                if hi > lo:
                    occ = occupancy[b]
                    occ[state] = occ.get(state, 0.0) + (hi - lo)
        chars = []
        for occ in occupancy:
            if not occ:
                chars.append(" ")
            else:
                state = max(occ, key=occ.get)
                chars.append(_STATE_GLYPHS.get(state, state[0]))
        rows.append(f"{entity:<14}|{''.join(chars)}|")
    legend = "  ".join(f"{g}={s}" for s, g in
                       (("compute", "#"), ("send", ">"), ("recv", "<"),
                        ("overhead", "o"), ("idle", ".")))
    header = f"t = 0 .. {horizon:.4g} cycles ({bucket:.4g}/col)   {legend}"
    return "\n".join([header] + rows)
