"""Event tracing — structured records out of a running simulation.

MGSim ships integrated event tracing as a first-class simulator
feature, and Akita's hook-based tracing (feeding the Daisen visualizer)
shows the clean pattern: components emit typed records through one
uniform instrumentation API instead of printing.  :class:`Tracer` is
the :class:`~repro.pearl.observer.Observer` that keeps that API's
records: set ``sim.observer = Tracer()`` and the kernel, channels,
resources, NICs, switching engines, the fault layer and the hybrid
scheduler emit span/instant/counter records as the model runs.
Detached simulations pay only a ``None`` check per operation.

Records use the Chrome ``trace_event`` phase vocabulary (``X`` complete
span, ``i`` instant, ``C`` counter), so :meth:`Tracer.to_chrome`
produces JSON that opens directly in ``about://tracing`` or Perfetto.
Timestamps are simulated cycles, mapped 1:1 onto the viewer's
microsecond axis.

A bounded **ring-buffer mode** (``Tracer(capacity=N)``) keeps only the
last ``N`` records — long runs can stay attached without unbounded
memory; :attr:`Tracer.dropped` counts what fell off the front.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from typing import IO, Any, Optional, Union

from ..pearl.kernel import Process
from ..pearl.observer import Observer

__all__ = ["Tracer", "TraceRecord", "validate_chrome_trace"]

#: Chrome trace_event phases this tracer emits.
SPAN = "X"
INSTANT = "i"
COUNTER = "C"
_PHASES = frozenset((SPAN, INSTANT, COUNTER))


class TraceRecord:
    """One typed trace record (a thin, slotted value object).

    ``ph`` is the Chrome phase (``X``/``i``/``C``), ``cat`` the
    component category (``kernel``, ``process``, ``channel``,
    ``resource``, ``network``, ``nic``, ``task``, ...), ``tid`` the
    track the viewer groups the record under (process name, channel
    name, resource name, ``node3``, ...).
    """

    __slots__ = ("ph", "cat", "name", "ts", "dur", "tid", "args")

    def __init__(self, ph: str, cat: str, name: str, ts: float,
                 dur: float = 0.0, tid: str = "",
                 args: Optional[dict] = None) -> None:
        self.ph = ph
        self.cat = cat
        self.name = name
        self.ts = ts
        self.dur = dur
        self.tid = tid
        self.args = args

    def to_event(self, tid_number: int) -> dict:
        """This record as one Chrome ``traceEvents`` entry."""
        event: dict[str, Any] = {
            "ph": self.ph, "cat": self.cat, "name": self.name,
            "ts": self.ts, "pid": 0, "tid": tid_number,
        }
        if self.ph == SPAN:
            event["dur"] = self.dur
        if self.ph == INSTANT:
            event["s"] = "t"        # instant scope: thread
        if self.args is not None:
            event["args"] = self.args
        return event

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<TraceRecord {self.ph} {self.cat}:{self.name} "
                f"t={self.ts:g} tid={self.tid!r}>")


class Tracer(Observer):
    """Collects typed trace records from an observed simulation.

    Parameters
    ----------
    capacity:
        ``None`` keeps every record; an integer keeps only the last
        ``capacity`` records (ring buffer) — :attr:`dropped` reports
        how many older records were discarded.

    Every :class:`~repro.pearl.observer.Observer` call becomes one or
    two records; each is one object construction and an append.  Model
    code reports through the generic :meth:`span` / :meth:`instant` /
    :meth:`counter`: a fault-injection event is an instant of category
    ``faults`` on the link or node track, a hybrid task boundary an
    instant of category ``task`` on the node track.
    """

    __slots__ = ("capacity", "emitted", "_records")

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.emitted = 0
        self._records: Union[deque, list] = (
            deque(maxlen=capacity) if capacity is not None else [])

    # -- introspection ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> list[TraceRecord]:
        """The retained records, oldest first."""
        return list(self._records)

    @property
    def dropped(self) -> int:
        """Records discarded by the ring buffer (0 when unbounded)."""
        return self.emitted - len(self._records)

    def counts_by_category(self) -> dict[str, int]:
        """Retained record counts per category (reports, CLI summary)."""
        return dict(Counter(rec.cat for rec in self._records))

    def clear(self) -> None:
        self._records.clear()
        self.emitted = 0

    # -- generic emission --------------------------------------------------

    def _emit(self, rec: TraceRecord) -> None:
        self.emitted += 1
        self._records.append(rec)

    def span(self, cat: str, name: str, ts: float, dur: float,
             tid: str, args: Optional[dict] = None) -> None:
        """A complete span: ``name`` occupied ``tid`` for ``dur`` cycles."""
        self._emit(TraceRecord(SPAN, cat, name, ts, dur, tid, args))

    def instant(self, cat: str, name: str, ts: float, tid: str,
                args: Optional[dict] = None) -> None:
        """A zero-duration point event on track ``tid``."""
        self._emit(TraceRecord(INSTANT, cat, name, ts, 0.0, tid, args))

    def counter(self, ts: float, name: str, value: float,
                cat: str = "occupancy") -> None:
        """A sampled level (queue depth, buffered messages, in-use units)."""
        self._emit(TraceRecord(COUNTER, cat, name, ts, 0.0, name,
                               {"value": value}))

    # -- the kernel and its primitives ------------------------------------

    def dispatch(self, ts: float, target: Any) -> None:
        """Kernel dispatched one event to a process or callback."""
        name = (target.name if target.__class__ is Process
                else getattr(target, "__name__", "callback"))
        self._emit(TraceRecord(INSTANT, "kernel", "step", ts, 0.0, name))

    def hold(self, ts: float, dur: float, name: str) -> None:
        """Process ``name`` holds (advances local time) for ``dur``."""
        self._emit(TraceRecord(SPAN, "process", "hold", ts, dur, name))

    def channel(self, ts: float, name: str, kind: str, process: str) -> None:
        self._emit(TraceRecord(INSTANT, "channel", kind, ts, 0.0, name))

    def resource_acquire(self, ts: float, name: str, granted: bool,
                         in_use: int, process: str) -> None:
        """One acquire on ``name`` (queued when not ``granted``), plus
        the resulting occupancy level."""
        self._emit(TraceRecord(INSTANT, "resource",
                               "acquire" if granted else "enqueue",
                               ts, 0.0, name))
        self._emit(TraceRecord(COUNTER, "resource", name, ts, 0.0,
                               name, {"value": in_use}))

    def resource_release(self, ts: float, name: str, in_use: int) -> None:
        self._emit(TraceRecord(INSTANT, "resource", "release", ts, 0.0,
                               name))
        self._emit(TraceRecord(COUNTER, "resource", name, ts, 0.0,
                               name, {"value": in_use}))

    # -- Chrome trace_event export ----------------------------------------

    def to_chrome(self) -> dict:
        """The retained records as a Chrome ``trace_event`` document.

        Tracks (``tid`` strings) are numbered in first-appearance order
        and named via ``thread_name`` metadata events, so the viewer
        shows ``node0``, ``link0->1/vc0``, ... instead of bare numbers.
        """
        tids: dict[str, int] = {}
        events = []
        for rec in self._records:
            number = tids.get(rec.tid)
            if number is None:
                number = tids[rec.tid] = len(tids)
            events.append(rec.to_event(number))
        metadata = [
            {"ph": "M", "name": "thread_name", "pid": 0, "tid": number,
             "args": {"name": name}}
            for name, number in tids.items()]
        return {
            "traceEvents": metadata + events,
            "displayTimeUnit": "ms",
            "otherData": {
                "producer": "repro.observe.Tracer",
                "time_unit": "simulated cycles (1 cycle = 1 us on the "
                             "viewer axis)",
                "records": len(self._records),
                "dropped": self.dropped,
            },
        }

    def export_chrome(self, destination: Union[str, IO[str]]) -> dict:
        """Write :meth:`to_chrome` JSON to a path or file object.

        Returns the exported document (handy for summaries/tests).
        """
        doc = self.to_chrome()
        if hasattr(destination, "write"):
            json.dump(doc, destination, indent=1, sort_keys=True)
        else:
            with open(destination, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
                fh.write("\n")
        return doc

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        cap = self.capacity if self.capacity is not None else "inf"
        return (f"<Tracer records={len(self._records)} cap={cap} "
                f"dropped={self.dropped}>")


def validate_chrome_trace(doc: dict) -> dict[str, int]:
    """Validate a Chrome ``trace_event`` document (JSON-object format).

    Checks the structural contract the viewers rely on: a
    ``traceEvents`` list whose entries carry ``ph``/``name``/``pid``/
    ``tid``, timestamps on every non-metadata event, a non-negative
    ``dur`` on complete (``X``) spans, and an ``args`` dict on counter
    (``C``) samples.  Raises :class:`ValueError` on the first
    violation; returns per-phase event counts for smoke reports.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"trace document must be an object, "
                         f"got {type(doc).__name__}")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace document has no 'traceEvents' list")
    counts: Counter = Counter()
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where}: event must be an object")
        ph = event.get("ph")
        if not isinstance(ph, str) or not ph:
            raise ValueError(f"{where}: missing phase 'ph'")
        for key in ("name", "pid", "tid"):
            if key not in event:
                raise ValueError(f"{where}: missing {key!r}")
        if ph == "M":                      # metadata: no timestamp needed
            counts[ph] += 1
            continue
        if ph not in _PHASES:
            raise ValueError(f"{where}: unsupported phase {ph!r}")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"{where}: bad timestamp {ts!r}")
        if ph == SPAN:
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"{where}: span needs dur >= 0, "
                                 f"got {dur!r}")
        if ph == COUNTER and not isinstance(event.get("args"), dict):
            raise ValueError(f"{where}: counter needs an 'args' object")
        counts[ph] += 1
    return dict(counts)
