"""Tie-break controllers: the schedules the explorer can impose.

A controller is anything with ``select(time, candidates) -> int``
(set as ``sim.tie_break`` on a :class:`repro.pearl.Simulator`), where
``candidates`` are the heap entries ``(time, seq, target, value)``
simultaneously ready at the current instant, in sequence (seed) order.

* :class:`SeedOrder` — the identity: always index 0, reproducing the
  kernel's default ``(time, seq)`` schedule.
* :class:`RecordingOrder` — seed order that additionally logs every
  multi-candidate choice point ("burst"); the naive enumeration mode
  permutes these.
* :class:`PreferenceOrder` — applies one :class:`Perturbation`: at one
  instant, dispatch the listed targets first, in the listed order;
  everywhere else, seed order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

__all__ = ["Perturbation", "PreferenceOrder", "RecordingOrder",
           "SeedOrder", "target_name"]

#: one ready heap entry: (time, seq, target, value)
Entry = Sequence[Any]


def target_name(target: Any) -> str:
    """Stable display name of a dispatch target.

    Processes carry their own ``name``; bare callbacks (event triggers,
    timer fires) are named after the bound method and its event, so a
    perturbation can address e.g. ``trigger:timeout(5)``.
    """
    name = getattr(target, "name", None)
    if isinstance(name, str):
        return name
    owner = getattr(target, "__self__", None)
    fn_name = str(getattr(target, "__name__", "callback"))
    if owner is not None:
        event = getattr(owner, "event", owner)      # Timer -> its event
        event_name = getattr(event, "name", "")
        if isinstance(event_name, str) and event_name:
            return f"{fn_name}:{event_name}"
    return fn_name


class SeedOrder:
    """The identity controller: always the lowest sequence number."""

    def select(self, time: float, candidates: Sequence[Entry]) -> int:
        return 0


class RecordingOrder:
    """Seed order, logging every multi-candidate choice point."""

    def __init__(self) -> None:
        #: (time, names of simultaneously-ready targets in seed order)
        self.bursts: list[tuple[float, tuple[str, ...]]] = []

    def select(self, time: float, candidates: Sequence[Entry]) -> int:
        self.bursts.append(
            (time, tuple(target_name(entry[2]) for entry in candidates)))
        return 0


@dataclass(frozen=True)
class Perturbation:
    """One alternative schedule: a preferred dispatch order at one instant.

    ``obj``/``kind`` name the contention cluster this perturbation
    probes (a resource or channel, or a raw dispatch burst in naive
    mode); ``order`` lists target names to prefer at ``time``.
    """

    time: float
    obj: str
    kind: str
    order: tuple[str, ...]

    def describe(self) -> str:
        return (f"dispatch [{' -> '.join(self.order)}] first at "
                f"t={self.time:g} (contending on {self.obj!r})")

    def to_dict(self) -> dict[str, Any]:
        return {"time": self.time, "obj": self.obj, "kind": self.kind,
                "order": list(self.order)}


class PreferenceOrder:
    """Apply one :class:`Perturbation`; seed order everywhere else.

    At every choice point at the perturbation's instant, the candidate
    whose name ranks earliest in ``order`` is dispatched next (names
    not listed rank last, among themselves in seed order).  Preferring
    a process keeps preferring it while it stays ready, so all of its
    same-time operations complete before the next preferred target —
    exactly the "A's ops before B's" reordering the sanitizer flags.
    """

    def __init__(self, perturbation: Perturbation) -> None:
        self.perturbation = perturbation
        self._time = perturbation.time
        self._rank = {name: i for i, name in enumerate(perturbation.order)}

    def select(self, time: float, candidates: Sequence[Entry]) -> int:
        if time != self._time:
            return 0
        best = 0
        best_rank: int | None = None
        for i, entry in enumerate(candidates):
            rank = self._rank.get(target_name(entry[2]))
            if rank is not None and (best_rank is None or rank < best_rank):
                best = i
                best_rank = rank
        return best
