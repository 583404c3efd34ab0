"""Seeded schedule-sensitivity fixtures for ``repro.verify``.

Module-level factories (picklable, so sharded exploration works) that
each build a fresh two-process Pearl model with a known verdict:

* :func:`race_factory` — a *confirmed race*: whichever contender
  acquires the lock first wins, so the result summary depends on
  same-time tie-breaking (KV001);
* :func:`benign_factory` — same contention shape, but the result is
  order-independent (KV002);
* :func:`deadlock_factory` — an alternative same-time ordering reaches
  a wait cycle (KV003);
* :func:`wide_race_factory` — the race plus two independent same-time
  compute processes: naive burst permutation plans many orderings,
  DPOR plans only the contention cluster's.
"""

from __future__ import annotations

from repro.pearl import Simulator
from repro.pearl.resource import Resource

__all__ = ["benign_factory", "deadlock_factory", "race_factory",
           "wide_race_factory"]


def race_factory(sim_cls=Simulator):
    """Two contenders; the summary records who acquired first.

    ``sim_cls`` lets the certificate golden be explored on the test
    oracle (``functools.partial(race_factory, ReferenceSimulator)``).
    """
    sim = sim_cls()
    result: dict[str, str] = {}
    res = Resource(sim, 1, name="lock")

    def contender(tag):
        def proc():
            yield res.acquire()
            result.setdefault("first", tag)
            yield 5.0
            res.release()
        return proc

    sim.process(contender("A")(), name="A")
    sim.process(contender("B")(), name="B")

    def run():
        sim.run(check_deadlock=True)
        return dict(result)
    return sim, run


def benign_factory():
    """Same contention shape as :func:`race_factory`, commutative result."""
    sim = Simulator()
    result = {"acquired": 0}
    res = Resource(sim, 1, name="lock")

    def contender():
        yield res.acquire()
        result["acquired"] += 1
        yield 5.0
        res.release()

    sim.process(contender(), name="A")
    sim.process(contender(), name="B")

    def run():
        sim.run(check_deadlock=True)
        return dict(result)
    return sim, run


def deadlock_factory():
    """Waiter-before-releaser ordering blocks both processes forever."""
    sim = Simulator()
    res = Resource(sim, 1, name="lock")
    gate = sim.event("gate")

    def releaser():
        yield res.acquire()
        gate.trigger("go")
        res.release()

    def waiter():
        yield res.acquire()
        yield gate
        res.release()

    sim.process(releaser(), name="releaser")
    sim.process(waiter(), name="waiter")

    def run():
        sim.run(check_deadlock=True)
        return {"done": True}
    return sim, run


def wide_race_factory():
    """The race of :func:`race_factory` among independent bystanders.

    C and D share nothing with anyone, so DPOR never permutes them —
    only the lock cluster's one alternative ordering is planned.  Naive
    mode permutes the whole four-candidate t=0 dispatch burst.
    """
    sim, run = race_factory()

    def bystander():
        yield 1.0

    sim.process(bystander(), name="C")
    sim.process(bystander(), name="D")
    return sim, run

