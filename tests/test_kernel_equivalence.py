"""Kernel equivalence: the product dispatcher vs the reference oracle.

:class:`repro.pearl.Simulator` (ready ring, inlined bulk loop) and the
batched computational-model loop are held to the specification in
``tests/reference_kernel.py``: both must produce *identical*
observables — event order, timestamps, ``events_executed``,
channel/resource accounting, monitor snapshots and sweep rows — on
golden scenarios and on hypothesis-generated random
process/channel/resource workloads.
"""

from __future__ import annotations

import pathlib
import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.pearl import (
    Channel,
    Resource,
    TallyMonitor,
    TimeWeightedMonitor,
)
from tests.reference_kernel import (
    CONSTRUCTION_SITES,
    KERNELS,
    reference_stack,
)


def run_under(kernel: str, scenario) -> tuple:
    """Build ``scenario`` on a fresh simulator of ``kernel``; run it.

    ``scenario(sim)`` returns a zero-argument observables callable that
    is invoked after the run completes.
    """
    sim = KERNELS[kernel]()
    observe = scenario(sim)
    end = sim.run()
    return observe(), end, sim.now, sim.events_executed


def assert_equivalent(scenario) -> tuple:
    seed = run_under("seed", scenario)
    fast = run_under("fast", scenario)
    assert seed == fast
    return seed


# -- golden scenarios ---------------------------------------------------


class TestGoldenScenarios:
    def test_channel_pipeline(self):
        """Producers -> rendezvous stage -> bounded stage -> consumer."""

        def scenario(sim):
            log = []
            rendezvous = Channel(sim, capacity=0, name="sync")
            bounded = Channel(sim, capacity=2, name="buf")

            def producer(i):
                for k in range(3):
                    yield 0.5 * (i + 1)
                    yield rendezvous.send((i, k))
                    log.append(("sent", i, k, sim.now))

            def relay():
                for _ in range(6):
                    item = yield rendezvous.receive()
                    yield 0.25
                    yield bounded.send(item)
                    log.append(("relayed", item, sim.now))

            def consumer():
                for _ in range(6):
                    item = yield bounded.receive()
                    log.append(("consumed", item, sim.now))
                    yield 1.0

            for i in range(2):
                sim.process(producer(i), name=f"p{i}")
            sim.process(relay(), name="relay")
            sim.process(consumer(), name="consumer")

            def observe():
                return (log,
                        rendezvous.sent_count, rendezvous.received_count,
                        bounded.sent_count, bounded.received_count,
                        bounded.max_buffered)
            return observe

        assert_equivalent(scenario)

    def test_resource_contention(self):
        """FIFO grants, queue statistics and utilization must match."""

        def scenario(sim):
            log = []
            bus = Resource(sim, capacity=2, name="bus")

            def worker(i, units, hold):
                yield 0.1 * i
                yield bus.acquire(units)
                log.append(("granted", i, sim.now))
                yield hold
                bus.release(units)
                log.append(("released", i, sim.now))

            plans = [(0, 1, 3.0), (1, 2, 1.5), (2, 1, 2.0), (3, 2, 0.5),
                     (4, 1, 4.0)]
            for i, units, hold in plans:
                sim.process(worker(i, units, hold), name=f"w{i}")

            def observe():
                return (log, bus.acquisitions, bus.max_queue_len,
                        bus.total_wait_time, bus.utilization(horizon=20.0))
            return observe

        assert_equivalent(scenario)

    def test_numpy_zero_delay_resumes_behind_ready_entries(self):
        """A zero hold of a non-builtin numeric type is a same-time
        resume: it queues behind entries already ready at ``now``."""
        import numpy as np

        def scenario(sim):
            log = []

            def other():
                log.append(("other", sim.now))
                yield 0

            def holder():
                yield 1.0
                sim.process(other(), name="other")
                yield np.float64(0.0)
                log.append(("holder", sim.now))

            sim.process(holder(), name="holder")
            return lambda: log

        log = assert_equivalent(scenario)[0]
        assert log == [("other", 1.0), ("holder", 1.0)]

    def test_timer_anyof_kill_mix(self):
        """Timers racing events, cancellations and mid-run kills."""

        def scenario(sim):
            log = []
            data = sim.event("data")

            def source():
                yield 3.0
                data.trigger("payload")

            def selector():
                t = sim.timer(50.0, value="timeout")
                idx, value = yield sim.any_of([data, t.event])
                log.append(("selected", idx, value, sim.now))
                log.append(("cancelled", t.cancel(), sim.now))

            def victim():
                yield 100.0
                log.append(("never", sim.now))

            def killer(victim_proc):
                yield 5.0
                victim_proc.kill()
                log.append(("killed", sim.now))

            sim.process(source(), name="source")
            sim.process(selector(), name="selector")
            v = sim.process(victim(), name="victim")
            sim.process(killer(v), name="killer")

            def observe():
                return (log, sim.live_processes)
            return observe

        assert_equivalent(scenario)

    def test_monitor_snapshots(self):
        """Tally and time-weighted monitors see identical sample streams."""

        def scenario(sim):
            lat = TallyMonitor("latency", keep_samples=True)
            depth = TimeWeightedMonitor(sim, "depth")

            def sampler(i):
                for k in range(4):
                    yield 0.75 * (i + 1)
                    lat.record(sim.now * (k + 1))
                    depth.add(+1)
                    yield 0.25
                    depth.add(-1)

            for i in range(3):
                sim.process(sampler(i), name=f"s{i}")

            def observe():
                merged = TallyMonitor("merged")
                merged.merge(lat)
                return (lat.summary(), tuple(lat.samples),
                        merged.summary(), depth.summary())
            return observe

        assert_equivalent(scenario)


# -- sweep rows ---------------------------------------------------------


def _sweep_rows() -> list:
    from repro import Workbench, generic_multicomputer, vary_machine
    from repro.apps import make_pingpong
    from repro.parallel import ParallelSweepRunner

    base = generic_multicomputer("mesh", (2, 2))
    bandwidths = [0.5, 2.0]
    machines = vary_machine(
        base, lambda m, bw: setattr(m.network, "link_bandwidth", bw),
        bandwidths)
    points = [({"link_bandwidth": bw}, m)
              for bw, m in zip(bandwidths, machines)]

    def runner(machine):
        res = Workbench(machine).run_hybrid(
            make_pingpong(size=512, repeats=2))
        return {"cycles": res.total_cycles,
                "events": res.comm.events_executed}

    return ParallelSweepRunner(workers=1).run(runner, points)


def test_sweep_rows_identical_across_kernels():
    with reference_stack() as built:
        seed_rows = _sweep_rows()
    assert len(built) == len(seed_rows)     # one oracle per variant
    fast_rows = _sweep_rows()
    assert seed_rows == fast_rows
    assert all("error" not in row for row in seed_rows)


def test_reference_stack_covers_every_construction_site():
    """``reference_stack`` swaps the kernel by patching the modules that
    build one; a new ``Simulator(`` call under ``src/`` must be added to
    ``CONSTRUCTION_SITES`` or it would stay on the product silently."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    found = {
        ".".join(path.relative_to(src).with_suffix("").parts)
        for path in src.rglob("*.py")
        if re.search(r"(?<!\w)Simulator\(", path.read_text())
        and path.name != "kernel.py"          # the class statement itself
    }
    assert found == set(CONSTRUCTION_SITES)


# -- hypothesis-generated workloads -------------------------------------

N_CHANNELS = 3
N_RESOURCES = 2

_hold = st.floats(min_value=0.0, max_value=4.0, allow_nan=False,
                  allow_infinity=False).map(lambda x: round(x, 3))
_action = st.one_of(
    st.tuples(st.just("hold"), _hold),
    st.tuples(st.just("send"), st.integers(0, N_CHANNELS - 1),
              st.integers(0, 99)),
    st.tuples(st.just("recv"), st.integers(0, N_CHANNELS - 1)),
    st.tuples(st.just("acquire"), st.integers(0, N_RESOURCES - 1)),
    st.tuples(st.just("release"), st.integers(0, N_RESOURCES - 1)),
    st.tuples(st.just("tally"), st.integers(0, 100)),
    st.tuples(st.just("level"), st.integers(-5, 5)),
)
_workload = st.lists(st.lists(_action, max_size=10), min_size=1, max_size=5)


def _interpret(sim, spec):
    """Build the random workload on ``sim``; return its observables fn.

    Every action appends a ``(tag, process, step, now)`` record, so the
    log *is* the event order plus timestamps.  Releases are guarded by a
    per-process held count (releasing what you don't hold is a config
    error, not a schedule difference).  Blocked processes simply remain
    blocked — identically under both kernels.
    """
    log = []
    channels = [Channel(sim, capacity=cap, name=f"ch{j}")
                for j, cap in enumerate((None, 0, 2))]
    resources = [Resource(sim, capacity=cap, name=f"res{j}")
                 for j, cap in enumerate((1, 2))]
    tally = TallyMonitor("tally", keep_samples=True)
    level = TimeWeightedMonitor(sim, "level")
    held = [[0] * N_RESOURCES for _ in spec]

    def body(pid, actions):
        for i, action in enumerate(actions):
            tag = action[0]
            if tag == "hold":
                yield action[1]
            elif tag == "send":
                yield channels[action[1]].send((pid, i, action[2]))
            elif tag == "recv":
                value = yield channels[action[1]].receive()
                log.append(("got", pid, i, sim.now, value))
            elif tag == "acquire":
                yield resources[action[1]].acquire()
                held[pid][action[1]] += 1
            elif tag == "release":
                if held[pid][action[1]]:
                    held[pid][action[1]] -= 1
                    resources[action[1]].release()
            elif tag == "tally":
                tally.record(float(action[1]))
            elif tag == "level":
                level.add(float(action[1]))
            log.append((tag, pid, i, sim.now))

    for pid, actions in enumerate(spec):
        sim.process(body(pid, actions), name=f"rand{pid}")

    def observe():
        return (
            log,
            tally.summary(), tuple(tally.samples), level.summary(),
            [(c.sent_count, c.received_count, c.max_buffered, len(c))
             for c in channels],
            [(r.acquisitions, r.max_queue_len, r.total_wait_time)
             for r in resources],
        )
    return observe


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=_workload)
def test_random_workloads_equivalent(spec):
    seed = run_under("seed", lambda sim: _interpret(sim, spec))
    fast = run_under("fast", lambda sim: _interpret(sim, spec))
    assert seed == fast


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=_workload)
def test_random_workloads_deterministic_per_kernel(spec):
    """Each dispatcher is also self-deterministic on random workloads."""
    for kernel in KERNELS:
        first = run_under(kernel, lambda sim: _interpret(sim, spec))
        second = run_under(kernel, lambda sim: _interpret(sim, spec))
        assert first == second
