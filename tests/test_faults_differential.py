"""Differential harness: an empty fault plan is *exactly* no plan.

The zero-overhead-when-off contract: ``faults=None``, ``faults=
FaultPlan()`` (all-empty), and an on-disk empty plan file must all take
the seed code path — same model wiring, byte-identical sweep rows,
byte-identical Chrome traces against the PR-3 golden snapshot, and
unchanged cache keys.  The flip side is the cache-poisoning regression:
a *non*-empty plan must never be served a fault-free cached row (nor
vice versa).
"""

from __future__ import annotations

import json

from repro.commmodel.network import MultiNodeModel
from repro.core.experiment import Sweep
from repro.core.workbench import Workbench
from repro.faults import FaultPlan, LinkFault, TransportConfig
from repro.machines.presets import generic_multicomputer, t805_grid
from repro.observe import Tracer
from repro.parallel import ParallelSweepRunner, ResultCache
from repro.parallel.cache import result_key
from repro.tracegen import StochasticAppDescription

from .test_determinism import check_golden
from .test_faults import run_pingpong
from .test_observe import traced_pingpong


def empty_plan() -> FaultPlan:
    """An explicitly-constructed plan that injects nothing."""
    return FaultPlan(name="noop", seed=123,
                     link_faults=[LinkFault(0.0, 0.0)],
                     transport=TransportConfig(max_retries=9))


def lossy_plan() -> FaultPlan:
    # Retransmission is whole-message, so per-packet loss compounds:
    # stochastic messages here span up to ~13 packets, and 0.05 keeps
    # the per-attempt success around 25% — delivered with retries,
    # never (within ~1e-26) exhausting a 200-attempt budget.
    return FaultPlan(seed=3, link_faults=[LinkFault(drop_prob=0.05)],
                     transport=TransportConfig(timeout_cycles=50_000.0,
                                               backoff_factor=1.0,
                                               max_retries=200))


def stochastic_row(machine, faults=None) -> dict:
    """Sweep runner (module level: picklable, accepts ``faults=``)."""
    res = Workbench(machine, faults=faults).run_stochastic(
        StochasticAppDescription(), level="task", rounds=5, seed=42)
    return {"total_cycles": res.total_cycles,
            "mean_latency": res.message_latency.mean,
            "events": res.events_executed}


class TestEmptyPlanIsNoPlan:
    def test_model_builds_no_fault_machinery(self):
        machine = generic_multicomputer("mesh", (2, 2))
        for faults in (None, empty_plan(), FaultPlan()):
            model = MultiNodeModel(machine, faults=faults)
            assert model.fault_plan is None
            assert model.injector is None
            assert model.transport is None

    def test_empty_plan_run_is_bit_identical(self):
        _m1, r1 = run_pingpong(None)
        _m2, r2 = run_pingpong(empty_plan())
        assert r2.fault_summary is None
        assert r1.summary() == r2.summary()

    def test_empty_plan_matches_golden_chrome_trace(self):
        """The PR-3 golden pingpong trace, re-run under an empty plan.

        Byte-identical output proves the fault hooks cost nothing when
        off — not one extra trace record, not one reordered event.
        """
        import repro.apps as apps
        from repro.commmodel.message import reset_message_ids
        reset_message_ids()
        machine = generic_multicomputer("mesh", (2, 2))
        model = MultiNodeModel(machine, faults=empty_plan())
        tracer = Tracer()
        model.sim.observer = tracer
        model.run(list(apps.pingpong_task_traces(
            model.n_nodes, size=256, repeats=2, b=model.n_nodes - 1)))
        check_golden("chrome_trace_pingpong", tracer.to_chrome())

    def test_empty_plan_trace_equals_no_plan_trace(self):
        _m1, tracer1, _r1 = traced_pingpong()
        doc1 = tracer1.to_chrome()
        from repro.commmodel.message import reset_message_ids
        import repro.apps as apps
        reset_message_ids()
        machine = generic_multicomputer("mesh", (2, 2))
        model = MultiNodeModel(machine, faults=FaultPlan())
        tracer2 = Tracer()
        model.sim.observer = tracer2
        model.run(list(apps.pingpong_task_traces(
            model.n_nodes, size=256, repeats=2, b=model.n_nodes - 1)))
        assert json.dumps(doc1, sort_keys=True) == \
            json.dumps(tracer2.to_chrome(), sort_keys=True)

    def test_sweep_rows_identical_with_empty_plan(self):
        sweep = Sweep(t805_grid(2, 2))
        sweep.axis("bw", _set_bandwidth, [1, 2])
        rows_none = sweep.run(stochastic_row)
        rows_empty = sweep.run(stochastic_row, faults=empty_plan())
        assert json.dumps(rows_none, sort_keys=True) == \
            json.dumps(rows_empty, sort_keys=True)

    def test_cache_key_unchanged_for_empty_or_no_plan(self):
        machine = t805_grid(2, 2)
        legacy = result_key(machine, "w", version="v1")
        assert result_key(machine, "w", version="v1", faults=None) == legacy

    def test_scaled_zero_rung_is_the_fault_free_row(self):
        """Regression: a severity ladder's ``scaled(0)`` rung used to
        keep its windows, so the "baseline" rung ran with the injector
        and transport engaged and cached under a diverged key.  Now it
        normalizes to ``None``: same wiring, byte-identical rows, same
        cache key as a plain fault-free run."""
        from repro.faults import DownWindow, as_fault_plan
        base = lossy_plan()
        base.link_down = [DownWindow(0.0, 50_000.0)]   # windows too
        rung = base.scaled(0.0)
        assert as_fault_plan(rung) is None
        machine = generic_multicomputer("mesh", (2, 2))
        model = MultiNodeModel(machine, faults=rung)
        assert model.injector is None and model.transport is None
        sweep = Sweep(t805_grid(2, 2))
        sweep.axis("bw", _set_bandwidth, [1, 2])
        rows_none = sweep.run(stochastic_row)
        rows_rung = sweep.run(stochastic_row, faults=rung)
        assert json.dumps(rows_none, sort_keys=True) == \
            json.dumps(rows_rung, sort_keys=True)
        machine = t805_grid(2, 2)
        assert result_key(machine, "w", version="v1",
                          faults=as_fault_plan(rung)) == \
            result_key(machine, "w", version="v1")


def _set_bandwidth(machine, value):
    machine.network.link_bandwidth = value


class TestCacheKeySeparation:
    def test_plan_digest_extends_the_key(self):
        machine = t805_grid(2, 2)
        base = result_key(machine, "w", version="v1")
        faulty = result_key(machine, "w", version="v1", faults=lossy_plan())
        assert faulty != base
        # Different plan content -> different key; relabelling -> same.
        other = lossy_plan()
        other.link_faults[0].drop_prob = 0.4
        assert result_key(machine, "w", version="v1", faults=other) != faulty
        renamed = lossy_plan()
        renamed.name = "renamed"
        assert result_key(machine, "w", version="v1",
                          faults=renamed) == faulty

    def test_cached_fault_free_row_never_served_for_faulty_run(self, tmp_path):
        """Regression: before the key carried the plan digest, a faulty
        re-run of a cached sweep silently returned fault-free rows."""
        cache = ResultCache(tmp_path)
        machine = t805_grid(2, 2)
        pool = ParallelSweepRunner(workers=1, cache=cache)
        clean = pool.run(stochastic_row, [({}, machine)], workload_id="w")
        assert cache.stats.stores == 1
        faulty = pool.run(stochastic_row, [({}, machine, lossy_plan())],
                          workload_id="w")
        # Second run was a cache MISS and simulated for real...
        assert cache.stats.hits == 0 and cache.stats.stores == 2
        # ...and its row shows the faults the cached row cannot have.
        assert faulty[0]["total_cycles"] > clean[0]["total_cycles"]

    def test_sweep_level_separation(self, tmp_path):
        sweep = Sweep(t805_grid(2, 2))
        sweep.axis("bw", _set_bandwidth, [1, 2])
        cache = ResultCache(tmp_path)
        clean = sweep.run(stochastic_row, cache=cache, workload_id="w")
        faulty = sweep.run(stochastic_row, cache=cache, workload_id="w",
                           faults=lossy_plan())
        assert clean != faulty
        # Re-running each variant hits its own cache entry.
        assert sweep.run(stochastic_row, cache=cache,
                         workload_id="w") == clean
        assert sweep.run(stochastic_row, cache=cache, workload_id="w",
                         faults=lossy_plan()) == faulty

    def test_plan_sequence_becomes_severity_axis(self):
        base = lossy_plan()
        base.name = "lossy"
        sweep = Sweep(t805_grid(2, 2))
        sweep.axis("bw", _set_bandwidth, [1])
        rows = sweep.run(stochastic_row,
                         faults=[base.scaled(0.0), base])
        assert [row["faults"] for row in rows] == ["plan0", "lossy"]
        assert rows[1]["total_cycles"] > rows[0]["total_cycles"]

    def test_plan_sequence_is_one_job_with_one_progress_count(
            self, monkeypatch):
        """Regression: each plan used to be its own sub-run, so progress
        restarted at ``1/N`` per plan (N one plan's points) and every
        point was pre-flighted once per plan."""
        import repro.check
        import repro.parallel
        base = lossy_plan()
        base.name = "lossy"
        sweep = Sweep(t805_grid(2, 2))
        sweep.axis("flit", _set_flit, [8, -4, 16])    # -4 fails preflight
        checked, jobs, seen = [], [], []
        check_machine = repro.check.check_machine
        run = repro.parallel.ParallelSweepRunner.run
        monkeypatch.setattr(repro.check, "check_machine", lambda machine: (
            checked.append(machine.network.flit_bytes),
            check_machine(machine))[1])
        monkeypatch.setattr(
            repro.parallel.ParallelSweepRunner, "run",
            lambda self, runner, points, **kw: (
                jobs.append(len(points)), run(self, runner, points, **kw))[1])
        rows = sweep.run(
            stochastic_row, faults=[None, base],
            progress=lambda done, total, row: seen.append(
                (done, total, row["faults"], row["flit"], "error" in row)))
        assert checked == [8, -4, 16]              # once per point
        assert jobs == [6]                         # one job: 2 plans x 3
        # Pre-flight failures during the scan, then the executed rows;
        # one 1..6 count.
        assert seen == [
            (1, 6, "plan0", -4, True), (2, 6, "lossy", -4, True),
            (3, 6, "plan0", 8, False), (4, 6, "plan0", 16, False),
            (5, 6, "lossy", 8, False), (6, 6, "lossy", 16, False)]
        # Rows stay plan-major, in point order, `faults` leading.
        assert [(r["faults"], r["flit"]) for r in rows] == [
            ("plan0", 8), ("plan0", -4), ("plan0", 16),
            ("lossy", 8), ("lossy", -4), ("lossy", 16)]
        assert all(list(r)[0] == "faults" for r in rows)
        assert rows[1]["error"].startswith("CheckError")
        assert rows[1]["error"] == rows[4]["error"]


def _set_flit(machine, value):
    machine.network.flit_bytes = value
