"""Schedule-space verification: tie-break hook, explorer, certificates.

The seeded fixtures live in ``tests/fixtures/race_model.py`` (module
level, so sharded exploration can pickle them).
"""

from __future__ import annotations

import pytest

from repro.check.diagnostics import Severity
from repro.core.workbench import Workbench
from repro.machines import t805_grid
from repro.parallel.cache import ResultCache, result_key
from repro.pearl import SimulationError, Simulator
from repro.pearl.resource import Resource
from repro.verify import (
    Perturbation,
    RecordingOrder,
    ScheduleExplorer,
    SeedOrder,
    VerifyError,
    flatten_summary,
    run_schedule,
    summary_diff,
)
from tests import reference_kernel
from tests.fixtures.race_model import (
    benign_factory,
    deadlock_factory,
    race_factory,
    wide_race_factory,
)
from tests.test_determinism import check_golden

KERNELS = pytest.mark.parametrize("kernel", reference_kernel.KERNELS)


def _log_model(kernel: str, hook=None) -> list[tuple[str, float]]:
    """Three same-time processes logging (name, now) at each step."""
    sim = reference_kernel.KERNELS[kernel]()
    log: list[tuple[str, float]] = []

    def proc(tag: str):
        log.append((tag, sim.now))
        yield 1.0
        log.append((tag, sim.now))

    for tag in "abc":
        sim.process(proc(tag), name=tag)
    if hook is not None:
        sim.tie_break = hook
    sim.run()
    return log


class _ReverseOrder:
    def select(self, time, candidates):
        return len(candidates) - 1


class _OutOfRange:
    def select(self, time, candidates):
        return len(candidates)


class TestTieBreakHook:
    @KERNELS
    def test_seed_order_reproduces_default_schedule(self, kernel):
        assert _log_model(kernel, SeedOrder()) == _log_model(kernel)

    def test_hooked_schedule_identical_across_kernels(self):
        assert _log_model("seed", SeedOrder()) == \
            _log_model("fast", SeedOrder())

    @KERNELS
    def test_reverse_order_changes_schedule(self, kernel):
        default = _log_model(kernel)
        reversed_ = _log_model(kernel, _ReverseOrder())
        assert sorted(default) == sorted(reversed_)   # same events...
        assert default != reversed_                   # ...different order

    @KERNELS
    def test_out_of_range_selection_raises(self, kernel):
        with pytest.raises(SimulationError, match="tie-break"):
            _log_model(kernel, _OutOfRange())

    @KERNELS
    def test_recording_order_captures_bursts(self, kernel):
        rec = RecordingOrder()
        _log_model(kernel, rec)
        assert rec.bursts, "no same-time choice points recorded"
        time, names = rec.bursts[0]
        assert time == 0.0
        assert sorted(names) == ["a", "b", "c"]


class TestRunSchedule:
    def test_baseline_outcome(self):
        outcome = run_schedule(race_factory)
        assert outcome.error is None and not outcome.deadlock
        assert outcome.summary == {"first": "A"}
        assert outcome.clusters, "sanitizer saw no contention"

    def test_perturbed_outcome_flips_winner(self):
        pert = Perturbation(time=0.0, obj="lock", kind="acquire",
                            order=("B", "A"))
        outcome = run_schedule(race_factory, pert)
        assert outcome.summary == {"first": "B"}


class TestExplorerVerdicts:
    def test_confirmed_race_with_counterexample(self):
        result = ScheduleExplorer(budget=16).explore(race_factory)
        assert not result.ok
        (verdict,) = result.races
        assert verdict.obj == "lock"
        assert verdict.counterexample == [
            {"path": "first", "baseline": "A", "witness": "B"}]
        assert verdict.witness is not None
        assert "lock" in verdict.witness.describe()
        report = result.report("race")
        assert not report.ok
        assert report.errors[0].rule == "KV001"
        assert "first: A -> B" in report.errors[0].message

    def test_benign_cluster_proven(self):
        result = ScheduleExplorer(budget=16).explore(benign_factory)
        assert result.ok
        (verdict,) = result.benign
        assert verdict.explored == verdict.planned
        report = result.report("benign")
        assert report.ok
        assert report.by_rule("KV002")

    def test_reachable_deadlock(self):
        result = ScheduleExplorer(budget=16).explore(deadlock_factory)
        assert not result.ok
        (verdict,) = result.deadlocks
        assert verdict.deadlock == ("releaser", "waiter")
        report = result.report("deadlock")
        assert not report.ok
        assert report.errors[0].rule == "KV003"
        assert "blocked forever" in report.errors[0].message

    def test_baseline_deadlock_is_an_error(self):
        def factory():
            sim = Simulator()
            gate = sim.event("gate")

            def waiter():
                yield gate
            sim.process(waiter(), name="w")

            def run():
                sim.run(check_deadlock=True)
                return {}
            return sim, run

        with pytest.raises(VerifyError, match="already deadlocks"):
            ScheduleExplorer(budget=4).explore(factory)

    def test_budget_truncation_reports_frontier(self):
        def factory():
            sim = Simulator()
            result = {"acquired": 0}
            res = Resource(sim, 1, name="lock")

            def contender():
                yield res.acquire()
                result["acquired"] += 1
                yield 5.0
                res.release()

            for tag in "ABCD":
                sim.process(contender(), name=tag)

            def run():
                sim.run(check_deadlock=True)
                return dict(result)
            return sim, run

        result = ScheduleExplorer(budget=4).explore(factory)
        assert result.ok                      # no race proven either way
        assert result.schedules_explored == 4
        assert result.schedules_planned > result.schedules_explored
        (verdict,) = result.truncated
        assert verdict.explored < verdict.planned
        assert result.frontier
        report = result.report("truncated")
        kv004 = report.by_rule("KV004")
        assert any(d.severity is Severity.WARNING for d in kv004)
        assert any("frontier" in d.message for d in kv004)

    def test_early_verdict_moots_remaining_orderings(self):
        def factory():
            sim = Simulator()
            result: dict[str, str] = {}
            res = Resource(sim, 1, name="lock")

            def contender(tag):
                def proc():
                    yield res.acquire()
                    result.setdefault("first", tag)
                    yield 5.0
                    res.release()
                return proc

            for tag in "ABC":
                sim.process(contender(tag)(), name=tag)

            def run():
                sim.run(check_deadlock=True)
                return dict(result)
            return sim, run

        result = ScheduleExplorer(budget=3).explore(factory)
        assert result.races
        assert result.skipped >= 1            # mooted, not frontier
        assert not result.frontier

    def test_explorer_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="budget"):
            ScheduleExplorer(budget=0)
        with pytest.raises(ValueError, match="mode"):
            ScheduleExplorer(mode="exhaustive")


class TestPartialOrderReduction:
    def test_dpor_plans_and_explores_fewer_than_naive(self):
        dpor = ScheduleExplorer(budget=64).explore(wide_race_factory)
        naive = ScheduleExplorer(budget=64,
                                 mode="naive").explore(wide_race_factory)
        assert not dpor.ok and not naive.ok   # both catch the race
        assert dpor.schedules_planned < naive.schedules_planned
        assert dpor.schedules_explored < naive.schedules_explored

    def test_sharded_exploration_matches_serial(self):
        serial = ScheduleExplorer(budget=32,
                                  mode="naive").explore(wide_race_factory)
        sharded = ScheduleExplorer(budget=32, mode="naive").explore(
            wide_race_factory, workers=2)
        assert sharded.certificate == serial.certificate
        assert [v.verdict for v in sharded.verdicts] == \
            [v.verdict for v in serial.verdicts]


class TestCertificate:
    @KERNELS
    def test_certificate_pinned_across_kernels(self, kernel):
        sim_cls = reference_kernel.KERNELS[kernel]
        explored = []

        def factory():
            sim, run = race_factory(sim_cls)
            explored.append(type(sim))
            return sim, run

        result = ScheduleExplorer(budget=16).explore(factory)
        assert explored and set(explored) == {sim_cls}
        check_golden("verify_race_certificate", {
            "certificate": result.certificate,
            "baseline_fingerprint": result.baseline_fingerprint,
            "schedules_planned": result.schedules_planned,
            "schedules_explored": result.schedules_explored,
        })

    def test_certificate_is_reproducible(self):
        a = ScheduleExplorer(budget=16).explore(benign_factory)
        b = ScheduleExplorer(budget=16).explore(benign_factory)
        assert a.certificate == b.certificate

    def test_certificate_reflects_exploration(self):
        small = ScheduleExplorer(budget=2).explore(wide_race_factory)
        large = ScheduleExplorer(budget=32).explore(wide_race_factory)
        assert small.certificate != large.certificate

    def test_certificate_extends_cache_key(self, tmp_path):
        machine = t805_grid(2, 2)
        plain = result_key(machine, "wl", version="v")
        certified = result_key(machine, "wl", version="v",
                               certificate="abc")
        assert plain != certified
        assert result_key(machine, "wl", version="v",
                          certificate="abc") == certified
        assert result_key(machine, "wl", version="v",
                          certificate="def") != certified
        cache = ResultCache(tmp_path)
        assert cache.key_for(machine, "wl") != \
            cache.key_for(machine, "wl", certificate="abc")


class TestResultHelpers:
    def test_flatten_summary_paths(self):
        flat = flatten_summary({"b": [1, {"c": 2.5}], "a": "x"})
        assert flat == {"a": "x", "b[0]": 1, "b[1].c": 2.5}

    def test_summary_diff_limit(self):
        base = {f"k{i}": i for i in range(12)}
        diffs = summary_diff(base, {}, limit=8)
        assert len(diffs) == 9
        assert diffs[-1]["path"] == "..."
        assert "4 more" in diffs[-1]["baseline"]

    def test_perturbation_roundtrip(self):
        pert = Perturbation(time=3.0, obj="bus", kind="acquire",
                            order=("b", "a"))
        assert pert.to_dict()["order"] == ["b", "a"]
        assert "bus" in pert.describe() and "t=3" in pert.describe()


class TestWorkbenchVerify:
    def test_trace_workload(self):
        from repro.apps import pingpong_task_traces
        wb = Workbench(t805_grid(2, 2))
        result = wb.verify(pingpong_task_traces(wb.n_nodes), budget=8)
        assert result.ok
        assert result.schedules_explored >= 1

    def test_application_workload(self):
        wb = Workbench(t805_grid(2, 2))
        result = wb.verify(application="masterworker", budget=8)
        assert result.ok

    def test_exactly_one_workload_required(self):
        from repro.apps import pingpong_task_traces
        wb = Workbench(t805_grid(2, 2))
        with pytest.raises(ValueError, match="exactly one"):
            wb.verify()
        with pytest.raises(ValueError, match="exactly one"):
            wb.verify(pingpong_task_traces(wb.n_nodes),
                      application="pingpong")
        with pytest.raises(ValueError, match="unknown verify app"):
            wb.verify(application="mandelbrot")
