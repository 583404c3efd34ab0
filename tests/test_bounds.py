"""Static performance-bound analyzer (``repro.bounds``) and PB rules.

The analyzer's contract is that every number it reports is a certified
lower bound computed without ever constructing the simulator.  Both
halves are tested here: a kernel-call spy proves zero simulation, and
the oracle tests prove ``cycle_lower_bound <= total_cycles`` (with
exact ties on contention-free workloads) plus exact static/simulated
link-byte agreement under deterministic routing.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.bounds import (
    AuditResult,
    BoundReport,
    audit_cache,
    compute_bounds,
    cross_check,
    static_diagnostics,
)
from repro.check import Severity, check_bounds
from repro.cli import PRESETS, build_machine, main
from repro.commmodel.network import MultiNodeModel
from repro.commmodel.nic import RecvAnyEvent
from repro.core.workbench import Workbench
from repro.operations.ops import arecv, asend, compute, recv, send
from repro.operations.trace import Trace, TraceSet
from repro.pearl import Simulator
from tests.reference_kernel import KERNELS
from tests.test_store import DAMAGED

APPS = ("pingpong", "alltoall", "pipeline")


def _app_traces(app: str, n_nodes: int) -> TraceSet:
    from repro.apps import (alltoall_task_traces, pingpong_task_traces,
                            pipeline_task_traces)
    return {"pingpong": pingpong_task_traces,
            "alltoall": alltoall_task_traces,
            "pipeline": pipeline_task_traces}[app](n_nodes)


def _overload_traces() -> TraceSet:
    """Three upstream nodes funnel 4 x 8 KiB each through node 0.

    On a 4x1 mesh chain every message crosses link ``1->0``, whose
    serialization demand dwarfs the (fully asynchronous) critical path:
    the canonical statically link-limited workload.
    """
    lists = [
        [arecv(s) for s in (1, 2, 3) for _ in range(4)],
        [asend(8192, 0) for _ in range(4)],
        [asend(8192, 0) for _ in range(4)],
        [asend(8192, 0) for _ in range(4)],
    ]
    return TraceSet([Trace(i, ops) for i, ops in enumerate(lists)])


def _overload_machine():
    return build_machine("generic-mesh", ["network.topology.dims=4,1"])


@pytest.fixture
def no_simulator(monkeypatch):
    """Arm the kernel-call spy: constructing a Simulator is a failure."""
    def boom(self, *args, **kwargs):
        raise AssertionError(
            "Simulator constructed during static bound analysis")
    monkeypatch.setattr(Simulator, "__init__", boom)


class TestZeroSimulation:
    """Static means static: the spy trips on any Simulator.__init__."""

    def test_spy_is_armed(self, no_simulator):
        with pytest.raises(AssertionError, match="static bound"):
            Simulator()

    def test_compute_bounds_every_preset_and_app(self, no_simulator):
        for preset in PRESETS:
            machine = build_machine(preset)
            for app in APPS:
                report = compute_bounds(machine,
                                        _app_traces(app, machine.n_nodes))
                assert report.cycle_lower_bound > 0
                assert report.converged

    def test_bound_cli_never_simulates(self, no_simulator, capsys):
        for app in APPS:
            assert main(["bound", app]) == 0
        assert "critical path" in capsys.readouterr().out

    def test_check_bounds_never_simulates(self, no_simulator):
        machine = build_machine("t805-grid-2x2")
        report = check_bounds(machine, _app_traces("pingpong", 4))
        assert report.ok


class TestBoundOracle:
    """bound <= simulated, with exact ties where contention is absent."""

    @pytest.mark.parametrize("app", APPS)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_bound_below_simulated(self, app, kernel):
        machine = build_machine("t805-grid-2x2")
        traces = _app_traces(app, machine.n_nodes)
        bound = compute_bounds(machine, traces)
        model = MultiNodeModel(machine, sim=KERNELS[kernel]())
        result = model.run(list(traces))
        assert bound.cycle_lower_bound <= result.total_cycles * (1 + 1e-9)
        assert not cross_check(bound, result.total_cycles,
                               gap_threshold=None)

    @pytest.mark.parametrize("app", APPS)
    def test_exact_tie_on_contention_free_grid(self, app):
        """The 2x2 t805 grid leaves these apps contention-free: the
        static bound is not merely below the simulated time, it *is*
        the simulated time."""
        machine = build_machine("t805-grid-2x2")
        traces = _app_traces(app, machine.n_nodes)
        bound = compute_bounds(machine, traces)
        result = MultiNodeModel(machine).run(list(traces))
        assert math.isclose(bound.cycle_lower_bound, result.total_cycles,
                            rel_tol=1e-9)

    def test_bound_below_simulated_all_presets(self):
        for preset in PRESETS:
            machine = build_machine(preset)
            traces = _app_traces("alltoall", machine.n_nodes)
            bound = compute_bounds(machine, traces)
            total = MultiNodeModel(machine).run(list(traces)).total_cycles
            assert bound.cycle_lower_bound <= total * (1 + 1e-9), preset

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_static_link_bytes_match_simulation(self, kernel):
        """Deterministic routing: static per-link wire bytes equal the
        engine's Link.bytes_moved accounting exactly."""
        machine = build_machine("t805-grid-2x2")
        traces = _app_traces("alltoall", machine.n_nodes)
        bound = compute_bounds(machine, traces)
        model = MultiNodeModel(machine, sim=KERNELS[kernel]())
        model.run(list(traces))
        simulated = {key: link.bytes_moved
                     for key, link in model.engine.links.items()
                     if link.bytes_moved}
        static = {(l.src, l.dst): l.bytes for l in bound.link_loads}
        assert static == pytest.approx(simulated)

    def test_report_shape(self):
        machine = build_machine("t805-grid-2x2")
        report = compute_bounds(machine, _app_traces("pingpong", 4),
                                subject="bounds:pingpong:test")
        assert isinstance(report, BoundReport)
        assert report.subject == "bounds:pingpong:test"
        assert report.n_nodes == machine.n_nodes
        assert report.routing_exact and report.converged
        assert report.stalled_nodes == ()
        assert report.critical_path_cycles <= report.cycle_lower_bound
        assert len(report.nodes) == machine.n_nodes
        for node in report.nodes:
            assert node.finish_lower >= node.serial_cycles >= 0
        payload = report.to_dict()
        assert payload["n_links_loaded"] == len(report.link_loads)
        assert json.dumps(payload, sort_keys=True)  # JSON-serializable
        assert "critical path" in report.format()

    def test_message_class_latency_components(self):
        machine = build_machine("t805-grid-2x2")
        report = compute_bounds(machine, _app_traces("pingpong", 4))
        assert report.message_classes
        for cls in report.message_classes:
            assert cls.hops >= 1
            assert math.isclose(
                cls.latency_cycles,
                cls.o_send + cls.transit_cycles + cls.o_recv)
            assert cls.gap_cycles > 0


class TestOverloadFixture:
    """PB002 on the seeded statically link-limited workload."""

    def test_pb002_fires(self):
        report = compute_bounds(_overload_machine(), _overload_traces())
        diags = static_diagnostics(report)
        assert diags, "expected PB002 on the funnel chain"
        assert {d.rule for d in diags} == {"PB002"}
        assert all(d.severity is Severity.ERROR for d in diags)
        assert "link 1->0" in {d.location for d in diags}

    def test_hot_link_ranking(self):
        report = compute_bounds(_overload_machine(), _overload_traces())
        hot = report.hot_links(top=3)
        assert [l.key for l in hot] == ["1->0", "2->1", "3->2"]
        overloaded = report.overloaded_links(report.critical_path_cycles)
        assert {l.key for l in overloaded} >= {"1->0"}
        assert report.cycle_lower_bound >= hot[0].demand_cycles

    def test_simulation_confirms_the_bound(self):
        """The analyzer's promise on its own adversarial fixture: the
        demand-driven bound is still below the simulated time."""
        traces = _overload_traces()
        machine = _overload_machine()
        report = compute_bounds(machine, traces)
        total = MultiNodeModel(machine).run(
            list(traces)).total_cycles
        assert report.cycle_lower_bound <= total * (1 + 1e-9)

    def test_cli_exit_one(self, tmp_path, capsys):
        path = tmp_path / "overload.npz"
        _overload_traces().save(str(path))
        assert main(["bound", str(path), "--preset", "generic-mesh",
                     "--set", "network.topology.dims=4,1"]) == 1
        out = capsys.readouterr().out
        assert "PB002" in out and "1->0" in out


class TestAdaptiveRouting:
    """random_minimal makes link loads expectations: severities degrade."""

    @pytest.fixture
    def adaptive_report(self):
        machine = build_machine(
            "generic-mesh", ["network.topology.dims=4,1",
                             "network.switching=store_and_forward",
                             "network.routing=random_minimal"])
        return compute_bounds(machine, _overload_traces())

    def test_routing_not_exact(self, adaptive_report):
        assert adaptive_report.routing_exact is False
        assert "expected" in adaptive_report.format()

    def test_pb002_degrades_to_warning(self, adaptive_report):
        diags = static_diagnostics(adaptive_report)
        assert diags
        assert all(d.severity is Severity.WARNING for d in diags)

    def test_pb001_degrades_to_warning(self, adaptive_report):
        diags = cross_check(adaptive_report,
                            adaptive_report.cycle_lower_bound * 0.5)
        assert [d.rule for d in diags] == ["PB001"]
        assert diags[0].severity is Severity.WARNING

    def test_bound_still_below_simulated(self):
        machine = build_machine(
            "t805-grid-2x2", ["network.routing=random_minimal"])
        traces = _app_traces("alltoall", machine.n_nodes)
        bound = compute_bounds(machine, traces)
        total = MultiNodeModel(machine).run(list(traces)).total_cycles
        assert bound.cycle_lower_bound <= total * (1 + 1e-9)


class TestCrossCheck:
    @pytest.fixture
    def report(self):
        return compute_bounds(build_machine("t805-grid-2x2"),
                              _app_traces("pingpong", 4))

    def test_below_bound_is_pb001_error(self, report):
        diags = cross_check(report, report.cycle_lower_bound * 0.5)
        assert [d.rule for d in diags] == ["PB001"]
        assert diags[0].severity is Severity.ERROR

    def test_exact_tie_is_clean(self, report):
        assert cross_check(report, report.cycle_lower_bound) == []

    def test_tiny_float_slack_tolerated(self, report):
        almost = report.cycle_lower_bound * (1 - 1e-12)
        assert cross_check(report, almost) == []

    def test_large_gap_is_pb003_note(self, report):
        diags = cross_check(report, report.cycle_lower_bound * 20,
                            gap_threshold=10.0)
        assert [d.rule for d in diags] == ["PB003"]
        assert diags[0].severity is Severity.NOTE

    def test_gap_threshold_none_disables_pb003(self, report):
        assert cross_check(report, report.cycle_lower_bound * 1000,
                           gap_threshold=None) == []


class TestStalledWorkload:
    def test_unmatched_recv_reports_partial_bound(self):
        machine = build_machine("t805-grid-2x2")
        lists = [[compute(100.0), recv(1)], [compute(50.0)], [], []]
        traces = TraceSet([Trace(i, ops) for i, ops in enumerate(lists)])
        report = compute_bounds(machine, traces)
        assert report.converged is False
        assert 0 in report.stalled_nodes
        # The partial bound still covers the work that does complete.
        assert report.critical_path_cycles >= 100.0
        # Non-convergence degrades PB001 to a warning.
        diags = cross_check(report, report.cycle_lower_bound * 0.5)
        assert diags and diags[0].severity is Severity.WARNING

    def test_recv_any_is_tolerated_conservatively(self):
        machine = build_machine("t805-grid-2x2")
        lists = [[RecvAnyEvent([1, 2]), RecvAnyEvent([1, 2])],
                 [compute(500.0), send(64, 0)],
                 [send(64, 0)],
                 []]
        traces = [list(ops) for ops in lists]
        report = compute_bounds(machine, traces)
        assert report.converged
        total = MultiNodeModel(machine).run(
            [list(ops) for ops in lists]).total_cycles
        assert report.cycle_lower_bound <= total * (1 + 1e-9)


class TestWorkbenchFacade:
    def test_bound_by_application(self):
        wb = Workbench(build_machine("t805-grid-2x2"))
        report = wb.bound(application="pingpong")
        assert isinstance(report, BoundReport)
        assert report.subject == "bounds:pingpong:t805-grid-2x2"

    def test_bound_by_traces(self):
        wb = Workbench(build_machine("t805-grid-2x2"))
        report = wb.bound(_app_traces("alltoall", wb.n_nodes))
        assert report.cycle_lower_bound > 0

    def test_exactly_one_input_required(self):
        wb = Workbench(build_machine("t805-grid-2x2"))
        with pytest.raises(ValueError, match="exactly one"):
            wb.bound()
        with pytest.raises(ValueError, match="exactly one"):
            wb.bound(_app_traces("pingpong", 4), application="pingpong")

    def test_unknown_application(self):
        wb = Workbench(build_machine("t805-grid-2x2"))
        with pytest.raises(ValueError, match="unknown application"):
            wb.bound(application="mandelbrot")


class TestCheckBoundsFacade:
    def test_clean_workload(self):
        machine = build_machine("t805-grid-2x2")
        report = check_bounds(machine, _app_traces("pingpong", 4))
        assert report.ok and not report.diagnostics
        assert report.subject == "bounds:t805-grid-2x2"

    def test_overload_fails(self):
        report = check_bounds(_overload_machine(), _overload_traces())
        assert not report.ok
        assert {d.rule for d in report.errors} == {"PB002"}

    def test_broken_traces_suppress_bound_analysis(self):
        """A ghost-peer trace set fails check_traces; the bound pass
        must stay silent rather than analyze meaningless geometry —
        and must not duplicate the TR findings (those belong to
        check_traces)."""
        machine = build_machine("t805-grid-2x2")
        lists = [[asend(64, 99)], [], [], []]
        traces = TraceSet([Trace(i, ops) for i, ops in enumerate(lists)])
        report = check_bounds(machine, traces)
        assert len(report.diagnostics) == 0


def _warm_cache(tmp_path) -> str:
    cache_dir = str(tmp_path / "cache")
    assert main(["sweep", "t805-grid-2x2", "--rounds", "2",
                 "--axis", "network.link_bandwidth=2,4",
                 "--cache-dir", cache_dir]) == 0
    return cache_dir


def _cache_entries(cache_dir):
    from pathlib import Path
    return sorted(Path(cache_dir).glob("*/*.json"))


class TestCacheAudit:
    def test_clean_audit(self, tmp_path, capsys):
        cache_dir = _warm_cache(tmp_path)
        result = audit_cache(cache_dir)
        assert isinstance(result, AuditResult)
        assert result.n_checked == 2 and result.n_skipped == 0
        assert result.ok
        assert "2 checked" in result.format()

    def test_worker_count_does_not_change_output(self, tmp_path, capsys):
        cache_dir = _warm_cache(tmp_path)
        one = json.dumps(audit_cache(cache_dir, workers=1).to_dict(),
                         sort_keys=True)
        three = json.dumps(audit_cache(cache_dir, workers=3).to_dict(),
                           sort_keys=True)
        assert one == three

    def test_doctored_row_trips_pb001(self, tmp_path, capsys):
        cache_dir = _warm_cache(tmp_path)
        entry_path = _cache_entries(cache_dir)[0]
        entry = json.loads(entry_path.read_text())
        entry["metrics"]["total_cycles"] = 1.0
        entry_path.write_text(json.dumps(entry))
        result = audit_cache(cache_dir)
        assert not result.ok
        rules = [d.rule for d in result.diagnostics]
        assert "PB001" in rules
        capsys.readouterr()
        assert main(["bound", "--audit", cache_dir]) == 1
        assert "PB001" in capsys.readouterr().out

    def test_fault_metric_rows_skipped(self, tmp_path, capsys):
        cache_dir = _warm_cache(tmp_path)
        entry_path = _cache_entries(cache_dir)[0]
        entry = json.loads(entry_path.read_text())
        entry["metrics"]["dropped"] = 3
        entry_path.write_text(json.dumps(entry))
        result = audit_cache(cache_dir)
        assert result.n_checked == 1 and result.n_skipped == 1
        (skip,) = [r for r in result.rows if r["status"] == "skipped"]
        assert "fault" in skip["reason"]

    def test_rows_without_machine_config_skipped(self, tmp_path, capsys):
        cache_dir = _warm_cache(tmp_path)
        entry_path = _cache_entries(cache_dir)[0]
        entry = json.loads(entry_path.read_text())
        del entry["machine_config"]
        entry_path.write_text(json.dumps(entry))
        result = audit_cache(cache_dir)
        assert result.n_skipped == 1
        (skip,) = [r for r in result.rows if r["status"] == "skipped"]
        assert "machine_config" in skip["reason"]

    def test_foreign_workload_ids_skipped(self, tmp_path, capsys):
        cache_dir = _warm_cache(tmp_path)
        entry_path = _cache_entries(cache_dir)[0]
        entry = json.loads(entry_path.read_text())
        entry["workload_id"] = "my-bespoke-benchmark"
        entry_path.write_text(json.dumps(entry))
        result = audit_cache(cache_dir)
        assert result.n_skipped == 1
        (skip,) = [r for r in result.rows if r["status"] == "skipped"]
        assert "not reconstructible" in skip["reason"]

    def test_unreadable_entries_skipped(self, tmp_path, capsys):
        cache_dir = _warm_cache(tmp_path)
        entry_path = _cache_entries(cache_dir)[0]
        entry_path.write_text("{not json")
        # Every entry the store reads as a miss, each under its own key.
        for n, damage in enumerate(DAMAGED.values()):
            path = entry_path.parent.parent / "ee" / f"ee{n:062d}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_bytes(damage)
        result = audit_cache(cache_dir)
        assert result.n_checked == 1
        assert result.n_skipped == 1 + len(DAMAGED)
        assert all("unreadable" in r["reason"] for r in result.rows
                   if r["status"] == "skipped")

    def test_skips_recorded_in_json_schema(self, tmp_path, capsys):
        cache_dir = _warm_cache(tmp_path)
        entry_path = _cache_entries(cache_dir)[0]
        entry = json.loads(entry_path.read_text())
        entry["metrics"]["dropped"] = 1
        entry_path.write_text(json.dumps(entry))
        payload = audit_cache(cache_dir).to_dict()
        assert payload["ok"] is True
        assert payload["audit"]["rows"] == 2
        assert payload["audit"]["checked"] == 1
        assert payload["audit"]["skipped"] == 1
        (skip,) = payload["audit"]["skips"]
        assert skip["key"] and skip["reason"]

    def test_missing_cache_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            audit_cache(str(tmp_path / "nowhere"))
