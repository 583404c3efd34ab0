"""The ``repro check`` static analyzer.

Covers the diagnostic vocabulary, the pass manager, all four analyzer
families (trace / machine / description / determinism-sanitizer), the
three integration layers (CLI, the sweep job's pre-flight, lint-clean
bundled artifacts), the golden broken-trio snapshot, and the hypothesis
property that the static deadlock verdict agrees with the synchronous
communication model.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (ResultCache, Sweep, Workbench, generic_multicomputer,
                   t805_grid)
from repro.check import (
    CheckContext,
    CheckError,
    Diagnostic,
    DeterminismSanitizer,
    PassManager,
    RULES,
    Report,
    Severity,
    check_description,
    check_machine,
    check_traces,
    ensure_ok,
)
from repro.check.machine_passes import RoutingValidityPass
from repro.cli import PRESETS, main
from repro.operations import (
    OpCode,
    Operation,
    TraceSet,
    arecv,
    asend,
    recv,
    send,
)
from repro.pearl import DeadlockError, Resource
from repro.pearl.channel import Channel
from repro.tracegen import WORKLOAD_CLASSES, StochasticAppDescription
from repro.tracegen.descriptions import InstructionMix

GOLDEN_DIR = Path(__file__).parent / "golden"


def check_golden(name: str, value) -> None:
    path = GOLDEN_DIR / f"{name}.json"
    if os.environ.get("REPRO_REGEN_GOLDEN") or not path.exists():
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(value, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"golden snapshot {name} (re)generated")
    golden = json.loads(path.read_text())
    assert value == golden, (
        f"{name}: diagnostics diverged from the golden snapshot; if the "
        f"analyzer's rules changed on purpose, regenerate with "
        f"REPRO_REGEN_GOLDEN=1")


def cyclic_traces(n: int = 3) -> TraceSet:
    """Every node receives from its left neighbour *before* sending
    right: counts match perfectly, order deadlocks."""
    return TraceSet.from_lists([
        [recv((i - 1) % n), send(64, (i + 1) % n)] for i in range(n)
    ])


# ---------------------------------------------------------------------------
# Diagnostics vocabulary
# ---------------------------------------------------------------------------

class TestDiagnostics:
    def test_severity_ordering(self):
        assert Severity.NOTE < Severity.WARNING < Severity.ERROR
        assert str(Severity.ERROR) == "error"

    def test_format_includes_rule_subject_location_hint(self):
        d = Diagnostic(rule="TR005", severity=Severity.ERROR, message="boom",
                       subject="ts", location="node 1", hint="fix it")
        text = d.format()
        assert "error: TR005" in text
        assert "[ts]" in text and "(node 1)" in text and "fix it" in text

    def test_report_ok_only_fails_on_errors(self):
        r = Report(subject="x")
        r.add(Diagnostic(rule="MC004", severity=Severity.WARNING, message="w"))
        assert r.ok and len(r.warnings) == 1
        r.add(Diagnostic(rule="MC001", severity=Severity.ERROR, message="e"))
        assert not r.ok and len(r.errors) == 1

    def test_report_json_round_trips(self):
        r = Report(subject="x", diagnostics=[
            Diagnostic(rule="TR004", severity=Severity.ERROR, message="m")])
        data = json.loads(r.to_json())
        assert data["ok"] is False
        assert data["diagnostics"][0]["rule"] == "TR004"

    def test_by_rule_prefix(self):
        r = Report(diagnostics=[
            Diagnostic(rule="TR001", severity=Severity.ERROR, message="a"),
            Diagnostic(rule="MC002", severity=Severity.ERROR, message="b")])
        assert [d.rule for d in r.by_rule("TR")] == ["TR001"]

    def test_every_emittable_rule_is_documented(self):
        from repro.check import (DESCRIPTION_PASSES, LINT_PASSES,
                                 MACHINE_PASSES, TRACE_PASSES)
        for p in (*TRACE_PASSES, *MACHINE_PASSES, *DESCRIPTION_PASSES,
                  *LINT_PASSES):
            for rule in p.rules:
                assert rule in RULES, f"{p.name} emits undocumented {rule}"

    def test_ensure_ok_raises_check_error(self):
        bad = Report(diagnostics=[
            Diagnostic(rule="MC001", severity=Severity.ERROR, message="m")])
        with pytest.raises(CheckError) as err:
            ensure_ok(bad)
        assert err.value.report is bad
        assert "MC001" in str(err.value)


class TestPassManager:
    def test_gating_pass_stops_pipeline(self):
        ran = []

        class Gate:
            name, rules, gating = "gate", ("TR001",), True

            def run(self, ctx):
                ran.append("gate")
                return [ctx.diag("TR001", Severity.ERROR, "stop")]

        class Later:
            name, rules, gating = "later", ("TR004",), False

            def run(self, ctx):
                ran.append("later")
                return []

        report = PassManager([Gate(), Later()]).run(CheckContext(subject="s"))
        assert ran == ["gate"]
        assert not report.ok

    def test_non_gating_errors_continue(self):
        class Soft:
            name, rules, gating = "soft", ("TR004",), False

            def run(self, ctx):
                return [ctx.diag("TR004", Severity.ERROR, "e")]

        class After:
            name, rules, gating = "after", ("TR005",), False

            def run(self, ctx):
                assert ctx.has_error("TR004")
                return []

        report = PassManager([Soft(), After()]).run(CheckContext())
        assert len(report.errors) == 1


# ---------------------------------------------------------------------------
# Trace passes
# ---------------------------------------------------------------------------

class TestTracePasses:
    def test_structural_errors(self):
        ts = TraceSet.from_lists([
            # Factories reject bad values eagerly, so build raw Operations
            # the way a buggy translator or corrupted trace file would.
            [Operation(OpCode.SEND, 0, 1, -1.0), send(64, 0), recv(9)],
            [Operation(OpCode.COMPUTE, 0, 0, -5.0)],
        ])
        report = check_traces(ts)
        rules = sorted(d.rule for d in report.errors)
        assert rules == ["TR001", "TR001", "TR002", "TR003"]

    def test_matched_counts(self):
        ts = TraceSet.from_lists([[send(64, 1)], []])
        report = check_traces(ts)
        assert [d.rule for d in report.errors] == ["TR004"]
        assert "unmatched communication 0->1" in report.errors[0].message

    def test_cyclic_sync_deadlock_tr005(self):
        report = check_traces(cyclic_traces(3))
        assert [d.rule for d in report.errors] == ["TR005"]
        msg = report.errors[0].message
        assert "cyclic wait" in msg and "node 0" in msg

    def test_deadlock_free_order_passes(self):
        n = 3
        ts = TraceSet.from_lists([
            [send(64, (i + 1) % n), recv((i - 1) % n)] for i in range(n)
        ])
        assert check_traces(ts).ok

    def test_transitively_blocked_tr006(self):
        # nodes 0/1 deadlock pairwise; node 2 waits behind node 1.
        ts = TraceSet.from_lists([
            [recv(1), send(64, 1)],
            [recv(0), send(64, 0), send(64, 2)],
            [recv(1)],
        ])
        report = check_traces(ts)
        rules = sorted(d.rule for d in report.errors)
        assert rules == ["TR005", "TR006"]
        tr006 = report.by_rule("TR006")[0]
        assert "transitively blocked" in tr006.message

    def test_arecv_prepost_demotes_to_warning(self):
        ts = TraceSet.from_lists([
            [arecv(1), recv(1), send(8, 1)],
            [send(8, 0), recv(0), send(8, 0)],
        ])
        report = check_traces(ts)
        assert report.ok                      # warnings only
        assert report.warnings, "stall under pre-posting should warn"
        assert {d.rule for d in report.warnings} <= {"TR005", "TR006"}

    def test_async_pairs_never_deadlock(self):
        ts = TraceSet.from_lists([
            [asend(64, 1), arecv(1)],
            [arecv(0), asend(32, 0)],
        ])
        assert check_traces(ts).ok

    def test_ghost_peer_gates_deadlock_pass(self):
        ts = TraceSet.from_lists([[recv(7)]])
        report = check_traces(ts)
        assert {d.rule for d in report.errors} == {"TR003"}


# ---------------------------------------------------------------------------
# Machine passes
# ---------------------------------------------------------------------------

class TestMachinePasses:
    def test_contract_violation_mc001(self):
        m = t805_grid(2, 2)
        m.network.flit_bytes = -8
        report = check_machine(m)
        assert [d.rule for d in report.errors] == ["MC001"]

    def test_contract_gates_later_passes(self):
        m = t805_grid(2, 2)
        m.network.topology.kind = "no-such-topology"
        report = check_machine(m)
        assert {d.rule for d in report.errors} == {"MC001"}

    def test_routing_validity_flags_broken_paths(self, monkeypatch):
        import repro.commmodel.routing as routing_mod

        class BrokenRouting:
            def path(self, src, dst):
                return [src, src]             # never reaches dst

        monkeypatch.setattr(routing_mod, "make_routing",
                            lambda kind, topo, seed=0: BrokenRouting())
        report = Report()
        ctx = CheckContext(machine=t805_grid(2, 2))
        report.extend(RoutingValidityPass().run(ctx))
        assert report.by_rule("MC003")
        assert "does not" in report.by_rule("MC003")[0].message

    def test_path_problem_detects_each_defect(self):
        from repro.topology import build_topology
        from repro.core.config import TopologyConfig
        topo = build_topology(TopologyConfig(kind="ring", dims=(4,)))
        problem = RoutingValidityPass._path_problem
        assert problem(topo, 0, 2, [1, 2]) == "does not start at source 0"
        assert problem(topo, 0, 2, [0, 1]) == "does not end at destination 2"
        assert "revisits" in problem(topo, 0, 2, [0, 1, 0, 1, 2])
        assert "nonexistent link" in problem(topo, 0, 2, [0, 2])
        assert problem(topo, 0, 2, [0, 1, 2]) == ""

    def test_parameter_consistency_mc004_warns(self):
        m = t805_grid(2, 2)
        m.network.flit_bytes = m.network.packet_bytes * 4
        report = check_machine(m)
        assert report.ok                      # warnings never fail
        assert report.by_rule("MC004")

    def test_routing_clean_on_every_preset(self):
        for name, factory in PRESETS.items():
            report = check_machine(factory())
            assert report.ok, f"{name}: {report.format()}"


# ---------------------------------------------------------------------------
# Description passes
# ---------------------------------------------------------------------------

class TestDescriptionPasses:
    def test_contract_violation_ad001(self):
        desc = StochasticAppDescription(loopback_prob=1.5)
        report = check_description(desc)
        assert [d.rule for d in report.errors] == ["AD001"]

    def test_negative_mix_weight_ad002(self):
        desc = StochasticAppDescription(mix=InstructionMix(load=-0.1))
        report = check_description(desc)
        assert [d.rule for d in report.errors] == ["AD002"]

    def test_branch_mass_ad003(self):
        desc = StochasticAppDescription(loopback_prob=0.8, far_jump_prob=0.4)
        report = check_description(desc)
        assert [d.rule for d in report.errors] == ["AD003"]

    def test_unreachable_blocks_ad004(self):
        desc = StochasticAppDescription(loopback_prob=1.0, far_jump_prob=0.0)
        report = check_description(desc)
        assert report.ok
        assert report.by_rule("AD004")

    def test_node_count_ad005(self):
        desc = StochasticAppDescription()
        single = check_description(desc, n_nodes=1)
        assert single.ok and single.by_rule("AD005")
        odd = check_description(desc, n_nodes=5)
        assert odd.by_rule("AD005")[0].severity is Severity.NOTE
        assert not check_description(desc, n_nodes=4).by_rule("AD005")


# ---------------------------------------------------------------------------
# Determinism sanitizer
# ---------------------------------------------------------------------------

class TestSanitizer:
    def test_same_time_resource_contention_kd001(self, sim):
        res = Resource(sim, capacity=1, name="bus")
        san = DeterminismSanitizer()
        sim.observer = san

        def worker():
            yield res.acquire()
            yield 5.0
            res.release()

        sim.process(worker())
        sim.process(worker())
        sim.run()
        report = san.report()
        assert report.ok                      # warnings only
        kd = report.by_rule("KD001")
        assert kd and "bus" in kd[0].message

    def test_staggered_requests_are_clean(self, sim):
        res = Resource(sim, capacity=1, name="bus")
        san = DeterminismSanitizer()
        sim.observer = san

        def worker(delay):
            yield delay
            yield res.acquire()
            yield 1.0
            res.release()

        sim.process(worker(0.0))
        sim.process(worker(10.0))
        sim.run()
        assert not san.report().diagnostics

    def test_same_time_channel_sends_kd002(self, sim):
        chan = Channel(sim, capacity=None, name="pipe")
        san = DeterminismSanitizer()
        sim.observer = san

        def sender(value):
            yield chan.send(value)

        sim.process(sender(1))
        sim.process(sender(2))
        sim.run()
        kd = san.report().by_rule("KD002")
        assert kd and "pipe" in kd[0].message

    def test_finding_cap_counts_suppressed(self, sim):
        res = Resource(sim, capacity=1, name="r")
        san = DeterminismSanitizer(max_findings=1)
        sim.observer = san

        def clash():
            yield res.acquire()
            yield 1.0
            res.release()

        for t in (0.0, 10.0):
            def burst(start=t):
                yield start
                yield from clash()
            sim.process(burst())
            sim.process(burst())
        sim.run()
        san.finish()
        assert len(san.diagnostics) == 1 and san.suppressed == 1

    def test_detached_simulation_unaffected(self, sim):
        res = Resource(sim, capacity=1, name="r")

        def worker():
            yield res.acquire()
            yield 1.0
            res.release()

        sim.process(worker())
        sim.process(worker())
        sim.run()                             # no sanitizer: no crash
        assert res.acquisitions == 2

    def test_findings_name_time_and_processes(self, sim):
        res = Resource(sim, capacity=1, name="bus")
        san = DeterminismSanitizer()
        sim.observer = san

        def worker():
            yield 3.0
            yield res.acquire()
            yield 5.0
            res.release()

        sim.process(worker(), name="alice")
        sim.process(worker(), name="bob")
        sim.run()
        (kd,) = san.report().by_rule("KD001")
        assert "t=3" in kd.message
        assert "alice" in kd.message and "bob" in kd.message

    def test_repeated_clusters_deduplicated(self, sim):
        res = Resource(sim, capacity=1, name="bus")
        san = DeterminismSanitizer()
        sim.observer = san

        def worker():
            for _ in range(4):                # same (obj, procs) clash
                yield 10.0                    # at t=10, 20, 30, 40
                yield res.acquire()
                res.release()

        sim.process(worker(), name="alice")
        sim.process(worker(), name="bob")
        sim.run()
        report = san.report()
        kd = report.by_rule("KD001")
        warnings = [d for d in kd if d.severity is Severity.WARNING]
        notes = [d for d in kd if d.severity is Severity.NOTE]
        assert len(warnings) == 1              # emitted once, not 4x
        assert san.deduplicated == 3
        assert any("deduplicated" in d.message for d in notes)
        assert any("x4" in d.message for d in notes)

    def test_clusters_accessor_for_verify_handoff(self, sim):
        res = Resource(sim, capacity=1, name="bus")
        san = DeterminismSanitizer()
        sim.observer = san

        def worker():
            yield res.acquire()
            yield 5.0
            res.release()

        sim.process(worker(), name="alice")
        sim.process(worker(), name="bob")
        sim.run()
        clusters = san.clusters()
        assert clusters
        cluster = clusters[0]
        assert cluster.rule == "KD001"
        assert cluster.obj == "bus"
        assert cluster.time == 0.0
        assert set(cluster.procs) == {"alice", "bob"}


# ---------------------------------------------------------------------------
# Runtime deadlock diagnostics (RT001)
# ---------------------------------------------------------------------------

class TestRuntimeDeadlock:
    def test_deadlock_error_names_blocked_receives(self):
        wb = Workbench(generic_multicomputer("full", (2,)))
        ts = TraceSet.from_lists([[recv(1)], [recv(0)]])
        with pytest.raises(DeadlockError) as err:
            wb.run_comm_only(ts)
        diags = err.value.diagnostics
        assert diags and all(d.rule == "RT001" for d in diags)
        text = " ".join(d.message for d in diags)
        assert "node0" in text and "receive posted" in text
        assert "node0" in str(err.value)      # detail reaches the message


# ---------------------------------------------------------------------------
# Golden snapshot: a deliberately broken trace / config / description trio
# ---------------------------------------------------------------------------

class TestGoldenDiagnostics:
    def test_broken_trio_snapshot(self):
        trace_report = check_traces(cyclic_traces(3), subject="broken-trace")
        machine = t805_grid(2, 2)
        machine.network.flit_bytes = -8
        machine_report = check_machine(machine, subject="broken-machine")
        desc = StochasticAppDescription(
            name="broken", mix=InstructionMix(load=-0.1),
            loopback_prob=0.9, far_jump_prob=0.2)
        desc_report = check_description(desc, n_nodes=1,
                                        subject="broken-description")
        check_golden("check_diagnostics", {
            "trace": trace_report.to_dict(),
            "machine": machine_report.to_dict(),
            "description": desc_report.to_dict(),
        })


# ---------------------------------------------------------------------------
# Sweep pre-flight integration
# ---------------------------------------------------------------------------

def _set_flit(machine, value):
    machine.network.flit_bytes = value


def _flit_runner(machine):
    return {"flit": machine.network.flit_bytes}


class TestSweepPreflight:
    def test_invalid_variant_becomes_error_row(self):
        sweep = Sweep(t805_grid(2, 2)).axis("flit", _set_flit, [8, -4, 16])
        rows = sweep.run(_flit_runner)
        assert rows[0] == {"flit": 8}
        assert rows[2] == {"flit": 16}
        assert rows[1]["flit"] == -4
        assert rows[1]["error"].startswith("CheckError: MC001")

    def test_on_error_raise_aborts(self):
        from repro.parallel import SweepVariantError
        sweep = Sweep(t805_grid(2, 2)).axis("flit", _set_flit, [-4])
        with pytest.raises(SweepVariantError, match="CheckError"):
            sweep.run(_flit_runner, on_error="raise")

    def test_preflight_false_restores_old_behaviour(self):
        """There is no ``preflight=`` knob any more; what is left of the
        old behaviour is that a bare ``points()`` validates eagerly."""
        from repro.core.config import ConfigError
        sweep = Sweep(t805_grid(2, 2)).axis("flit", _set_flit, [-4])
        with pytest.raises(ConfigError):
            sweep.points()                    # default points() still strict
        with pytest.raises(TypeError):
            sweep.run(_flit_runner, preflight=False)

    def test_workbench_check_facade(self):
        wb = Workbench(t805_grid(2, 2))
        report = wb.check(description=StochasticAppDescription())
        assert report.ok


class TestLookUpFirstPreflightOnlyTheMisses:
    """Pre-flight is a stage of the job body: a point is looked up in
    the cache first and only a miss is analyzed.  A row is only stored
    for a machine that passed, under a key hashing the ``repro``
    sources, so a hit needs no second verdict.  A point that fails was
    looked up and not found: one ``miss``, no ``store``, and under
    ``timing=True`` a ``wall_time_s`` of ``0.0``, like a hit."""

    @pytest.fixture
    def checked(self, monkeypatch):
        import repro.check
        checked = []
        monkeypatch.setattr(repro.check, "check_machine", lambda machine: (
            checked.append(machine.network.flit_bytes),
            check_machine(machine))[1])
        return checked

    @staticmethod
    def flit_sweep(values):
        return Sweep(t805_grid(2, 2)).axis("flit", _set_flit, values)

    def test_cold_checks_every_point_warm_checks_none(self, checked,
                                                      tmp_path):
        cache = ResultCache(tmp_path)
        cold = self.flit_sweep([8, 16, 32]).run(_flit_runner, cache=cache)
        assert checked == [8, 16, 32]
        del checked[:]
        warm = self.flit_sweep([8, 16, 32]).run(_flit_runner, cache=cache)
        assert checked == []
        assert warm == cold

    def test_warm_run_with_one_new_sick_point(self, checked, tmp_path):
        cache = ResultCache(tmp_path)
        self.flit_sweep([8, 16]).run(_flit_runner, cache=cache)
        del checked[:]
        cache.stats.hits = cache.stats.misses = cache.stats.stores = 0
        seen = []
        rows = self.flit_sweep([8, -4, 16]).run(
            _flit_runner, cache=cache, timing=True,
            progress=lambda done, total, row: seen.append(
                (done, total, row["flit"], "error" in row)))
        assert checked == [-4]
        # Hits and the failure in point order, during the scan; nothing
        # was left to execute.
        assert seen == [(1, 3, 8, False), (2, 3, -4, True),
                        (3, 3, 16, False)]
        assert rows[1]["error"].startswith("CheckError: MC001")
        assert [row["wall_time_s"] for row in rows] == [0.0, 0.0, 0.0]
        assert (cache.stats.hits, cache.stats.misses,
                cache.stats.stores) == (2, 1, 0)


def _noop_runner(machine):
    return {}


def _set_topology(machine, topology):
    machine.network.topology = topology
    machine.name += f"/{topology.kind}{topology.dims}"


def _set_bandwidth(machine, bandwidth):
    machine.network.link_bandwidth = bandwidth
    machine.name += f"/bw{bandwidth:g}"


class NowhereRouting:
    def path(self, src, dst):
        return [src, src]                     # never reaches dst


class TestOneRouteWalkPerInterconnect:
    """A sweep's pre-flight runs in one ``routing_memo``: each
    ``(topology, routing)`` pair's routes are walked once, and every
    point still gets the report unmemoised ``check_machine`` gives it."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Routings built, by kind; a ring's routes lead nowhere."""
        import repro.commmodel.routing as routing_mod
        built, make = [], routing_mod.make_routing

        def spy(kind, topo, seed=0):
            built.append(kind)
            return NowhereRouting() if topo.kind == "ring" \
                else make(kind, topo, seed)
        monkeypatch.setattr(routing_mod, "make_routing", spy)
        return built

    def test_a_bandwidth_by_switching_sweep_builds_one_routing(self, built):
        from repro.cli import _AxisSetter
        sweep = Sweep(generic_multicomputer("mesh", (4, 4)))
        for path, values in (
                ("network.link_bandwidth", [1, 2, 3, 4, 5, 6, 7, 8]),
                ("network.switching", ["store_and_forward", "wormhole"])):
            sweep.axis(path, _AxisSetter(path), values)
        rows = sweep.run(_noop_runner)
        assert len(rows) == 16 and not any("error" in row for row in rows)
        assert built == ["dimension_order"]

    def test_every_point_gets_its_unmemoised_report(self, built,
                                                    monkeypatch):
        import repro.check
        from repro.core.config import TopologyConfig
        checked = []

        def spy(machine):
            report = check_machine(machine)
            checked.append((machine, report))
            return report
        monkeypatch.setattr(repro.check, "check_machine", spy)
        topologies = [TopologyConfig("mesh", (2, 2)),
                      TopologyConfig("ring", (4,)),
                      TopologyConfig("mesh", (2, 0))]
        sweep = Sweep(t805_grid(2, 2)).axis("topo", _set_topology,
                                            topologies)
        sweep.axis("bw", _set_bandwidth, [2e6, 4e6])
        rows = sweep.run(_noop_runner)
        assert built == ["dimension_order", "dimension_order"]
        assert len({report.subject for _, report in checked}) == 6
        for row, (machine, report) in zip(rows, checked):
            alone = check_machine(machine)
            assert report.to_dict() == alone.to_dict()
            assert row.get("error") == (
                None if alone.ok
                else f"CheckError: {alone.summary_message()}")
        assert [row.get("error", "")[:17] for row in rows] == [
            "", "", "CheckError: MC003", "CheckError: MC003",
            "CheckError: MC001", "CheckError: MC001"]


# ---------------------------------------------------------------------------
# Bundled artifacts are lint-clean
# ---------------------------------------------------------------------------

class TestBundledArtifactsClean:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_presets_clean(self, preset, assert_lint_clean):
        assert_lint_clean(machine=PRESETS[preset]())

    @pytest.mark.parametrize("workload", [None, *sorted(WORKLOAD_CLASSES)])
    def test_descriptions_and_generated_traces_clean(self, workload,
                                                     assert_lint_clean):
        from repro.tracegen import StochasticGenerator
        desc = (WORKLOAD_CLASSES[workload]() if workload
                else StochasticAppDescription())
        assert_lint_clean(description=desc, n_nodes=4)
        gen = StochasticGenerator(desc, 4, seed=0)
        assert_lint_clean(traces=gen.generate_task_level(5), n_nodes=4)

    def test_app_task_traces_clean(self, assert_lint_clean):
        from repro.apps import (alltoall_task_traces, pingpong_task_traces,
                                pipeline_task_traces)
        assert_lint_clean(traces=pingpong_task_traces(2), n_nodes=2)
        assert_lint_clean(traces=alltoall_task_traces(4), n_nodes=4)
        assert_lint_clean(traces=pipeline_task_traces(4), n_nodes=4)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestCheckCLI:
    def test_clean_preset_exits_zero(self, capsys):
        assert main(["check", "--preset", "t805-grid-2x2"]) == 0
        assert "ok   machine:t805-grid-2x2" in capsys.readouterr().out

    def test_broken_override_exits_nonzero(self, capsys):
        code = main(["check", "--preset", "t805-grid-2x2",
                     "--set", "network.flit_bytes=-8"])
        assert code == 1
        assert "MC001" in capsys.readouterr().out

    def test_cyclic_trace_file_reports_tr005(self, tmp_path, capsys):
        path = str(tmp_path / "cyclic.npz")
        cyclic_traces(3).save(path)
        assert main(["check", "--trace", path]) == 1
        assert "TR005" in capsys.readouterr().out

    def test_json_output_parses(self, capsys):
        assert main(["check", "--preset", "t805-grid-2x2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert data["reports"][0]["subject"] == "machine:t805-grid-2x2"

    def test_rules_table(self, capsys):
        assert main(["check", "--rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("TR005", "MC003", "AD002", "KD001", "RT001"):
            assert rule in out

    def test_fix_none_smoke_of_full_bundle(self, capsys):
        assert main(["check", "--nodes", "4"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_determinism_run(self, capsys):
        assert main(["check", "--preset", "t805-grid-2x2",
                     "--determinism"]) == 0
        assert "determinism" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Property: the static deadlock verdict agrees with the sync comm model
# ---------------------------------------------------------------------------

N_PROP_NODES = 3


@st.composite
def shuffled_matched_traces(draw):
    """Matched-by-construction sync messages, per-node order shuffled.

    Counts always balance (every message contributes one send and one
    recv), so any failure is purely an *ordering* deadlock — exactly
    what the deadlock pass claims to decide for sync-only traces.
    """
    pairs = draw(st.lists(
        st.tuples(st.integers(0, N_PROP_NODES - 1),
                  st.integers(0, N_PROP_NODES - 1)).filter(
                      lambda p: p[0] != p[1]),
        min_size=1, max_size=6))
    per_node = [[] for _ in range(N_PROP_NODES)]
    for src, dst in pairs:
        per_node[src].append(send(64, dst))
        per_node[dst].append(recv(src))
    for node in range(N_PROP_NODES):
        per_node[node] = draw(st.permutations(per_node[node]))
    return TraceSet.from_lists(per_node)


class TestDeadlockPassProperty:
    @settings(max_examples=60, deadline=None)
    @given(traces=shuffled_matched_traces())
    def test_static_verdict_matches_simulation(self, traces):
        report = check_traces(traces)
        machine = generic_multicomputer("full", (N_PROP_NODES,))
        wb = Workbench(machine)
        if report.ok:
            result = wb.run_comm_only(traces)     # must complete
            assert result.total_cycles > 0
        else:
            assert report.by_rule("TR005") or report.by_rule("TR006")
            with pytest.raises(DeadlockError):
                wb.run_comm_only(traces)
