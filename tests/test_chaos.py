"""Chaos campaigns: spec expansion, SLO reduction, campaign runs.

Covers the three layers of :mod:`repro.chaos` — declarative campaign
specs expanding into fault-plan families, the SLO/invariant reduction
over campaign rows, and the end-to-end campaign runner — plus
the determinism contract of ``repro chaos --json``: byte-identical
JSON verdicts across reruns and worker counts, and a severity-0 rung
bit-identical to the fault-free baseline row.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.chaos import (
    AppCampaignRunner,
    CampaignSpec,
    ChaosResult,
    Rung,
    as_campaign_spec,
    check_ladder_monotonicity,
    evaluate_slos,
    run_campaign,
)
from repro.core.config import ConfigError
from repro.core.workbench import Workbench
from repro.faults import FaultPlan, LinkFault, TransportConfig
from repro.machines.presets import t805_grid
from repro.observe import MetricRegistry, Tracer
from repro.topology import mesh


# ---------------------------------------------------------------------------
# Shared recipes (module level: campaign runners cross process pools)
# ---------------------------------------------------------------------------

def lossy_base(p: float = 0.02, *, seed: int = 7) -> FaultPlan:
    return FaultPlan(
        seed=seed,
        link_faults=[LinkFault(drop_prob=p)],
        transport=TransportConfig(timeout_cycles=50_000.0,
                                  backoff_factor=1.0, max_retries=60))


def demo_spec() -> CampaignSpec:
    return CampaignSpec(
        name="demo",
        base=lossy_base(),
        generators=[
            {"kind": "severity_ladder", "name": "sev",
             "factors": [0, 1, 3]},
            {"kind": "single_link_down", "end": 5_000.0},
        ],
        slos=[
            {"kind": "availability", "min_fraction": 1.0},
            {"kind": "retransmission_budget", "max_retransmissions": 50},
            {"kind": "latency_inflation", "max_factor": 10.0},
            {"kind": "single_link_survival", "max_retransmissions": 50},
        ])


def demo_runner() -> AppCampaignRunner:
    return AppCampaignRunner("pingpong", size=256, repeats=2)


def crashing_rung_runner(machine, faults=None) -> dict:
    """Kills its worker on every faulted rung."""
    if faults is not None:
        os._exit(44)
    return demo_runner()(machine)


def run_demo(**kwargs) -> ChaosResult:
    return run_campaign(demo_spec(), t805_grid(2, 2), demo_runner(),
                        **kwargs)


# ---------------------------------------------------------------------------
# CampaignSpec: serialization + validation
# ---------------------------------------------------------------------------

class TestCampaignSpec:
    def test_roundtrip_dict_json_file(self, tmp_path):
        spec = demo_spec()
        assert CampaignSpec.from_dict(spec.to_dict()) == spec
        assert CampaignSpec.from_json(spec.to_json()) == spec
        path = tmp_path / "spec.json"
        spec.save(path)
        assert CampaignSpec.load(path) == spec

    def test_as_campaign_spec_forms(self, tmp_path):
        spec = demo_spec()
        assert as_campaign_spec(spec) is spec
        assert as_campaign_spec(spec.to_dict()) == spec
        path = tmp_path / "spec.json"
        spec.save(path)
        assert as_campaign_spec(str(path)) == spec
        with pytest.raises(ConfigError, match="cannot interpret"):
            as_campaign_spec(42)
        with pytest.raises(ConfigError, match="cannot read"):
            as_campaign_spec(str(tmp_path / "missing.json"))

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="unknown campaign-spec"):
            CampaignSpec.from_dict({"generators": [], "rungs": []})

    def test_digest_excludes_names_tracks_content(self):
        a, b = demo_spec(), demo_spec()
        b.name = "relabelled"
        b.base.name = "also-relabelled"
        assert a.digest() == b.digest()
        c = demo_spec()
        c.generators[0]["factors"] = [0, 1, 4]
        assert a.digest() != c.digest()

    @pytest.mark.parametrize("gen, match", [
        ({"kind": "warp_core_breach"}, "unknown generator"),
        ({"kind": "severity_ladder"}, "requires 'factors'"),
        ({"kind": "severity_ladder", "factors": []}, "no factors"),
        ({"kind": "severity_ladder", "factors": [-1.0]}, ">= 0"),
        ({"kind": "single_link_down"}, "requires 'end'"),
        ({"kind": "single_link_down", "end": 0.0}, "interval"),
        ({"kind": "single_link_down", "start": 9.0, "end": 5.0},
         "interval"),
        ({"kind": "correlated_links"}, "requires 'groups'"),
        ({"kind": "correlated_links", "groups": []}, "no groups"),
        ({"kind": "correlated_links", "groups": [[]]}, "group is empty"),
        ({"kind": "correlated_links", "groups": [[[0]]],
          "drop_prob": 0.1}, "pair"),
        ({"kind": "correlated_links", "groups": [[[0, 1]]],
          "drop_prob": 0.7, "corrupt_prob": 0.6}, "sum <= 1"),
        ({"kind": "correlated_links", "groups": [[[0, 1]]]},
         "needs drop_prob or corrupt_prob"),
        ({"kind": "rolling_outage", "count": 2}, "requires 'window'"),
        ({"kind": "rolling_outage", "window": 5.0}, "requires 'count'"),
        ({"kind": "rolling_outage", "window": 5.0, "count": 0},
         "count >= 1"),
    ])
    def test_validate_rejects_bad_generators(self, gen, match):
        spec = CampaignSpec(base=lossy_base(), generators=[gen])
        with pytest.raises(ConfigError, match=match):
            spec.validate()

    def test_validate_rejects_bad_slos(self):
        spec = demo_spec()
        spec.slos.append({"kind": "five_nines"})
        with pytest.raises(ConfigError, match="unknown SLO"):
            spec.validate()
        orphan = CampaignSpec(
            base=lossy_base(),
            generators=[{"kind": "severity_ladder", "factors": [1]}],
            slos=[{"kind": "single_link_survival",
                   "max_retransmissions": 3}])
        with pytest.raises(ConfigError, match="requires a"):
            orphan.validate()

    def test_ladder_without_base_rejected(self):
        spec = CampaignSpec(
            generators=[{"kind": "severity_ladder", "factors": [1]}])
        with pytest.raises(ConfigError, match="needs a base plan"):
            spec.validate()

    def test_empty_spec_rejected(self):
        with pytest.raises(ConfigError, match="no generators"):
            CampaignSpec().validate()


# ---------------------------------------------------------------------------
# Rung expansion against a topology
# ---------------------------------------------------------------------------

class TestRungExpansion:
    def test_baseline_rung_is_first_and_empty(self):
        rungs = demo_spec().rungs(mesh(2, 2))
        assert rungs[0].label == "baseline"
        assert rungs[0].plan is None
        assert rungs[0].coords == {"generator": "baseline"}

    def test_severity_ladder_rungs(self):
        rungs = demo_spec().rungs(mesh(2, 2))
        ladder = [r for r in rungs
                  if r.coords.get("generator") == "severity_ladder"]
        assert [r.label for r in ladder] == ["sevx0", "sevx1", "sevx3"]
        assert ladder[0].plan is None              # severity 0 normalizes
        assert ladder[1].plan.link_faults[0].drop_prob == \
            pytest.approx(0.02)
        assert ladder[2].plan.link_faults[0].drop_prob == \
            pytest.approx(0.06)
        assert [r.coords["severity"] for r in ladder] == [0, 1, 3]

    def test_single_link_down_covers_every_link(self):
        topo = mesh(2, 2)
        rungs = demo_spec().rungs(topo)
        pack = [r for r in rungs
                if r.coords.get("generator") == "single_link_down"]
        undirected = {(u, v) for u, v in topo.links() if u < v}
        assert len(pack) == len(undirected)        # 4 links on a 2x2 mesh
        for rung in pack:
            assert len(rung.plan.link_down) == 2   # both directions
            fwd, rev = rung.plan.link_down
            assert (fwd.src, fwd.dst) == (rev.dst, rev.src)
            assert fwd.start == 0.0 and fwd.end == 5_000.0
            # Severity probabilities do NOT leak into outage rungs, but
            # the base's transport budget does.
            assert rung.plan.link_faults == []
            assert rung.plan.transport.max_retries == 60

    def test_single_link_down_directed(self):
        spec = CampaignSpec(generators=[
            {"kind": "single_link_down", "end": 100.0,
             "bidirectional": False}])
        rungs = spec.rungs(mesh(2, 2))
        pack = [r for r in rungs if r.plan is not None]
        assert len(pack) == 8                      # every directed link
        assert all(len(r.plan.link_down) == 1 for r in pack)

    def test_correlated_links_one_rung_per_group(self):
        spec = CampaignSpec(
            name="corr",
            generators=[{"kind": "correlated_links", "name": "pair",
                         "drop_prob": 0.2, "corrupt_prob": 0.1,
                         "groups": [[[0, 1], [1, 0]], [[2, 3]]]}])
        rungs = spec.rungs(mesh(2, 2))
        groups = [r for r in rungs if r.plan is not None]
        assert [r.label for r in groups] == ["pair.g0", "pair.g1"]
        assert len(groups[0].plan.link_faults) == 2
        rule = groups[0].plan.link_faults[0]
        assert (rule.src, rule.dst) == (0, 1)
        assert rule.drop_prob == 0.2 and rule.corrupt_prob == 0.1
        assert groups[0].coords["links"] == "0>1,1>0"

    def test_rolling_outage_windows_advance(self):
        spec = CampaignSpec(generators=[
            {"kind": "rolling_outage", "name": "roll", "window": 100.0,
             "step": 250.0, "count": 3}])
        rungs = [r for r in spec.rungs(mesh(2, 2)) if r.plan is not None]
        assert [r.label for r in rungs] == \
            ["roll.t0", "roll.t250", "roll.t500"]
        spans = [(r.plan.link_down[0].start, r.plan.link_down[0].end)
                 for r in rungs]
        assert spans == [(0.0, 100.0), (250.0, 350.0), (500.0, 600.0)]
        # Wildcard outage: the whole network blinks.
        assert rungs[0].plan.link_down[0].src is None

    def test_duplicate_labels_rejected(self):
        spec = CampaignSpec(
            base=lossy_base(),
            generators=[
                {"kind": "severity_ladder", "name": "sev", "factors": [1]},
                {"kind": "severity_ladder", "name": "sev", "factors": [1]},
            ])
        with pytest.raises(ConfigError, match="duplicate"):
            spec.rungs(mesh(2, 2))


# ---------------------------------------------------------------------------
# SLO reduction + ladder invariant (pure row folding, no simulation)
# ---------------------------------------------------------------------------

def _row(rung, gen, **kw) -> dict:
    row = {"rung": rung, "generator": gen, "total_cycles": 100.0,
           "mean_latency": 10.0, "delivered": 4, "dropped": 0,
           "corrupted": 0, "retransmissions": 0, "delivery_failed": 0}
    row.update(kw)
    return row


class TestSLOs:
    def test_availability(self):
        rows = [_row("baseline", "baseline"),
                _row("a", "severity_ladder"),
                _row("b", "severity_ladder", delivery_failed=1)]
        (v,) = evaluate_slos([{"kind": "availability",
                               "min_fraction": 0.5}], rows)
        assert v.passed and "1/2" in v.detail
        (v,) = evaluate_slos([{"kind": "availability",
                               "min_fraction": 1.0}], rows)
        assert not v.passed and "'b'" not in v.detail  # names listed plain
        assert "b" in v.detail
        # An error row counts against availability too.
        rows[1]["error"] = "DeliveryFailed: boom"
        (v,) = evaluate_slos([{"kind": "availability",
                               "min_fraction": 0.5}], rows)
        assert not v.passed

    def test_retransmission_budget(self):
        rows = [_row("a", "severity_ladder", retransmissions=3),
                _row("b", "severity_ladder", retransmissions=9)]
        (v,) = evaluate_slos([{"kind": "retransmission_budget",
                               "max_retransmissions": 9}], rows)
        assert v.passed and v.worst == {"rung": "b", "retransmissions": 9}
        (v,) = evaluate_slos([{"kind": "retransmission_budget",
                               "max_retransmissions": 8}], rows)
        assert not v.passed
        with pytest.raises(ConfigError, match="max_retransmissions"):
            evaluate_slos([{"kind": "retransmission_budget"}], rows)

    def test_latency_inflation(self):
        rows = [_row("baseline", "baseline", mean_latency=10.0),
                _row("a", "severity_ladder", mean_latency=25.0)]
        (v,) = evaluate_slos([{"kind": "latency_inflation",
                               "max_factor": 2.5}], rows)
        assert v.passed and v.worst["inflation"] == pytest.approx(2.5)
        (v,) = evaluate_slos([{"kind": "latency_inflation",
                               "max_factor": 2.0}], rows)
        assert not v.passed
        # No baseline row -> cannot judge -> fail loudly, not silently.
        (v,) = evaluate_slos([{"kind": "latency_inflation",
                               "max_factor": 2.0}], rows[1:])
        assert not v.passed and "baseline" in v.detail

    def test_single_link_survival(self):
        rows = [_row("link0-1-down", "single_link_down",
                     retransmissions=2),
                _row("link2-3-down", "single_link_down",
                     retransmissions=7)]
        (v,) = evaluate_slos([{"kind": "single_link_survival",
                               "max_retransmissions": 7}], rows)
        assert v.passed and "all 2" in v.detail
        rows[1]["delivery_failed"] = 1
        (v,) = evaluate_slos([{"kind": "single_link_survival",
                               "max_retransmissions": 7}], rows)
        assert not v.passed and "link2-3-down" in v.detail

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown SLO"):
            evaluate_slos([{"kind": "nope"}], [])


class TestLadderInvariant:
    @staticmethod
    def ladder_rows(drops):
        return [_row(f"sevx{i}", "severity_ladder", ladder="sev",
                     severity=float(i), dropped=d, retransmissions=d)
                for i, d in enumerate(drops)]

    def test_monotone_ladder_is_clean(self):
        assert check_ladder_monotonicity(self.ladder_rows([0, 2, 2, 5])) \
            == []

    def test_violation_is_structured(self):
        violations = check_ladder_monotonicity(
            self.ladder_rows([0, 4, 1]))
        assert len(violations) == 2      # dropped AND retransmissions fell
        v = violations[0]
        assert v["ladder"] == "sev" and v["column"] == "dropped"
        assert (v["prev_rung"], v["rung"]) == ("sevx1", "sevx2")
        assert (v["prev_value"], v["value"]) == (4, 1)
        assert "fell from 4" in v["detail"]

    def test_rows_sorted_by_severity_not_arrival(self):
        rows = self.ladder_rows([0, 1, 2])
        assert check_ladder_monotonicity(list(reversed(rows))) == []

    def test_error_rows_and_other_generators_skipped(self):
        rows = self.ladder_rows([0, 3])
        rows.append(_row("sevx9", "severity_ladder", ladder="sev",
                         severity=9.0, error="DeliveryFailed: gone"))
        rows.append(_row("link0-1-down", "single_link_down", dropped=999))
        assert check_ladder_monotonicity(rows) == []

    def test_ladders_checked_independently(self):
        rows = self.ladder_rows([0, 5])
        rows += [_row(f"bx{i}", "severity_ladder", ladder="b",
                      severity=float(i), dropped=d)
                 for i, d in enumerate([1, 0])]
        violations = check_ladder_monotonicity(rows)
        assert {v["ladder"] for v in violations} == {"b"}


# ---------------------------------------------------------------------------
# End-to-end campaign runs
# ---------------------------------------------------------------------------

class TestRunCampaign:
    def test_demo_campaign_passes_all_slos(self):
        result = run_demo()
        assert result.ok
        assert [v.passed for v in result.verdicts] == [True] * 4
        assert result.violations == []
        assert len(result.rows) == 8       # baseline + 3 ladder + 4 links
        assert result.rows[0]["rung"] == "baseline"
        # Uniform schema on every row, fault-free rungs included.
        for row in result.rows:
            for col in ("total_cycles", "mean_latency", "delivered",
                        "dropped", "retransmissions", "delivery_failed"):
                assert col in row

    def test_severity_zero_rung_equals_baseline_bit_for_bit(self):
        result = run_demo()
        rows = {r["rung"]: r for r in result.rows}
        strip = ("rung", "generator", "ladder", "severity")
        baseline = {k: v for k, v in rows["baseline"].items()
                    if k not in strip}
        sev0 = {k: v for k, v in rows["sevx0"].items() if k not in strip}
        assert json.dumps(baseline, sort_keys=True) == \
            json.dumps(sev0, sort_keys=True)

    def test_worker_counts_and_reruns_are_byte_identical(self):
        serial = run_demo().to_json()
        assert run_demo().to_json() == serial
        assert run_demo(workers=3).to_json() == serial

    def test_cache_cold_then_warm(self, tmp_path):
        from repro.parallel import ResultCache
        cold = run_demo(cache=str(tmp_path / "w1"))
        # The sevx0 rung shares the baseline's key, and the job probes,
        # simulates and stores each distinct key once — 7 for 8 rungs —
        # at every worker count.  (The rung fan-out this replaced
        # counted the shared key as an in-run hit when serial, and
        # simulated it twice in parallel unless it won a race.)
        assert cold.cache_stats == {"hits": 0, "misses": 7, "stores": 7}
        cold3 = run_demo(cache=str(tmp_path / "w3"), workers=3)
        assert cold3.cache_stats == cold.cache_stats
        warm = run_demo(cache=ResultCache(tmp_path / "w1"), workers=2)
        assert warm.cache_stats == {"hits": 8, "misses": 0, "stores": 0}
        assert warm.to_json() == cold.to_json() == cold3.to_json()

    def test_progress_fires_per_rung_in_order(self):
        seen = []
        run_demo(progress=lambda done, total, row:
                 seen.append((done, total, row["rung"])))
        assert [s[0] for s in seen] == list(range(1, 9))
        assert all(s[1] == 8 for s in seen)
        assert seen[0][2] == "baseline"

    def test_timing_column_is_kept_out_of_json(self):
        result = run_demo(timing=True)
        assert all("wall_time_s" in row for row in result.rows)
        assert "wall_time_s" not in json.dumps(result.to_dict())
        assert "wall_time_s" in result.format()

    def test_failing_slo_fails_the_campaign(self):
        spec = demo_spec()
        spec.slos = [{"kind": "retransmission_budget",
                      "max_retransmissions": 0}]
        result = run_campaign(spec, t805_grid(2, 2), demo_runner())
        assert not result.ok
        assert not result.verdicts[0].passed
        assert "FAIL" in result.format()

    def test_undeliverable_rung_is_captured_with_columns(self):
        # A rung whose outage swallows the whole run: the transport
        # gives up, and the row still carries the fault-metric columns.
        spec = CampaignSpec(
            name="dead",
            base=FaultPlan(seed=1, transport=TransportConfig(
                timeout_cycles=500.0, backoff_factor=1.0, max_retries=0,
                degraded_routing=False)),
            generators=[{"kind": "rolling_outage", "window": 1e9,
                         "count": 1}],
            slos=[{"kind": "availability", "min_fraction": 1.0}])
        result = run_campaign(spec, t805_grid(2, 2), demo_runner())
        assert not result.ok
        (dead,) = [r for r in result.rows if "error" in r]
        assert dead["rung"] == "roll0.t0"
        assert dead["delivery_failed"] >= 1
        assert "retransmissions" in dead and "dropped" in dead

    def test_rung_that_keeps_killing_its_worker_is_an_error_row(self):
        """A campaign is a sweep job: the crash budget ends in a
        ``WorkerCrashed`` row the SLO reduction sees, not in a raise
        that loses the other rungs."""
        spec = CampaignSpec(
            name="crashy", base=lossy_base(),
            generators=[{"kind": "severity_ladder", "name": "sev",
                         "factors": [0, 1]}],
            slos=[{"kind": "availability", "min_fraction": 1.0}])
        result = run_campaign(spec, t805_grid(2, 2), crashing_rung_runner,
                              workers=2)
        assert [("error" in row) for row in result.rows] == \
            [False, False, True]
        assert result.rows[2]["rung"] == "sevx1"
        assert result.rows[2]["error"].startswith(
            "WorkerCrashed: variant worker exited with code 44")
        assert not result.ok and not result.verdicts[0].passed

    def test_seeded_monotonicity_violation_is_caught(self, monkeypatch):
        """End-to-end invariant check: sabotage ``scaled`` so severity
        descends, and the campaign must flag the ladder."""
        original = FaultPlan.scaled

        def sabotaged(self, factor, name=""):
            return original(self, max(0.0, 3.0 - factor), name=name)

        monkeypatch.setattr(FaultPlan, "scaled", sabotaged)
        spec = demo_spec()
        spec.generators = [spec.generators[0]]
        spec.slos = []
        result = run_campaign(spec, t805_grid(2, 2), demo_runner())
        assert not result.ok
        assert result.violations
        assert result.violations[0]["ladder"] == "sev"
        assert "monotonicity" in result.format()

    def test_tracer_and_registry_integration(self):
        tracer = Tracer()
        registry = MetricRegistry()
        result = run_demo(tracer=tracer, registry=registry)
        by_cat = tracer.counts_by_category()
        assert by_cat["chaos"] == 8 + 3 * 8       # instants + 3 counters
        doc = tracer.to_chrome()
        from repro.observe import validate_chrome_trace
        validate_chrome_trace(doc)
        snap = registry.snapshot()
        assert snap["chaos.campaign.rungs"] == 8
        assert snap["chaos.campaign.ok"] == int(result.ok)
        assert snap["chaos.campaign.slos_passed"] == 4


class TestWorkbenchAndRunner:
    def test_workbench_chaos_with_application(self):
        wb = Workbench(t805_grid(2, 2))
        result = wb.chaos(demo_spec(), application="pingpong")
        assert isinstance(result, ChaosResult)
        assert len(result.rows) == 8

    def test_workbench_chaos_arg_exclusivity(self):
        wb = Workbench(t805_grid(2, 2))
        with pytest.raises(ValueError, match="exactly one"):
            wb.chaos(demo_spec())
        with pytest.raises(ValueError, match="exactly one"):
            wb.chaos(demo_spec(), demo_runner(), application="pingpong")

    def test_app_runner_validates_name(self):
        with pytest.raises(ConfigError, match="unknown app"):
            AppCampaignRunner("doom")

    def test_campaign_row_uniform_schema(self):
        runner = demo_runner()
        machine = t805_grid(2, 2)
        clean = runner(machine)
        faulted = runner(machine, faults=lossy_base(0.3))
        assert set(clean) == set(faulted)
        assert clean["dropped"] == 0 and clean["delivery_failed"] == 0
        assert faulted["dropped"] > 0

    def test_rung_dataclass_defaults(self):
        rung = Rung("x", None)
        assert rung.coords == {}


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestChaosCLI:
    def run_cli(self, tmp_path, capsys, *extra):
        from repro.cli import main
        path = tmp_path / "spec.json"
        demo_spec().save(path)
        code = main(["chaos", "pingpong", "--campaign", str(path),
                     "--size", "256", "--repeats", "2", *extra])
        out, err = capsys.readouterr()
        return code, out, err

    def test_text_report(self, tmp_path, capsys):
        code, out, err = self.run_cli(tmp_path, capsys)
        assert code == 0
        assert "chaos campaign 'demo'" in out
        assert "campaign verdict: PASS" in out

    def test_json_is_deterministic_and_stderr_carries_cache(
            self, tmp_path, capsys):
        code1, out1, err1 = self.run_cli(
            tmp_path, capsys, "--json", "--cache-dir",
            str(tmp_path / "cache"))
        code2, out2, err2 = self.run_cli(
            tmp_path, capsys, "--json", "--cache-dir",
            str(tmp_path / "cache"), "--workers", "2")
        assert code1 == code2 == 0
        assert out1 == out2                       # cold == warm, stdout
        assert "misses" in err1 and "8 hits" in err2
        doc = json.loads(out1)
        assert doc["ok"] is True and doc["rungs"] == 8

    def test_failing_campaign_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main
        spec = demo_spec()
        spec.slos = [{"kind": "retransmission_budget",
                      "max_retransmissions": 0}]
        path = tmp_path / "bad.json"
        spec.save(path)
        assert main(["chaos", "pingpong", "--campaign", str(path),
                     "--size", "256", "--repeats", "2"]) == 1

    def test_bad_spec_is_a_clean_error(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"generators": [{"kind": "nope"}]}))
        with pytest.raises(SystemExit, match="bad campaign spec"):
            main(["chaos", "pingpong", "--campaign", str(path)])

    def test_unknown_app_rejected(self, tmp_path):
        from repro.cli import main
        path = tmp_path / "spec.json"
        demo_spec().save(path)
        with pytest.raises(SystemExit, match="unknown app"):
            main(["chaos", "quake", "--campaign", str(path)])

    def test_trace_out(self, tmp_path, capsys):
        code, _out, err = self.run_cli(
            tmp_path, capsys, "--trace-out", str(tmp_path / "t.json"))
        assert code == 0
        assert (tmp_path / "t.json").exists()
        assert "wrote" in err
