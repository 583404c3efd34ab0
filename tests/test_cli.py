"""The ``python -m repro`` command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.apps import TASK_APPS
from repro.cli import main
from repro.plans import PRESETS, build_machine
from repro.tracegen import StochasticAppDescription, StochasticGenerator


@pytest.fixture
def lossy_plan(tmp_path) -> str:
    """A lossy but survivable fault plan: packets drop, the transport
    delivers everything anyway."""
    path = tmp_path / "faults.json"
    path.write_text(json.dumps({
        "seed": 7,
        "link_faults": [{"drop_prob": 0.05, "corrupt_prob": 0.02}],
        "transport": {"timeout_cycles": 200000, "backoff_factor": 2.0,
                      "max_retries": 12}}))
    return str(path)


class TestBuildMachine:
    def test_all_presets_valid(self):
        for name in PRESETS:
            machine = build_machine(name)
            assert machine.n_nodes >= 2

    def test_unknown_preset(self):
        with pytest.raises(SystemExit, match="unknown preset"):
            build_machine("cray-ymp")

    def test_override_float(self):
        m = build_machine("generic-mesh", ["network.link_bandwidth=8"])
        assert m.network.link_bandwidth == 8.0

    def test_override_int_and_str(self):
        m = build_machine("generic-mesh",
                          ["network.packet_bytes=512",
                           "network.switching=store_and_forward"])
        assert m.network.packet_bytes == 512
        assert m.network.switching == "store_and_forward"

    def test_override_tuple(self):
        m = build_machine("generic-mesh", ["network.topology.dims=2,2"])
        assert m.n_nodes == 4

    def test_override_nested_node(self):
        m = build_machine("smp4", ["node.coherence=msi"])
        assert m.node.coherence == "msi"

    def test_bad_override_path(self):
        with pytest.raises(SystemExit, match="unknown config path"):
            build_machine("generic-mesh", ["network.warp_speed=9"])

    def test_bad_override_syntax(self):
        with pytest.raises(SystemExit, match="key=value"):
            build_machine("generic-mesh", ["no-equals-sign"])

    def test_invalid_override_rejected_by_validation(self):
        with pytest.raises(Exception):
            build_machine("generic-mesh", ["network.link_bandwidth=-1"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "t805-grid" in out and "powerpc601" in out

    def test_calibrate(self, capsys):
        assert main(["calibrate", "generic-mesh",
                     "--set", "network.topology.dims=2,2"]) == 0
        out = capsys.readouterr().out
        assert "l1_hit_cycles" in out

    def test_slowdown(self, capsys):
        assert main(["slowdown", "t805-grid-2x2", "--ops", "3000"]) == 0
        out = capsys.readouterr().out
        assert "detailed" in out and "task level" in out

    def test_slowdown_smp_preset_skips_detailed(self, capsys):
        assert main(["slowdown", "smp4", "--ops", "2000"]) == 0
        out = capsys.readouterr().out
        assert "detailed" not in out

    def test_stochastic(self, capsys):
        assert main(["stochastic", "generic-mesh", "--rounds", "3",
                     "--set", "network.topology.dims=2,2"]) == 0
        out = capsys.readouterr().out
        assert "parallel efficiency" in out

    def test_trace_profile_and_dump(self, capsys, tmp_path):
        gen = StochasticGenerator(StochasticAppDescription(), 2, seed=0)
        ts = gen.generate_task_level(3)
        path = str(tmp_path / "t.npz")
        ts.save(path)
        assert main(["trace", path, "--dump", "3"]) == 0
        out = capsys.readouterr().out
        assert "trace profile" in out
        assert "compute" in out

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestTraceAppCommand:
    def test_trace_app_exports_valid_chrome_json(self, capsys, tmp_path):
        from repro.observe import validate_chrome_trace

        out_path = str(tmp_path / "trace.json")
        assert main(["trace", "pingpong", "--out", out_path]) == 0
        out = capsys.readouterr().out
        assert "traced pingpong" in out
        assert "records by category" in out
        with open(out_path) as fh:
            doc = json.load(fh)
        counts = validate_chrome_trace(doc)
        assert counts.get("X", 0) > 0      # spans
        assert counts.get("i", 0) > 0      # instants

    def test_trace_app_examples_path_spelling(self, capsys, tmp_path):
        out_path = str(tmp_path / "t.json")
        assert main(["trace", "examples/pingpong.py",
                     "--out", out_path]) == 0
        assert "traced pingpong" in capsys.readouterr().out

    def test_trace_app_ring_buffer(self, capsys, tmp_path):
        out_path = str(tmp_path / "t.json")
        assert main(["trace", "alltoall", "--out", out_path,
                     "--ring", "50"]) == 0
        out = capsys.readouterr().out
        assert "dropped by the ring buffer" in out
        assert "(0 dropped" not in out     # alltoall overflows 50 records

    def test_trace_unknown_npz_path_fails(self):
        with pytest.raises(SystemExit, match="unknown app"):
            main(["trace", "no-such-app-or-file.npz"])


class TestStatsCommand:
    def test_stats_table(self, capsys):
        assert main(["stats", "pingpong"]) == 0
        out = capsys.readouterr().out
        assert "metric sources" in out
        assert "network.message_latency.count" in out
        assert "network.message_latency.mean" in out
        assert "node0.nic.messages_sent" in out

    def test_stats_default_app(self, capsys):
        assert main(["stats"]) == 0
        assert "pingpong" in capsys.readouterr().out

    def test_stats_json(self, capsys):
        assert main(["stats", "pipeline", "--json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["network.traffic.messages_delivered"] > 0

    def test_faulted_stats_drop_yet_deliver(self, capsys, lossy_plan):
        assert main(["stats", "pingpong", "--faults", lossy_plan,
                     "--json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["faults.dropped"] > 0
        assert snap["faults.transport.retransmissions"] > 0
        assert snap["faults.transport.delivery_failed"] == 0

    def test_stats_unknown_app(self):
        with pytest.raises(SystemExit, match="unknown app"):
            main(["stats", "mandelbrot"])


class TestWorkloadClassOption:
    def test_stochastic_with_workload_preset(self, capsys):
        assert main(["stochastic", "generic-mesh", "--rounds", "3",
                     "--workload", "stencil",
                     "--set", "network.topology.dims=2,2"]) == 0
        out = capsys.readouterr().out
        assert "parallel efficiency" in out


class TestSweepCommand:
    def test_serial_sweep(self, capsys):
        assert main(["sweep", "t805-grid-2x2", "--rounds", "2",
                     "--axis", "network.link_bandwidth=2,4"]) == 0
        out = capsys.readouterr().out
        assert "network.link_bandwidth" in out
        assert "total_cycles" in out

    def test_parallel_cached_rerun_hits(self, capsys, tmp_path):
        argv = ["sweep", "t805-grid-2x2", "--rounds", "2",
                "--axis", "network.link_bandwidth=2,4",
                "--workers", "2", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "2 misses" in first and "2 stored" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "2 hits, 0 misses" in second
        # Identical metric rows from cache (strip the stats line).
        assert first.splitlines()[:-1] == second.splitlines()[:-1]

    def test_cross_product_axes(self, capsys):
        assert main(["sweep", "t805-grid-2x2", "--rounds", "2",
                     "--axis", "network.link_bandwidth=2,4",
                     "--axis", "network.send_overhead=50,100"]) == 0
        out = capsys.readouterr().out
        assert "4 variants" in out

    def test_bad_axis_path(self):
        for axes, match in [
                (["network.warp_factor=1,2"], "unknown config path"),
                # Regression: the second axis silently replaced the first,
                # so bandwidths 1 and 2 never ran.
                (["network.link_bandwidth=1,2", "network.link_bandwidth=8"],
                 "'network.link_bandwidth' is already in the sweep")]:
            argv = ["sweep", "t805-grid-2x2", "--rounds", "2"]
            for axis in axes:
                argv += ["--axis", axis]
            with pytest.raises(SystemExit, match=match):
                main(argv)

    def test_axis_requires_values(self):
        with pytest.raises(SystemExit):
            main(["sweep", "t805-grid-2x2", "--axis", "no-equals"])

    def test_rows_include_event_counts(self, capsys):
        assert main(["sweep", "t805-grid-2x2", "--rounds", "2",
                     "--axis", "network.link_bandwidth=2,4"]) == 0
        assert "events" in capsys.readouterr().out

    def test_faulted_sweep_grows_fault_columns(self, capsys, lossy_plan):
        argv = ["sweep", "t805-grid-2x2", "--rounds", "3",
                "--axis", "network.link_bandwidth=2,4"]
        assert main(argv) == 0
        header = capsys.readouterr().out.splitlines()[1].split()
        assert "dropped" not in header
        assert main(argv + ["--faults", lossy_plan]) == 0
        header = capsys.readouterr().out.splitlines()[1].split()
        assert {"dropped", "retransmissions"} <= set(header)

    def test_timing_and_progress(self, capsys):
        assert main(["sweep", "t805-grid-2x2", "--rounds", "2",
                     "--axis", "network.link_bandwidth=2,4",
                     "--timing", "--progress"]) == 0
        captured = capsys.readouterr()
        assert "wall_time_s" in captured.out
        assert "[1/2]" in captured.err and "[2/2]" in captured.err


class TestCheckExitCodes:
    """Exit codes and JSON schema of `repro check` (clean vs error)."""

    def test_clean_preset_exits_zero(self, capsys):
        assert main(["check", "--preset", "t805-grid-2x2"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_clean_json_schema(self, capsys):
        assert main(["check", "--preset", "t805-grid-2x2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["n_errors"] == 0
        assert isinstance(payload["n_warnings"], int)
        assert isinstance(payload["rule_families"], dict)
        for counts in payload["rule_families"].values():
            assert set(counts) == {"errors", "warnings", "notes"}
        for report in payload["reports"]:
            assert set(report) >= {"subject", "ok", "n_errors",
                                   "n_warnings", "diagnostics"}
            for diag in report["diagnostics"]:
                assert set(diag) >= {"rule", "severity", "message",
                                     "subject"}

    def test_code_errors_exit_one(self, capsys):
        path = "tests/fixtures/broken_model.py"
        assert main(["check", "--preset", "t805-grid-2x2",
                     "--code", path]) == 1
        out = capsys.readouterr().out
        assert "error" in out

    def test_rules_table_lists_verify_rules(self, capsys):
        assert main(["check", "--rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("KV001", "KV002", "KV003", "KV004"):
            assert rule in out


class TestLintExitCodes:
    """Exit codes and JSON schema of `repro lint` across gate states."""

    CLEAN = '"""Clean model: nothing to flag."""\n\nX = 1\n'
    WARN_ONLY = (
        '"""PY020 only: returned value nobody can observe."""\n\n\n'
        'def worker(sim):\n'
        '    yield 1.0\n'
        '    return 42\n\n\n'
        'def drive(sim):\n'
        '    sim.process(worker(sim))\n')

    def test_clean_file_exits_zero(self, capsys, tmp_path):
        path = tmp_path / "clean.py"
        path.write_text(self.CLEAN)
        assert main(["lint", str(path)]) == 0
        assert "0 error(s) (0 new)" in capsys.readouterr().out

    def test_warning_only_exits_zero(self, capsys, tmp_path):
        path = tmp_path / "warn.py"
        path.write_text(self.WARN_ONLY)
        assert main(["lint", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["n_errors"] == 0
        assert payload["n_warnings"] >= 1
        assert payload["rule_families"]["PY"]["warnings"] >= 1
        assert payload["rule_families"]["PY"]["errors"] == 0
        rules = [d["rule"] for r in payload["reports"]
                 for d in r["diagnostics"]]
        assert "PY020" in rules

    def test_errors_exit_one_with_schema(self, capsys):
        assert main(["lint", "tests/fixtures/broken_model.py",
                     "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["n_errors"] >= 1
        assert payload["n_new"] >= 1
        assert payload["n_stale"] == 0
        assert sum(c["errors"]
                   for c in payload["rule_families"].values()) >= 1

    def test_baselined_errors_exit_zero(self, capsys, tmp_path):
        baseline = tmp_path / "baseline.json"
        assert main(["lint", "tests/fixtures/broken_model.py",
                     "--baseline", str(baseline),
                     "--update-baseline"]) == 0
        capsys.readouterr()
        assert main(["lint", "tests/fixtures/broken_model.py",
                     "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "(0 new)" in out
        assert "stale" not in out

    def test_stale_baseline_warns(self, capsys, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "format": "repro-lint-baseline/v1",
            "findings": {"deadbeefdeadbeefdead": "PY001 gone.py"}}))
        clean = tmp_path / "clean.py"
        clean.write_text(self.CLEAN)
        assert main(["lint", str(clean), "--baseline",
                     str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "1 stale baseline entry(ies)" in out
        assert "PY001 gone.py" in out
        assert main(["lint", str(clean), "--baseline", str(baseline),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_stale"] == 1


class TestVerifyCommand:
    def test_verify_pingpong_schedule_independent(self, capsys):
        # masterworker on two workers is the sharded exploration.
        for app in (["pingpong"], ["masterworker", "--workers", "2"]):
            assert main(["verify", *app, "--budget", "16"]) == 0
            out = capsys.readouterr().out
            assert ": schedule-independent" in out
            assert "frontier 0" in out
            assert "certificate" in out

    def test_verify_json_schema(self, capsys):
        assert main(["verify", "masterworker", "--budget", "8",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "rule_families" in payload
        verify = payload["verify"]
        assert verify["ok"] is True
        assert verify["mode"] == "dpor"
        assert verify["schedules_explored"] >= 1
        assert len(verify["certificate"]) == 64
        assert isinstance(verify["clusters"], list)
        (report,) = payload["reports"]
        assert report["subject"].startswith("verify:masterworker:")

    def test_verify_unknown_app(self):
        with pytest.raises(SystemExit, match="unknown app"):
            main(["verify", "mandelbrot"])

    def test_verify_naive_mode_runs(self, capsys):
        assert main(["verify", "pingpong", "--budget", "8",
                     "--naive"]) == 0
        assert "(naive)" in capsys.readouterr().out


class TestBoundCommand:
    """Exit codes and JSON schema of `repro bound` (app/npz/audit)."""

    def test_bundled_app_text_output(self, capsys):
        for app in TASK_APPS:
            assert main(["bound", app]) == 0
            out = capsys.readouterr().out
            assert "critical path" in out
            assert "cycle lower bound" in out
            assert "hot links" in out

    def test_json_schema(self, capsys):
        assert main(["bound", "alltoall", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["n_errors"] == 0
        assert "rule_families" in payload
        bound = payload["bound"]
        assert bound["cycle_lower_bound"] > 0
        assert bound["critical_path_cycles"] > 0
        assert bound["routing_exact"] is True
        assert bound["converged"] is True
        assert bound["n_links_loaded"] >= 1
        assert bound["hot_links"]
        assert bound["message_classes"]

    def test_overloaded_npz_exits_one(self, capsys, tmp_path):
        from repro.operations.ops import arecv, asend
        from repro.operations.trace import Trace, TraceSet
        lists = [[arecv(s) for s in (1, 2, 3) for _ in range(4)],
                 [asend(8192, 0) for _ in range(4)],
                 [asend(8192, 0) for _ in range(4)],
                 [asend(8192, 0) for _ in range(4)]]
        path = tmp_path / "funnel.npz"
        TraceSet([Trace(i, ops)
                  for i, ops in enumerate(lists)]).save(str(path))
        argv = ["bound", str(path), "--preset", "generic-mesh",
                "--set", "network.topology.dims=4,1"]
        assert main(argv) == 1
        assert "PB002" in capsys.readouterr().out
        assert main(argv + ["--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["rule_families"]["PB"]["errors"] >= 1

    def test_audit_warm_cache(self, capsys, tmp_path):
        cache_dir = str(tmp_path)
        assert main(["sweep", "t805-grid-2x2", "--rounds", "2",
                     "--axis", "network.link_bandwidth=2,4",
                     "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["bound", "--audit", cache_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["audit"]["checked"] == 2
        assert payload["audit"]["skipped"] == 0
        one = json.dumps(payload, sort_keys=True)
        assert main(["bound", "--audit", cache_dir, "--json",
                     "--workers", "3"]) == 0
        three = json.dumps(json.loads(capsys.readouterr().out),
                           sort_keys=True)
        assert one == three

    def test_audit_rejects_positional_target(self, tmp_path):
        with pytest.raises(SystemExit, match="drop the"):
            main(["bound", "pingpong", "--audit", str(tmp_path)])

    def test_audit_missing_dir(self, tmp_path):
        with pytest.raises(SystemExit, match="no cache directory"):
            main(["bound", "--audit", str(tmp_path / "nowhere")])

    def test_requires_target_or_audit(self):
        with pytest.raises(SystemExit, match="bundled app name"):
            main(["bound"])

    def test_bad_worker_count(self, tmp_path):
        with pytest.raises(SystemExit, match="workers"):
            main(["bound", "--audit", str(tmp_path), "--workers", "0"])

    def test_rules_table_lists_pb_rules(self, capsys):
        assert main(["check", "--rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("PB001", "PB002", "PB003"):
            assert rule in out

    def test_check_bundle_covers_bounds(self, capsys):
        assert main(["check", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        subjects = [r["subject"] for r in payload["reports"]]
        for app in ("pingpong", "alltoall", "pipeline"):
            assert f"bounds:{app}:t805-grid-2x2" in subjects


#: per command: a minimal argv, and what it parses to for the machine
#: and worker flags the command has (a flag left out: it has none)
_FLAG_CASES = {
    "info": ([], {}),
    "calibrate": (["smp4", "--set", "a=1"],
                  {"preset": "smp4", "set": ["a=1"]}),
    "slowdown": (["smp4"], {"preset": "smp4", "set": None}),
    "stochastic": (["smp4", "--set", "a=1", "--set", "b=2"],
                   {"preset": "smp4", "set": ["a=1", "b=2"]}),
    "sweep": (["smp4", "--axis", "a=1,2"],
              {"preset": "smp4", "set": [], "workers": 1}),
    "reproduce": (["T1"], {"workers": 1}),
    "check": (["--preset", "smp4", "--preset", "powerpc601",
               "--set", "a=1"],
              {"preset": ["smp4", "powerpc601"], "set": ["a=1"]}),
    "lint": (["src"], {}),
    "verify": (["pingpong", "--set", "a=1"],
               {"preset": "t805-grid-2x2", "set": ["a=1"], "workers": 1}),
    "chaos": (["pingpong", "--campaign", "c.json", "--preset", "smp4"],
              {"preset": "smp4", "set": [], "workers": 1}),
    "bound": (["pingpong", "--preset", "generic-mesh"],
              {"preset": "generic-mesh", "set": None, "workers": 1}),
    "trace": (["pingpong", "--set", "a=1"],
              {"preset": "t805-grid-2x2", "set": ["a=1"]}),
    "stats": ([], {"preset": "t805-grid-2x2", "set": None}),
    "serve": ([], {"workers": None}),
    "submit": (["chaos", "pingpong", "--campaign", "c.json"],
               {"preset": "t805-grid-2x2", "set": []}),
    "status": (["job-1"], {}),
    "fetch": (["job-1"], {}),
}


class TestSharedFlags:
    """Every subcommand's ``--preset``/``--set``/``--workers`` parse as
    they always have, whichever helper declares them."""

    def test_every_command_has_a_case(self):
        from repro.cli import _COMMANDS
        assert set(_FLAG_CASES) == set(_COMMANDS)

    @pytest.mark.parametrize("command", sorted(_FLAG_CASES))
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        assert f"usage: repro {command}" in capsys.readouterr().out

    @pytest.mark.parametrize("command", sorted(_FLAG_CASES))
    def test_machine_and_worker_flags_parse(self, command):
        from repro.cli import _parser
        argv, parsed = _FLAG_CASES[command]
        args = vars(_parser().parse_args([command, *argv]))
        for flag in ("preset", "set", "workers"):
            assert args.get(flag, "absent") == parsed.get(flag, "absent")


class TestNameResolution:
    """A bundled app, a trace-set path and a worker count each resolve
    in one place, so every command answers a bad one with the same line."""

    @pytest.mark.parametrize("argv", [
        ["bound", "nosuch"], ["trace", "nosuch"], ["bound", "masterworker"],
        ["check", "--trace", "nosuch.npz"]])
    def test_unknown_target_is_one_line_naming_the_apps(self, argv,
                                                        tmp_path,
                                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit, match="unknown application") as info:
            main(argv)
        message = str(info.value.code)
        assert "\n" not in message
        for app in TASK_APPS:
            assert app in message

    def test_verify_accepts_the_examples_spelling(self, capsys):
        from repro.commmodel.message import reset_message_ids
        outs = []
        for app in ("pingpong", "examples/pingpong.py"):
            reset_message_ids()   # packet ids name the certificate's clusters
            assert main(["verify", app, "--budget", "1"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("command", sorted(
        cmd for cmd, (_argv, parsed) in _FLAG_CASES.items()
        if "workers" in parsed))
    def test_every_workers_flag_rejects_zero(self, command):
        argv, _parsed = _FLAG_CASES[command]
        with pytest.raises(SystemExit,
                           match=r"^--workers must be >= 1, got 0$"):
            main([command, *argv, "--workers", "0"])
