"""Tests of the benchmark harness itself.

Run with ``python -m pytest benchmarks/layered -q`` (outside tier-1's
``testpaths``).  The arithmetic the reports rest on is tested on
hand-built inputs; one ``--quick`` pass drives all five workloads end
to end through fresh child interpreters.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import stats  # noqa: E402

SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
WORKLOADS = ["detailed_mix", "tasklevel_comm", "sweep_cold", "sweep_warm",
             "service_jobs"]


# -- the tail-percentile rule -------------------------------------------------


@pytest.mark.parametrize("n, want", [(30, 66), (200, 95), (20, 50), (19, 50),
                                     (3, 50), (1000, 99)])
def test_tail_percentile_keeps_ten_samples_beyond(n, want):
    p = stats.tail_percentile(n)
    assert p == want
    if n >= 20:
        assert n * (100 - p) / 100 >= 10        # ten samples beyond it
        assert n * (100 - (p + 1)) / 100 < 10   # and no higher one has


def test_percentile_is_nearest_rank():
    values = list(range(1, 31))                 # 1..30
    assert stats.percentile(values, 66) == 20   # 10 samples beyond it
    assert stats.percentile(values, 50) == 15
    assert stats.percentile([7.0], 95) == 7.0


def test_block_rate_ignores_a_slow_phase_and_counts_failures_as_time():
    steady = [0.1] * 100
    assert stats.block_rate(steady, [1.0] * 100) == pytest.approx(10.0)
    slow_phase = [0.1] * 60 + [0.3] * 30 + [0.1] * 10
    assert stats.block_rate(slow_phase, [1.0] * 100) == pytest.approx(10.0)
    # A failed op delivers nothing but its time stays in the wall.
    half_failed = [1.0, 0.0] * 50
    assert stats.block_rate(steady, half_failed) == pytest.approx(5.0)
    # Two closed-loop clients side by side do twice the work per second.
    assert stats.block_rate(steady, [1.0] * 100, clients=2) == \
        pytest.approx(20.0)


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5]
    judge = stats.compare_metric
    assert judge(base, [90.0, 91.0, 89.5], "lower", 0.1)["verdict"] == "better"
    # one run a side proves nothing, however far apart
    assert judge([100.0], [50.0], "lower", 0.1)["verdict"] == "within-bound"
    assert judge(base, [104.0, 99.5, 103.0], "lower", 0.1)["verdict"] \
        == "within-bound"
    assert judge(base, [120.0, 118.0, 121.0, 119.0], "lower", 0.1)[
        "verdict"] == "worse"
    assert judge(base, [60.0, 100.0, 160.0, 120.0], "lower", 0.1)[
        "verdict"] == "unresolved"
    row = judge(base, [80.0, 81.0], "higher", 0.1)
    assert row["verdict"] == "worse"
    assert row["ratio"] == pytest.approx(80.5 / 100.25)


# -- span self-time arithmetic ------------------------------------------------


def test_self_time_on_a_hand_built_tree():
    now = [0.0]
    tracer = spans.Tracer(clock=lambda: now[0])

    def at(t):
        now[0] = t
    # op [0, 10] > core [1, 9] > (commmodel [2, 4],
    #                             pearl [4, 8] > topology [5, 6])
    op = tracer.begin(spans.HARNESS, "op", op="0:7")
    at(1); core = tracer.begin("core", "run")
    at(2); comm = tracer.begin("commmodel", "build")
    at(4); tracer.end(comm)
    pearl = tracer.begin("pearl", "Simulator.run")
    at(5); topo = tracer.begin("topology", "build_topology")
    at(6); tracer.end(topo)
    at(8); tracer.end(pearl)
    at(9); tracer.end(core)
    at(10); tracer.end(op)

    assert [s.parent for s in (op, core, comm, pearl, topo)] == \
        [None, op, core, core, pearl]
    assert {s.op for s in tracer.spans} == {"0:7"}    # children inherit it
    own = spans.layer_self_seconds(tracer.spans)
    assert own["harness"] == 2.0        # 10 - core's 8
    assert own["core"] == 2.0           # 8 - (2 + 4)
    assert own["commmodel"] == 2.0
    assert own["pearl"] == 3.0          # 4 - topology's 1
    assert own["topology"] == 1.0
    assert own["service"] == 0.0        # every layer is present
    assert sum(own.values()) == op.duration

    trace = spans.chrome_trace(tracer.spans, "tree")
    assert len(trace["traceEvents"]) == 5
    by_name = {e["name"]: e for e in trace["traceEvents"]}
    assert by_name["build_topology"]["args"]["parent"] == \
        by_name["Simulator.run"]["args"]["id"]
    assert by_name["op"]["dur"] == 10e6 and by_name["op"]["ph"] == "X"


def test_install_wraps_and_restores_every_target():
    sys.path.insert(0, str(HERE.parent.parent / "src"))
    from repro.core.workbench import Workbench
    from repro.pearl.kernel import Simulator

    before = (Workbench.run_comm_only, Simulator.run)
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        assert Workbench.run_comm_only is not before[0]
        sim = Simulator()
        sim.run()
        assert [(s.layer, s.name) for s in tracer.spans] == \
            [("pearl", "Simulator.run")]
    finally:
        undo()
    assert (Workbench.run_comm_only, Simulator.run) == before


# -- BENCHMARK.json -----------------------------------------------------------


def test_spec_names_and_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == WORKLOADS
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert all(m["better"] in ("lower", "higher")
               for m in SPEC["end_to_end"] + SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for layer in (*spans.LAYERS, spans.HARNESS):
        assert f"{layer}.self_ms_per_op" in names


def test_expected_json_covers_both_committed_seeds():
    import run
    expected = json.loads((HERE / "expected.json").read_text())
    assert expected["seeds"] == [run.DEFAULT_SEED, run.HELD_OUT_SEED]
    for name in WORKLOADS:
        entry = expected["workloads"][name]
        assert set(entry["seeds"]) == {str(s) for s in expected["seeds"]}


@pytest.mark.parametrize("name", ["sweep_cold", "sweep_warm"])
def test_sweep_facts_are_absolute_on_an_unseen_seed(name, tmp_path):
    """No first op may set the reference for rows, errors or cache."""
    import workloads
    workload = workloads.WORKLOADS[name](12345, tmp_path)   # not committed
    n = 72 if workload.warm else 18
    good = [n, 0, 0] if workload.warm else [0, n, n]
    bad = [0, n, n] if workload.warm else [n, 0, 0]

    def result(**facts):
        return workloads.OpResult({"rows0": "d", "n_rows": n, "error_rows": 0,
                                   "cache": good, **facts}, 0, 0)
    for wrong in ({"error_rows": n}, {"cache": bad}, {"n_rows": n - 1}):
        assert workload.verify(result(**wrong)) is not None, wrong
    assert workload.verify(result()) is None
    assert workload.verify(result(rows0="e")) is not None   # not repeated


# -- all five workloads, end to end -------------------------------------------


def test_quick_pass_of_all_five_workloads(tmp_path):
    out = tmp_path / "quick.json"
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seed", "1",
         "--out", str(out)], stdout=subprocess.PIPE, text=True, timeout=120)
    wall = time.perf_counter() - started
    assert done.returncode == 0, done.stdout
    assert wall < 20.0, f"--quick took {wall:.1f} s"

    doc = json.loads(out.read_text())
    assert doc["schema"] == "repro-bench-layered/1"
    (run,) = doc["runs"]
    assert list(run["workloads"]) == WORKLOADS
    wanted = {m["name"] for m in SPEC["end_to_end"]} | {
        "failed_frac", "tail_percentile", "samples"}
    for name, result in run["workloads"].items():
        assert set(result["metrics"]) == wanted, name
        assert result["failed"] == 0 and result["errors"] == []
        assert result["metrics"]["failed_frac"] == 0.0
        assert result["metrics"]["tail_percentile"] == 50   # < 20 samples
        assert result["metrics"]["samples"] == 3 * result["clients"]
        assert len(result["samples_ms"]) == result["metrics"]["samples"]
        assert result["kernel_mode"] == "fast" and result["nproc"] >= 1
        assert all(result["metrics"][m] > 0 for m in wanted
                   - {"failed_frac"})
        for metric in SPEC["end_to_end"]:
            assert f" {metric['name']} " in done.stdout
    # nothing outlives the run: no scratch directory, and no process
    # (server, executor worker) that was started on one
    assert not list((HERE / ".work").glob("*"))
    for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            assert str(HERE / ".work") not in cmdline.read_text()
        except OSError:
            pass                        # the process ended meanwhile


def test_driver_form_prints_exactly_the_named_metrics():
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "sweep_warm",
             "--seed", "3", "--seconds", "1", "--trace", str(trace),
             "--quick"], stdout=subprocess.PIPE, text=True, timeout=170)
        assert done.returncode == 0, done.stdout
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in SPEC[group]]
        for metric in SPEC[group]:
            assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert line["metrics"]["parallel.cache_hit_rate"]["value"] == 1.0
    assert line["metrics"]["pearl.executed_events_per_op"]["value"] == 0


def test_a_hung_child_is_reaped_with_its_whole_session(monkeypatch):
    """Time-out path: child, server and workers end, scratch is removed."""
    import run
    monkeypatch.setattr(run, "CHILD_TIMEOUT_S", 4)
    monkeypatch.setattr(run, "CHILD_GRACE_S", 20)
    with pytest.raises(SystemExit, match="still running"):
        run.child("service_jobs", 1, seconds=60)
    assert not list((HERE / ".work").glob("*"))
    for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            assert str(HERE / ".work") not in cmdline.read_text()
        except OSError:
            pass                        # the process ended meanwhile


def test_refuses_to_run_without_the_program(tmp_path):
    import shutil
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "benchmarks" / "layered",
                    ignore=shutil.ignore_patterns(".work", "__pycache__",
                                                  "trace-*.json"))
    shutil.copy(HERE.parent.parent / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "benchmarks/layered/run.py", "--workload",
         "sweep_warm", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
