"""Analysis tools: slowdown, timelines, reports, statistics."""

from __future__ import annotations

import io

import pytest

from repro import Workbench, generic_multicomputer
from repro.analysis import (
    SlowdownMeter,
    TimelineRecorder,
    comm_report,
    format_table,
    geometric_mean,
    histogram,
    node_report,
    percentiles,
    render_gantt,
    smp_report,
    speedup_table,
)
from repro.apps import ThreadedApplication, make_matmul, make_pingpong
from repro.hybrid import HybridModel
from repro.observe import Tracer
from repro.operations import MemType, add, compute, ifetch, load
from repro.pearl import Observer, Simulator, TallyMonitor


class TestSlowdown:
    def test_measure_math(self):
        meter = SlowdownMeter(host_clock_hz=1e9)

        class FakeResult:
            total_cycles = 1000.0

        m = meter.measure("fake", 4, lambda: FakeResult())
        assert m.target_cycles == 1000.0
        assert m.n_processors == 4
        assert m.slowdown == m.host_cycles / 1000.0
        assert m.slowdown_per_processor == pytest.approx(m.slowdown / 4)
        assert m.target_cycles_per_host_second > 0

    def test_custom_extractor(self):
        meter = SlowdownMeter()
        m = meter.measure("dict", 1, lambda: {"cycles": 5.0},
                          target_cycles_of=lambda r: r["cycles"])
        assert m.target_cycles == 5.0

    def test_format(self):
        meter = SlowdownMeter()
        meter.measure("w", 2, lambda: type("R", (), {"total_cycles": 10.0})())
        out = meter.format()
        assert "w" in out and "slowdown/proc" in out

    def test_real_simulation(self):
        meter = SlowdownMeter()
        wb = Workbench(generic_multicomputer("mesh", (2, 2)))
        m = meter.measure(
            "pingpong", 4,
            lambda: wb.run_hybrid(make_pingpong(size=512, repeats=2)))
        assert m.target_cycles > 0
        assert m.host_seconds > 0


#: The timeline the matmul-scaling example prints for matmul 24 on four
#: generic-mesh nodes (its Gantt chart, then each node's state totals).
MATMUL24_TIMELINE = """\
t = 0 .. 7.01e+04 cycles (1031/col)   #=compute  >=send  <=recv  o=overhead  .=idle
node0         |###################################################################<|
node1         |###################################################################.|
node2         |###################################################################>|
node3         |###################################################################>|
  node0: compute=68,920, recv=1,176
  node1: compute=68,920, idle=771, send=405
  node2: compute=68,920, idle=448, send=728
  node3: compute=68,920, idle=100, send=1,076"""


class TestTimeline:
    def build(self):
        sim = Simulator()
        tracer = Tracer()
        sim.observer = tracer

        def node(name, pattern):
            for state, dur in pattern:
                sim.observer.instant("task", state, sim.now, name)
                yield dur

        sim.process(node("n0", [("compute", 10), ("send", 5),
                                ("compute", 5)]))
        sim.process(node("n1", [("idle", 8), ("recv", 4), ("compute", 8)]))
        sim.run()
        return TimelineRecorder(tracer)

    def test_intervals_and_totals(self):
        rec = self.build()
        totals = rec.state_totals("n0")
        assert totals["compute"] == pytest.approx(15.0)
        assert totals["send"] == pytest.approx(5.0)

    def test_entities_complete(self):
        rec = self.build()
        assert sorted(rec.entities()) == ["n0", "n1"]

    def test_csv_export(self):
        rec = self.build()
        buf = io.StringIO()
        rec.to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "entity,state,start,end"
        assert len(lines) == 1 + len(rec.intervals)

    def test_gantt_renders(self):
        rec = self.build()
        text = render_gantt(rec, width=20)
        assert "n0" in text and "n1" in text
        rows = [l for l in text.splitlines() if l.startswith("n0")]
        assert "#" in rows[0]

    def test_empty_gantt(self):
        rec = TimelineRecorder(Tracer())
        assert "empty" in render_gantt(rec)

    def test_runtime_observer(self):
        # A run-time view sits in the one observer slot and sees each
        # hybrid hand-off as it happens.
        seen = []

        class Probe(Observer):
            def instant(self, cat, name, ts, tid, args=None):
                if cat == "task":
                    seen.append((ts, tid, name.partition("(")[0]))

        model = HybridModel(generic_multicomputer("full", (2,)))
        model.sim.observer = Probe()
        model.run_traces([[compute(10)], []])
        assert seen[0] == (0.0, "node0", "compute")
        assert (10.0, "node0", "end") in seen

    def test_traced_matmul_timeline_matches_example(self):
        model = HybridModel(generic_multicomputer("mesh", (4, 1)))
        tracer = Tracer()
        model.sim.observer = tracer
        model.run_application(ThreadedApplication(make_matmul(n=24), 4))
        rec = TimelineRecorder(tracer)
        lines = [render_gantt(rec, width=68)]
        for entity in rec.entities():
            totals = sorted(rec.state_totals(entity).items())
            lines.append(f"  {entity}: " + ", ".join(
                f"{k}={v:,.0f}" for k, v in totals))
        assert "\n".join(lines) == MATMUL24_TIMELINE


class TestReports:
    def test_format_table(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.25}]
        out = format_table(rows, title="t")
        assert "t" in out and "a" in out and "10" in out

    def test_format_empty(self):
        assert "(no rows)" in format_table([])

    def test_comm_report(self):
        wb = Workbench(generic_multicomputer("mesh", (2, 2)))
        res = wb.run_hybrid(make_pingpong(size=512, repeats=1))
        out = comm_report(res.comm)
        assert "per-node activity" in out
        assert "messages" in out

    def test_node_report(self):
        wb = Workbench(generic_multicomputer("mesh", (2, 2)))
        res = wb.run_single_node([ifetch(0x400000),
                                  load(MemType.FLOAT64, 0), add()])
        out = node_report(res)
        assert "CPI" in out and "cache" in out

    def test_smp_report(self):
        from repro import smp_node
        from repro.operations import store, MemType as MT
        wb = Workbench(smp_node(2))
        res = wb.run_smp([[store(MT.INT64, 0x100)],
                          [store(MT.INT64, 0x100)]])
        out = smp_report(res)
        assert "coherence" in out and "per-CPU" in out


class TestStats:
    def test_histogram_and_percentiles(self):
        m = TallyMonitor(keep_samples=True)
        for v in range(100):
            m.record(float(v))
        h = histogram(m, bins=10)
        assert len(h) == 10
        assert sum(c for _, _, c in h) == 100
        p = percentiles(m, (50, 90))
        assert p[50] == pytest.approx(49.5)

    def test_histogram_requires_samples(self):
        with pytest.raises(ValueError):
            histogram(TallyMonitor())

    def test_empty_percentiles(self):
        assert percentiles(TallyMonitor(keep_samples=True)) == {
            50: 0.0, 90: 0.0, 99: 0.0}

    def test_speedup_table(self):
        rows = speedup_table({1: 100.0, 2: 60.0, 4: 40.0})
        assert rows[0]["speedup"] == pytest.approx(1.0)
        assert rows[1]["speedup"] == pytest.approx(100 / 60)
        assert rows[2]["efficiency"] == pytest.approx(100 / 40 / 4)
        assert speedup_table({}) == []

    def test_geometric_mean(self):
        assert geometric_mean([1, 100]) == pytest.approx(10.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([5.0]) == pytest.approx(5.0)
