"""Observability layer: Tracer, Chrome export, MetricRegistry.

Covers the record/ring-buffer semantics, the structural contract of the
Chrome ``trace_event`` exporter (plus a golden snapshot of a full
pingpong trace), registry namespacing/flattening, and the end-to-end
wiring through the communication model.
"""

from __future__ import annotations

import json

import pytest

from repro.commmodel.message import reset_message_ids
from repro.commmodel.network import MultiNodeModel
from repro.observe import MetricRegistry, Tracer, validate_chrome_trace
from repro.pearl import Channel, Resource, Simulator, TallyMonitor
from repro import generic_multicomputer
from repro.apps import pingpong_task_traces

from .test_determinism import check_golden


# ---------------------------------------------------------------------------
# Tracer core
# ---------------------------------------------------------------------------

class TestTracer:
    def test_records_and_counts(self):
        tracer = Tracer()
        tracer.span("process", "hold", 0.0, 5.0, "p0")
        tracer.instant("channel", "send", 1.0, "ch")
        tracer.counter(2.0, "queue", 3)
        assert len(tracer) == 3
        assert tracer.emitted == 3
        assert tracer.dropped == 0
        assert tracer.counts_by_category() == {
            "process": 1, "channel": 1, "occupancy": 1}

    def test_ring_buffer_keeps_last_n(self):
        tracer = Tracer(capacity=3)
        for i in range(10):
            tracer.instant("kernel", "step", float(i), "p")
        assert len(tracer) == 3
        assert tracer.emitted == 10
        assert tracer.dropped == 7
        assert [r.ts for r in tracer.records] == [7.0, 8.0, 9.0]

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_clear(self):
        tracer = Tracer()
        tracer.instant("kernel", "step", 0.0, "p")
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.emitted == 0


class TestChromeExport:
    def _small_trace(self) -> Tracer:
        tracer = Tracer()
        tracer.span("process", "hold", 0.0, 5.0, "p0")
        tracer.instant("channel", "send", 1.0, "ch", {"n": 1})
        tracer.counter(2.0, "nic0.buffered", 2, cat="nic")
        return tracer

    def test_document_shape(self):
        doc = self._small_trace().to_chrome()
        counts = validate_chrome_trace(doc)
        # 3 tracks (p0, ch, nic0.buffered) → 3 metadata events.
        assert counts == {"M": 3, "X": 1, "i": 1, "C": 1}
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M"}
        assert names == {"p0", "ch", "nic0.buffered"}

    def test_span_and_instant_fields(self):
        doc = self._small_trace().to_chrome()
        span = next(e for e in doc["traceEvents"] if e["ph"] == "X")
        assert span["dur"] == 5.0
        instant = next(e for e in doc["traceEvents"] if e["ph"] == "i")
        assert instant["s"] == "t"

    def test_export_writes_valid_json(self, tmp_path):
        out = tmp_path / "trace.json"
        doc = self._small_trace().export_chrome(str(out))
        on_disk = json.loads(out.read_text())
        assert on_disk == json.loads(json.dumps(doc))
        validate_chrome_trace(on_disk)

    def test_validator_rejects_broken_documents(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({})
        with pytest.raises(ValueError, match="phase"):
            validate_chrome_trace({"traceEvents": [{"name": "x"}]})
        with pytest.raises(ValueError, match="dur"):
            validate_chrome_trace({"traceEvents": [
                {"ph": "X", "name": "x", "pid": 0, "tid": 0, "ts": 1.0}]})
        with pytest.raises(ValueError, match="timestamp"):
            validate_chrome_trace({"traceEvents": [
                {"ph": "i", "name": "x", "pid": 0, "tid": 0, "ts": -1}]})


# ---------------------------------------------------------------------------
# Kernel + primitive wiring
# ---------------------------------------------------------------------------

class TestKernelWiring:
    def test_hold_and_step_records(self):
        sim = Simulator()
        tracer = Tracer()
        sim.observer = tracer

        def proc():
            yield 2.0
        sim.process(proc(), name="worker")
        sim.run()
        cats = tracer.counts_by_category()
        assert cats["kernel"] == 2          # start + resume
        assert cats["process"] == 1         # one hold span
        hold = next(r for r in tracer.records if r.cat == "process")
        assert (hold.ts, hold.dur, hold.tid) == (0.0, 2.0, "worker")

    def test_channel_records(self):
        sim = Simulator()
        tracer = Tracer()
        sim.observer = tracer
        ch = Channel(sim, name="pipe")

        def sender():
            yield ch.send("x")

        def receiver():
            yield ch.receive()
        sim.process(sender())
        sim.process(receiver())
        sim.run()
        names = [(r.name, r.tid) for r in tracer.records
                 if r.cat == "channel"]
        assert names == [("send", "pipe"), ("recv", "pipe")]

    def test_resource_records(self):
        sim = Simulator()
        tracer = Tracer()
        sim.observer = tracer
        res = Resource(sim, capacity=1, name="bus")

        def user(delay):
            yield delay
            yield from res.use(5.0)
        sim.process(user(0.0))
        sim.process(user(1.0))
        sim.run()
        events = [r.name for r in tracer.records
                  if r.cat == "resource" and r.ph == "i"]
        # First acquires, second queues, two releases.
        assert events == ["acquire", "enqueue", "release", "release"]

    def test_detached_simulation_emits_nothing(self):
        sim = Simulator()

        def proc():
            yield 1.0
        sim.process(proc())
        sim.run()
        assert sim.observer is None


# ---------------------------------------------------------------------------
# MetricRegistry
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_monitor_and_callable_sources(self):
        reg = MetricRegistry()
        lat = reg.tally("net.latency")
        reg.register("nic", lambda: {"sent": 3, "wait": {"mean": 1.5}})
        lat.record(10.0)
        snap = reg.snapshot()
        assert snap["net.latency.count"] == 1
        assert snap["net.latency.mean"] == 10.0
        assert snap["nic.sent"] == 3
        assert snap["nic.wait.mean"] == 1.5          # nested flattening
        assert "net.latency.name" not in snap        # labels skipped

    def test_duplicate_namespace_rejected(self):
        reg = MetricRegistry()
        reg.tally("a")
        with pytest.raises(ValueError, match="already registered"):
            reg.register("a", TallyMonitor("a"))

    def test_bad_source_rejected(self):
        with pytest.raises(TypeError):
            MetricRegistry().register("x", object())
        with pytest.raises(ValueError):
            MetricRegistry().register("", TallyMonitor())

    def test_introspection(self):
        reg = MetricRegistry()
        m = reg.tally("first")
        reg.tally("second")
        assert len(reg) == 2
        assert "first" in reg and "third" not in reg
        assert reg.namespaces() == ["first", "second"]
        assert reg.get("first") is m

    def test_rows_are_sorted(self):
        reg = MetricRegistry()
        reg.register("b", lambda: {"v": 2})
        reg.register("a", lambda: {"v": 1})
        rows = reg.rows()
        assert [r["metric"] for r in rows] == ["a.v", "b.v"]


# ---------------------------------------------------------------------------
# End-to-end: communication model with tracer + registry
# ---------------------------------------------------------------------------

def traced_pingpong():
    """Deterministic pingpong run on the 2x2 mesh with a tracer attached."""
    reset_message_ids()
    machine = generic_multicomputer("mesh", (2, 2))
    model = MultiNodeModel(machine)
    tracer = Tracer()
    model.sim.observer = tracer
    result = model.run(list(pingpong_task_traces(
        model.n_nodes, size=256, repeats=2, b=model.n_nodes - 1)))
    return model, tracer, result


class TestModelWiring:
    def test_model_trace_has_all_record_kinds(self):
        _model, tracer, result = traced_pingpong()
        cats = tracer.counts_by_category()
        for cat in ("kernel", "process", "resource", "network",
                    "message", "nic"):
            assert cats.get(cat, 0) > 0, f"no {cat} records"
        assert result.events_executed > 0
        doc = tracer.to_chrome()
        validate_chrome_trace(doc)

    def test_registry_covers_every_component(self):
        model, _tracer, _result = traced_pingpong()
        snap = model.registry.snapshot()
        assert snap["network.message_latency.count"] > 0
        assert snap["network.traffic.messages_delivered"] > 0
        assert snap["network.packet_latency.mean"] > 0
        assert snap["node0.nic.messages_sent"] > 0
        assert snap["node0.activity.ops_processed"] > 0
        # One activity + one nic namespace per node.
        nodes = model.n_nodes
        assert sum(ns.endswith(".nic") for ns in
                   model.registry.namespaces()) == nodes

    def test_external_registry_is_used(self):
        reg = MetricRegistry()
        machine = generic_multicomputer("mesh", (2, 2))
        model = MultiNodeModel(machine, registry=reg)
        assert model.registry is reg
        assert "network.message_latency" in reg

    def test_golden_chrome_trace_pingpong(self):
        """The full exported Chrome trace is deterministic and pinned.

        Regenerate with ``REPRO_REGEN_GOLDEN=1`` after intentional
        semantic changes.
        """
        _model, tracer, _result = traced_pingpong()
        check_golden("chrome_trace_pingpong", tracer.to_chrome())

    def test_trace_is_reproducible(self):
        def shape():
            _m, tracer, _r = traced_pingpong()
            return [(r.ph, r.cat, r.name, r.ts, r.dur, r.tid)
                    for r in tracer.records]
        assert shape() == shape()
