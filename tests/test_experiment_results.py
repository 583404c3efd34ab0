"""Design-space sweeps and persistable experiment records."""

from __future__ import annotations

import pytest

from repro import Sweep, Workbench, generic_multicomputer, vary_machine
from repro.config import ConfigError
from repro.core.results import ExperimentRecord


class TestVaryMachine:
    def test_base_untouched(self):
        base = generic_multicomputer("mesh", (2, 2))
        original_bw = base.network.link_bandwidth
        variants = vary_machine(
            base, lambda m, v: setattr(m.network, "link_bandwidth", v),
            [1.0, 2.0, 3.0])
        assert base.network.link_bandwidth == original_bw
        assert [m.network.link_bandwidth for m in variants] == [1.0, 2.0, 3.0]

    def test_invalid_variant_rejected(self):
        base = generic_multicomputer("mesh", (2, 2))
        with pytest.raises(ConfigError):
            vary_machine(base,
                         lambda m, v: setattr(m.network, "link_bandwidth", v),
                         [-1.0])


class TestSweep:
    def test_single_axis(self):
        sweep = Sweep(generic_multicomputer("mesh", (2, 2)))
        sweep.axis("bw", lambda m, v: setattr(m.network, "link_bandwidth",
                                              v), [1.0, 4.0])
        rows = sweep.run(lambda m: {"bw_out": m.network.link_bandwidth})
        assert rows == [{"bw": 1.0, "bw_out": 1.0},
                        {"bw": 4.0, "bw_out": 4.0}]

    def test_cross_product(self):
        sweep = (Sweep(generic_multicomputer("mesh", (2, 2)))
                 .axis("a", lambda m, v: None, [1, 2, 3])
                 .axis("b", lambda m, v: None, ["x", "y"]))
        rows = sweep.run(lambda m: {})
        assert len(rows) == 6
        assert {(r["a"], r["b"]) for r in rows} == {
            (a, b) for a in (1, 2, 3) for b in ("x", "y")}

    def test_points_are_independent_copies(self):
        sweep = Sweep(generic_multicomputer("mesh", (2, 2)))
        sweep.axis("bw", lambda m, v: setattr(m.network, "link_bandwidth",
                                              v), [1.0, 2.0])
        points = sweep.points()
        assert points[0][1] is not points[1][1]
        assert points[0][1].network.link_bandwidth == 1.0

    def test_empty_axis_rejected(self):
        sweep = Sweep(generic_multicomputer("mesh", (2, 2)))
        with pytest.raises(ValueError):
            sweep.axis("empty", lambda m, v: None, [])

    def test_real_metric_sweep(self):
        sweep = Sweep(generic_multicomputer("mesh", (2, 2)))
        sweep.axis("mul_cost",
                   lambda m, v: m.node.cpu.mul_cycles.update(
                       {k: float(v) for k in m.node.cpu.mul_cycles}),
                   [1, 10])
        from repro.operations import mul
        rows = sweep.run(lambda m: {
            "cycles": Workbench(m).run_single_node([mul()] * 100).cycles})
        assert rows[1]["cycles"] == pytest.approx(10 * rows[0]["cycles"])


class TestExperimentRecord:
    def test_round_trip(self, tmp_path):
        machine = generic_multicomputer("mesh", (2, 2))
        record = ExperimentRecord("X1", "a test experiment", machine,
                                  parameters={"alpha": 1})
        record.add_row(metric=3.5, label="run-a")
        record.add_rows([{"metric": 4.5, "label": "run-b"}])
        path = str(tmp_path / "x1.json")
        record.save(path)
        loaded = ExperimentRecord.load(path)
        assert loaded.experiment_id == "X1"
        assert loaded.parameters == {"alpha": 1}
        assert loaded.rows == [{"metric": 3.5, "label": "run-a"},
                               {"metric": 4.5, "label": "run-b"}]
        assert loaded.machine.n_nodes == 4

    def test_machineless_record(self, tmp_path):
        record = ExperimentRecord("X2", "no machine attached")
        record.add_row(v=1)
        path = str(tmp_path / "x2.json")
        record.save(path)
        loaded = ExperimentRecord.load(path)
        assert loaded.machine is None
        assert loaded.rows == [{"v": 1}]
