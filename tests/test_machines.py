"""Machine presets and calibration micro-benchmarks."""

from __future__ import annotations

import pytest

from repro import Workbench
from repro.apps import make_pingpong
from repro.machines import (
    calibrate,
    generic_multicomputer,
    measure_arithmetic_throughput,
    measure_link_parameters,
    measure_memory_latencies,
    powerpc601_node,
    smp_node,
    t805_grid,
)
from repro.operations import ArithType


class TestPresets:
    def test_t805_grid_shape(self):
        m = t805_grid(4, 4)
        assert m.n_nodes == 16
        assert m.network.switching == "store_and_forward"
        assert m.node.cpu.clock_hz == 30e6
        m.validate()

    def test_powerpc601_two_cache_levels(self):
        m = powerpc601_node()
        assert len(m.node.cache_levels) == 2
        assert m.node.cache_levels[0].data.size_bytes == 32 * 1024
        assert m.node.cache_levels[1].data.associativity == 1
        m.validate()

    def test_generic_configurable(self):
        m = generic_multicomputer("hypercube", (4,), switching="wormhole")
        assert m.n_nodes == 16
        assert m.node.cache_levels[0].split

    def test_smp_node(self):
        m = smp_node(8, coherence="msi")
        assert m.node.n_cpus == 8
        assert m.node.coherence == "msi"

    def test_presets_runnable(self):
        res = Workbench(t805_grid(2, 2)).run_hybrid(
            make_pingpong(size=256, repeats=1))
        assert res.total_cycles > 0


@pytest.fixture(scope="module")
def generic_report():
    """One calibration of a generic 2x2 mesh, shared by the tests that
    read its rows."""
    return calibrate(generic_multicomputer("mesh", (2, 2)))


class TestCalibration:
    def test_memory_latency_ordering(self):
        m = powerpc601_node()
        lat = measure_memory_latencies(m, accesses=512)
        assert lat["l1_hit_cycles"] < lat["last_level_cycles"]
        assert lat["last_level_cycles"] < lat["memory_cycles_per_line"]

    def test_l1_latency_matches_config(self, generic_report):
        l1 = generic_multicomputer("mesh", (2, 2)).node.cache_levels[0]
        row = next(row for row in generic_report.rows
                   if row["parameter"] == "l1_hit_cycles")
        assert row["configured"] == l1.data.hit_cycles
        assert row["measured"] == pytest.approx(row["configured"], rel=0.05)

    def test_link_fit_recovers_bandwidth(self):
        m = generic_multicomputer("mesh", (2, 2))
        fit = measure_link_parameters(m)
        assert fit["effective_bandwidth"] == pytest.approx(
            m.network.link_bandwidth, rel=0.25)
        assert fit["alpha_cycles"] > 0

    def test_latency_monotone_in_size(self):
        m = t805_grid(2, 2)
        fit = measure_link_parameters(m, sizes=(64, 1024, 16384))
        lats = list(fit["latencies"].values())
        assert lats == sorted(lats)

    def test_arith_throughput_matches_tables(self):
        m = powerpc601_node()
        arith = measure_arithmetic_throughput(m, n_ops=1000)
        cpu = m.node.cpu
        assert arith["int_add"] == pytest.approx(
            cpu.add_cycles[ArithType.INT])
        assert arith["double_mul"] == pytest.approx(
            cpu.mul_cycles[ArithType.DOUBLE])
        assert arith["double_div"] == pytest.approx(
            cpu.div_cycles[ArithType.DOUBLE])

    def test_full_report(self, generic_report):
        text = generic_report.format()
        assert "l1_hit_cycles" in text
        assert "link_bandwidth" in text
        assert all(r["relative_error"] < 0.5 for r in generic_report.rows)
