"""Parameter calibration by micro-benchmarking (Section 3).

"Every model has a set of machine parameters that is calibrated with
published information or by benchmarking.  [Application descriptions]
may range from full-blown parallel programs to small benchmarks used to
tune and validate the machine parameters of the simulation models."

This module provides those small benchmarks: synthetic kernels that run
*through the models* and fit the effective parameters back out, so a
user can check that a configured machine behaves like its datasheet
(and, inversely, fit a config to published measurements).
"""

from __future__ import annotations

import numpy as np

from ..commmodel.network import MultiNodeModel
from ..compmodel.hierarchy import AccessKind
from ..compmodel.node import SingleNodeModel
from ..core.config import MachineConfig
from ..operations.ops import recv, send

__all__ = ["measure_memory_latencies", "measure_link_parameters",
           "measure_arithmetic_throughput", "CalibrationReport"]


class CalibrationReport:
    """Configured-vs-measured parameter table."""

    def __init__(self, machine_name: str) -> None:
        self.machine_name = machine_name
        self.rows: list[dict] = []

    def add(self, parameter: str, configured: float, measured: float,
            unit: str) -> None:
        self.rows.append({
            "parameter": parameter,
            "configured": configured,
            "measured": measured,
            "unit": unit,
            "relative_error": (abs(measured - configured)
                               / configured if configured else 0.0),
        })

    def format(self) -> str:
        lines = [f"Calibration report: {self.machine_name}",
                 f"{'parameter':<28}{'configured':>14}{'measured':>14}"
                 f"{'unit':>12}{'rel.err':>10}"]
        for r in self.rows:
            lines.append(
                f"{r['parameter']:<28}{r['configured']:>14.4g}"
                f"{r['measured']:>14.4g}{r['unit']:>12}"
                f"{r['relative_error']:>10.2%}")
        return "\n".join(lines)


def _walk_latency(machine: MachineConfig, region_bytes: int, stride: int,
                  accesses: int = 4096) -> float:
    """Mean cycles per load of a pointer walk over ``region_bytes``.

    Runs on a fresh node model: a warm-up pass, then the measured pass.
    """
    hier = SingleNodeModel(machine.node).hierarchy
    # Cover the whole region at least twice so a level smaller than
    # the region cannot satisfy the steady-state pass from residue.
    n = max(accesses, 2 * (region_bytes // max(stride, 1)))
    addrs = [(i * stride) % region_bytes for i in range(n)]
    for a in addrs:                     # warm-up pass
        hier.access_cycles(AccessKind.READ, a, 8)
    total = 0.0
    for a in addrs:                     # measured pass
        total += hier.access_cycles(AccessKind.READ, a, 8)
    return total / n


def measure_memory_latencies(machine: MachineConfig,
                             accesses: int = 4096) -> dict[str, float]:
    """Effective per-access latency at each hierarchy level.

    Three pointer-walk kernels sized to hit in L1, in the last cache
    level, and in memory; returns mean cycles per load for each.
    """
    results: dict[str, float] = {}
    levels = machine.node.cache_levels
    if levels:
        l1 = levels[0].data
        results["l1_hit_cycles"] = _walk_latency(
            machine, l1.size_bytes // 2, l1.line_bytes, accesses)
        last = levels[-1].data
        if len(levels) > 1:
            results["last_level_cycles"] = _walk_latency(
                machine, last.size_bytes // 2, last.line_bytes, accesses)
        # Far exceed the last level to force memory fills every line.
        results["memory_cycles_per_line"] = _walk_latency(
            machine, last.size_bytes * 8, last.line_bytes, accesses)
    else:
        results["memory_cycles_per_line"] = _walk_latency(
            machine, 1 << 20, 8, accesses)
    return results


def measure_link_parameters(machine: MachineConfig,
                            sizes: tuple[int, ...] = (64, 256, 1024, 4096,
                                                      16384),
                            repeats: int = 4) -> dict[str, float]:
    """Fit the latency model  T(n) = alpha + beta * n  from ping-pong.

    Returns ``alpha`` (zero-byte one-way latency, cycles), ``beta``
    (cycles per byte) and the implied bandwidth in bytes/cycle —
    directly comparable to ``NetworkConfig.link_bandwidth``.
    """
    lat: list[float] = []
    for size in sizes:
        net = MultiNodeModel(machine)
        a, b = 0, net.n_nodes - 1
        ops_a = []
        ops_b = []
        for _ in range(repeats):
            ops_a += [send(size, b), recv(b)]
            ops_b += [recv(a), send(size, a)]
        streams: list[list] = [[] for _ in range(net.n_nodes)]
        streams[a] = ops_a
        streams[b] = ops_b
        res = net.run(streams)
        # Round trip time / 2 = one-way latency.
        lat.append(res.total_cycles / (2 * repeats))
    beta, alpha = np.polyfit(np.asarray(sizes, dtype=float),
                             np.asarray(lat), 1)
    return {
        "alpha_cycles": float(alpha),
        "beta_cycles_per_byte": float(beta),
        "effective_bandwidth": float(1.0 / beta) if beta > 0 else float("inf"),
        "latencies": dict(zip(sizes, lat)),
    }


def measure_arithmetic_throughput(machine: MachineConfig,
                                  n_ops: int = 10000) -> dict[str, float]:
    """Cycles per arithmetic op, per kind — checks the CPU cost tables."""
    from ..operations.ops import add, div, mul
    from ..operations.optypes import ArithType

    out: dict[str, float] = {}
    for label, op in (("int_add", add(ArithType.INT)),
                      ("double_mul", mul(ArithType.DOUBLE)),
                      ("double_div", div(ArithType.DOUBLE))):
        node = SingleNodeModel(machine.node)
        result = node.run_trace([op] * n_ops)
        out[label] = result.cycles / n_ops
    return out


def calibrate(machine: MachineConfig) -> CalibrationReport:
    """Full calibration sweep; compare against the configured values."""
    report = CalibrationReport(machine.name)
    levels = machine.node.cache_levels
    if levels:
        # The one latency reported: walk L1 only.
        l1 = levels[0].data
        report.add("l1_hit_cycles", l1.hit_cycles,
                   _walk_latency(machine, l1.size_bytes // 2,
                                 l1.line_bytes), "cycles")
    link = measure_link_parameters(machine)
    report.add("link_bandwidth", machine.network.link_bandwidth,
               link["effective_bandwidth"], "B/cycle")
    arith = measure_arithmetic_throughput(machine)
    cpu = machine.node.cpu
    from ..operations.optypes import ArithType
    report.add("int_add_cycles", cpu.add_cycles[ArithType.INT],
               arith["int_add"], "cycles")
    report.add("double_mul_cycles", cpu.mul_cycles[ArithType.DOUBLE],
               arith["double_mul"], "cycles")
    return report
