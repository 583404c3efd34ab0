"""Kernel hot-path performance benchmark — the PR-6 trajectory record.

Measures the simulation hot path (Pearl kernel dispatch + batched
computational model + site-cached annotation translation) against the
seed per-op implementation, which lives on as the test oracle: the
"seed" side runs under ``tests.reference_kernel.reference_stack()``
(heap-only reference kernel, scalar cost loop).  The two are proven
byte-identical by ``tests/test_kernel_equivalence.py`` and
``tests/test_batch_equivalence`` properties, so this file measures
*only* host speed.

Event metric
------------
One **event** is either

* a Pearl kernel event executed by the simulator
  (``Simulator.events_executed``: process resumptions, channel
  completions, timer fires), or
* one trace operation processed by a node model (ifetches, memory
  accesses, arithmetic, communication ops).

``events_per_sec = (kernel events + trace operations) / wall seconds``
over the S6a detailed-mode scenario (Section 6 of the paper): the
matmul/Jacobi/ping-pong mix on a T805-like 2x2 grid plus a stochastic
instruction-level workload on the PowerPC-601 node model.

Regeneration workflow
---------------------
Run on a quiet machine and commit the refreshed baseline::

    PYTHONPATH=src python benchmarks/bench_perf_kernel.py --repeats 5
    git add BENCH_kernel.json

CI gate (tiny scenario, machine-independent ratio check)::

    PYTHONPATH=src python benchmarks/bench_perf_kernel.py --check

``--check`` validates that the committed ``BENCH_kernel.json`` is
well-formed, re-times the tiny scenario under both kernels, and fails
(exit 1) if the measured fast/seed speedup ratio regressed more than
20% below the committed tiny-scenario baseline.  Comparing *ratios*
rather than absolute events/sec keeps the gate meaningful on CI
machines of any speed.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]  # repro, tests

DEFAULT_JSON = REPO_ROOT / "BENCH_kernel.json"
SCHEMA = "repro-bench-kernel/1"
HOST_CLOCK_HZ = 2.0e9
#: --check fails when the measured tiny fast/seed ratio drops below
#: this fraction of the committed baseline ratio.
REGRESSION_TOLERANCE = 0.8

EVENTS_DEFINITION = (
    "kernel events executed by the Pearl simulator plus trace operations "
    "processed by the node models, divided by best-of-N wall seconds")

#: The recorded optimisation trajectory (aggregate S6a speedup vs seed).
PERF_TRAJECTORY = [
    {"stage": "seed", "aggregate_speedup": 1.0,
     "note": "per-op heap dispatch, per-op cost lookup, per-op "
             "annotation allocation"},
    {"stage": "kernel ring dispatch", "aggregate_speedup": 1.6,
     "note": "FastSimulator: same-time ready ring with preallocated "
             "slots and bound-method dispatch (pearl/kernel.py)"},
    {"stage": "batched computational model", "aggregate_speedup": 2.03,
     "note": "table-driven cost rows, inlined L1 lane, chunked "
             "InterleavedStream pulls, batch-flushed statistics "
             "(compmodel/batch.py)"},
    {"stage": "site-cached annotation ops", "aggregate_speedup": 2.6,
     "note": "AnnotationTranslator reuses the immutable per-site "
             "ifetch/loadc/arith/branch operations (tracegen/"
             "annotate.py)"},
]


# -- scenario -----------------------------------------------------------

def _workloads(tiny: bool):
    """The S6a quartet as (name, n_processors, thunk) triples."""
    from repro import Workbench, powerpc601_node, t805_grid
    from repro.apps import make_jacobi, make_matmul, make_pingpong
    from repro.tracegen import (StochasticAppDescription,
                                StochasticGenerator)

    if tiny:
        n, grid, iters, size, reps, stoch = 12, 12, 2, 1024, 4, 12_000
    else:
        n, grid, iters, size, reps, stoch = 24, 24, 3, 4096, 8, 60_000

    gen = StochasticGenerator(StochasticAppDescription(), 1, seed=3)
    trace = gen.generate_instruction_level(stoch)[0]

    def hybrid(app_factory):
        return Workbench(t805_grid(2, 2)).run_hybrid(app_factory())

    return [
        ("matmul", 4,
         lambda: hybrid(lambda: make_matmul(n=n))),
        ("jacobi", 4,
         lambda: hybrid(lambda: make_jacobi(grid=grid, iterations=iters))),
        ("pingpong", 4,
         lambda: hybrid(lambda: make_pingpong(size=size, repeats=reps))),
        ("stochastic", 1,
         lambda: Workbench(powerpc601_node()).run_single_node(trace)),
    ]


def _count_events(result) -> tuple[int, int]:
    """(kernel events, trace operations) of one workload result."""
    comm = getattr(result, "comm", None)
    if comm is not None:                       # HybridResult
        trace_ops = sum(ts.computational_ops + ts.communication_ops
                        for ts in result.task_stats)
        return comm.events_executed, trace_ops
    return 0, result.instructions              # NodeResult


def _measure_mode(tiny: bool, repeats: int) -> dict:
    """Best-of-``repeats`` wall time + event counts of the scenario."""
    from repro.analysis.slowdown import SlowdownMeasurement

    rows: dict[str, dict] = {}
    for name, procs, thunk in _workloads(tiny):
        best = math.inf
        result = None
        for _ in range(repeats):
            # Host-side measurement: wall time IS the measurand.
            t0 = time.perf_counter()           # repro: noqa[PY002]
            result = thunk()
            best = min(best, time.perf_counter() - t0)  # repro: noqa[PY002]
        kernel_events, trace_ops = _count_events(result)
        cycles = float(getattr(result, "total_cycles", 0.0)
                       or getattr(result, "cycles", 0.0))
        m = SlowdownMeasurement(name, best, cycles, procs, HOST_CLOCK_HZ)
        rows[name] = {
            "wall_s": best,
            "kernel_events": kernel_events,
            "trace_ops": trace_ops,
            "events": kernel_events + trace_ops,
            "events_per_sec": (kernel_events + trace_ops) / best,
            "target_cycles": cycles,
            "slowdown_per_processor": m.slowdown_per_processor,
        }
    total_wall = sum(r["wall_s"] for r in rows.values())
    total_events = sum(r["events"] for r in rows.values())
    return {
        "workloads": rows,
        "total_wall_s": total_wall,
        "total_events": total_events,
        "events_per_sec": total_events / total_wall,
    }


def _measure_scenario(tiny: bool, repeats: int) -> dict:
    from tests.reference_kernel import kernel_stack

    modes = {}
    for mode in ("seed", "fast"):
        with kernel_stack(mode) as built:
            modes[mode] = _measure_mode(tiny, repeats)
        assert bool(built) == (mode == "seed"), "seed side not on the oracle"
    seed, fast = modes["seed"], modes["fast"]
    per_workload = {
        name: seed["workloads"][name]["wall_s"]
        / fast["workloads"][name]["wall_s"]
        for name in fast["workloads"]}
    return {
        "modes": modes,
        "speedup": {
            "aggregate": seed["total_wall_s"] / fast["total_wall_s"],
            "events_per_sec_ratio": (fast["events_per_sec"]
                                     / seed["events_per_sec"]),
            "per_workload": per_workload,
        },
    }


# -- sweep cache --------------------------------------------------------

def _sweep_point_runner(machine) -> dict:
    """Module-level (picklable) runner for the cache-hit-rate probe."""
    from repro import Workbench
    from repro.apps import make_pingpong
    res = Workbench(machine).run_hybrid(make_pingpong(size=256, repeats=2))
    return {"cycles": res.total_cycles}


def _sweep_cache_stats() -> dict:
    """Run a 3-point sweep twice against one cache; report the hit rate."""
    from repro import generic_multicomputer, vary_machine
    from repro.parallel import ParallelSweepRunner, ResultCache

    base = generic_multicomputer("mesh", (2, 2))
    bandwidths = [0.5, 1.0, 2.0]
    machines = vary_machine(
        base, lambda m, bw: setattr(m.network, "link_bandwidth", bw),
        bandwidths)
    points = [({"link_bandwidth": bw}, m)
              for bw, m in zip(bandwidths, machines)]
    with tempfile.TemporaryDirectory() as root:
        cache = ResultCache(root)
        runner = ParallelSweepRunner(workers=1, cache=cache)
        runner.run(_sweep_point_runner, points)   # cold pass: misses
        runner.run(_sweep_point_runner, points)   # warm pass: hits
        stats = cache.stats
        lookups = stats.hits + stats.misses
        return {
            "points": len(points),
            "lookups": lookups,
            "hits": stats.hits,
            "misses": stats.misses,
            "stores": stats.stores,
            "hit_rate": stats.hits / lookups if lookups else 0.0,
        }


# -- trio wall times ----------------------------------------------------

def _trio_wall_times(repeats: int) -> dict:
    """Wall times of the pingpong/taskfarm/matmul trio."""
    from repro import Workbench, t805_grid
    from repro.apps import make_master_worker, make_matmul, make_pingpong

    thunks = {
        "pingpong": lambda: Workbench(t805_grid(2, 2)).run_hybrid(
            make_pingpong(size=4096, repeats=8)),
        "taskfarm": lambda: Workbench(t805_grid(2, 2)).run_hybrid(
            make_master_worker(n_tasks=16, mean_flops=600, seed=7,
                               task_bytes=8192)),
        "matmul": lambda: Workbench(t805_grid(2, 2)).run_hybrid(
            make_matmul(n=24)),
    }
    out = {}
    for name, thunk in thunks.items():
        best = math.inf
        for _ in range(repeats):
            t0 = time.perf_counter()           # repro: noqa[PY002]
            thunk()
            best = min(best, time.perf_counter() - t0)  # repro: noqa[PY002]
        out[name] = best
    return out


# -- report -------------------------------------------------------------

def build_report(repeats: int) -> dict:
    full = _measure_scenario(tiny=False, repeats=repeats)
    tiny = _measure_scenario(tiny=True, repeats=max(repeats, 5))
    return {
        "schema": SCHEMA,
        "scenario": ("S6a detailed-mode mix: matmul-24 / jacobi-24x24x3 / "
                     "pingpong-4k on t805_grid(2,2) hybrids + "
                     "stochastic-60k on powerpc601_node"),
        "events_definition": EVENTS_DEFINITION,
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "repeats": repeats,
        "modes": full["modes"],
        "speedup": full["speedup"],
        "tiny": {
            "speedup_aggregate": tiny["speedup"]["aggregate"],
            "modes": {
                mode: {"total_wall_s": m["total_wall_s"],
                       "events_per_sec": m["events_per_sec"]}
                for mode, m in tiny["modes"].items()},
        },
        "sweep_cache": _sweep_cache_stats(),
        "trio_wall_s": _trio_wall_times(repeats),
        "perf_trajectory": PERF_TRAJECTORY,
    }


def validate_report(data: dict) -> list[str]:
    """Well-formedness problems of a BENCH_kernel.json payload."""
    problems = []
    if data.get("schema") != SCHEMA:
        problems.append(f"schema is {data.get('schema')!r}, "
                        f"expected {SCHEMA!r}")
    for mode in ("seed", "fast"):
        m = data.get("modes", {}).get(mode)
        if not isinstance(m, dict):
            problems.append(f"modes.{mode} missing")
            continue
        if not (isinstance(m.get("events_per_sec"), (int, float))
                and m["events_per_sec"] > 0):
            problems.append(f"modes.{mode}.events_per_sec not positive")
        if not m.get("workloads"):
            problems.append(f"modes.{mode}.workloads empty")
    speedup = data.get("speedup", {}).get("aggregate")
    if not (isinstance(speedup, (int, float)) and speedup > 0):
        problems.append("speedup.aggregate not positive")
    tiny = data.get("tiny", {}).get("speedup_aggregate")
    if not (isinstance(tiny, (int, float)) and tiny > 0):
        problems.append("tiny.speedup_aggregate not positive")
    cache = data.get("sweep_cache", {})
    if not (0.0 <= cache.get("hit_rate", -1.0) <= 1.0):
        problems.append("sweep_cache.hit_rate out of range")
    trio = data.get("trio_wall_s", {})
    for name in ("pingpong", "taskfarm", "matmul"):
        if not (isinstance(trio.get(name), (int, float))
                and trio[name] > 0):
            problems.append(f"trio_wall_s.{name} not positive")
    if not data.get("perf_trajectory"):
        problems.append("perf_trajectory empty")
    return problems


def run_check(path: Path, repeats: int) -> int:
    """The CI gate: well-formedness + tiny-scenario regression check."""
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"FAIL: cannot read {path}: {exc}")
        return 1
    problems = validate_report(data)
    if problems:
        print(f"FAIL: {path} is malformed:")
        for p in problems:
            print(f"  - {p}")
        return 1
    print(f"{path.name}: well-formed "
          f"(committed aggregate speedup {data['speedup']['aggregate']:.2f}x)")

    baseline = data["tiny"]["speedup_aggregate"]
    measured = _measure_scenario(
        tiny=True, repeats=max(repeats, 5))["speedup"]["aggregate"]
    floor = REGRESSION_TOLERANCE * baseline
    print(f"tiny scenario fast/seed speedup: measured {measured:.2f}x, "
          f"committed baseline {baseline:.2f}x, floor {floor:.2f}x")
    if measured < floor:
        print(f"FAIL: events/sec regressed more than "
              f"{(1 - REGRESSION_TOLERANCE):.0%} vs the committed "
              "baseline; investigate, or regenerate BENCH_kernel.json "
              "if the change is intended (see module docstring)")
        return 1
    print("OK: no kernel performance regression")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tiny", action="store_true",
                        help="time only the tiny scenario; print, do not "
                             "write the JSON")
    parser.add_argument("--check", action="store_true",
                        help="validate the committed JSON and gate on the "
                             "tiny-scenario speedup ratio (CI mode)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N repeats per workload (default 3)")
    parser.add_argument("--output", type=Path, default=DEFAULT_JSON,
                        help="output path (default: repo-root "
                             "BENCH_kernel.json)")
    args = parser.parse_args(argv)

    if args.check:
        return run_check(args.output, args.repeats)
    if args.tiny:
        tiny = _measure_scenario(tiny=True, repeats=args.repeats)
        print(json.dumps(tiny, indent=2))
        return 0
    report = build_report(args.repeats)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    agg = report["speedup"]["aggregate"]
    print(f"wrote {args.output} (aggregate fast/seed speedup "
          f"{agg:.2f}x; events/sec fast "
          f"{report['modes']['fast']['events_per_sec']:,.0f}, seed "
          f"{report['modes']['seed']['events_per_sec']:,.0f})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
