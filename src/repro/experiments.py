"""The paper's evaluation as one table of experiment specs.

Every record under ``benchmarks/results/`` — Table 1, the Section-6
slowdown and memory claims, Figs 2-4, the validation, ablation and
extension studies of ``EXPERIMENTS.md`` — is one frozen
:class:`Experiment` in :data:`EXPERIMENTS`: the sweeps it runs, the
reducer that turns their rows into the reported table, and the claims
those rows must satisfy.  :func:`run_experiment` runs every job through
:meth:`repro.core.experiment.Sweep.run`, i.e. the one job body
(pre-flight, cache scan, worker pool, ordered rows) every other front
door uses; ``repro reproduce`` is its CLI and
``tests/test_experiments.py`` pins the simulated columns against the
committed records.

A sweep axis varies the *machine*.  Where an experiment varies the
workload instead, the parameter is bound into the runner with
:func:`functools.partial` and spelled into the cache workload id as
``paper:<ID>:<params>``.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import itertools
import math
import os
import time
import tracemalloc
from typing import Any, Callable, Mapping

import numpy as np

from .analysis import (SlowdownMeter, format_table, geometric_mean,
                       speedup_table)
from .analysis.slowdown import DEFAULT_HOST_CLOCK_HZ
from .apps import (ThreadedApplication, alltoall_task_traces, make_jacobi,
                   make_master_worker, make_matmul, make_pingpong,
                   pingpong_task_traces, pipeline_task_traces)
from .compmodel import SingleNodeModel, extract_tasks
from .core.experiment import Sweep, _AxisSetter
from .core.results import ExperimentRecord
from .core.workbench import Workbench
from .machines import (generic_multicomputer, powerpc601_node, smp_node,
                       t805_grid)
from .operations import (ArithType, MemType, OpCode, add, arecv, asend,
                         branch, call, compute, div, ifetch, load, load_const,
                         mul, recv, ret, send, store, sub)
from .operations.trace import Trace, TraceSet
from .tracegen import (CommunicationBehaviour, MemoryBehaviour,
                       StochasticAppDescription, StochasticGenerator)
from .vsm import SharedRegion

__all__ = ["EXPERIMENTS", "Experiment", "ShapeError", "format_experiment",
           "run_experiment", "save_experiment"]

#: ``(sweep, runner, workload_id)`` — what ``plans.plan_sweep`` returns
Job = tuple[Sweep, Callable[..., dict], str]
Rows = list[dict]


class ShapeError(AssertionError):
    """A claim of the paper's evaluation does not hold over the rows."""


@dataclasses.dataclass(frozen=True)
class Experiment:
    """One evaluation artifact: what to run, how to tabulate, what to claim."""

    id: str
    title: str
    #: the sweeps to run; their rows are concatenated in job order
    jobs: Callable[[], list[Job]]
    #: raises :class:`ShapeError` unless the reported rows show the
    #: paper's claim
    shape: Callable[[Rows], None]
    #: pure reducer from the jobs' rows to the reported rows
    table: Callable[[Rows], Rows] = list
    #: columns measured on the host (wall time, heap): nondeterministic,
    #: so an experiment that has any is never served from the cache
    host_columns: tuple[str, ...] = ()
    #: constants recorded beside the rows
    parameters: Mapping[str, Any] = dataclasses.field(default_factory=dict)


def run_experiment(exp: Experiment, *, workers: int = 1,
                   cache: Any = None) -> Rows:
    """The reported rows of ``exp``, every job run by ``Sweep.run``."""
    if exp.host_columns:
        cache = None
    rows: Rows = []
    for sweep, runner, workload_id in exp.jobs():
        rows += sweep.run(runner, workers=workers, cache=cache,
                          workload_id=workload_id, on_error="raise")
    return exp.table(rows)


def format_experiment(exp: Experiment, rows: Rows) -> str:
    """Title plus one table per run of rows with the same columns."""
    tables = [format_table(list(group))
              for _, group in itertools.groupby(rows, key=tuple)]
    return "\n\n".join([f"{exp.id}: {exp.title}", *tables])


def save_experiment(exp: Experiment, rows: Rows, out_dir: str) -> None:
    """Write ``<id>.json`` (the record) and ``<id>.txt`` (the tables)."""
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, exp.id)
    record = ExperimentRecord(exp.id, exp.title, parameters=exp.parameters)
    record.add_rows(rows)
    record.save(stem + ".json")
    with open(stem + ".txt", "w") as fp:
        fp.write(format_experiment(exp, rows) + "\n")


# -- shared helpers ----------------------------------------------------------

def _claim(holds: bool, claim: str) -> None:
    if not holds:
        raise ShapeError(claim)


def _near(value: float, expected: float, rel: float,
          abs_tol: float = 0.0) -> bool:
    return abs(value - expected) <= max(rel * abs(expected), abs_tol)


def _leading(*columns: str) -> Callable[[Rows], Rows]:
    """A reducer that moves ``columns`` to the front of every row."""
    return lambda rows: [{**{c: row[c] for c in columns}, **row}
                         for row in rows]


def _per_value(exp_id: str, machine, runner, name: str, values) -> list[Job]:
    """One single-point job per value of a *workload* parameter."""
    return [(Sweep(machine), functools.partial(runner, **{name: value}),
             f"paper:{exp_id}:{name}={value}") for value in values]


def _host_seconds(fn: Callable[[], Any]) -> tuple[Any, float]:
    """``(fn(), its wall seconds)`` — host time is the measurand."""
    gc.collect()       # earlier points' garbage is not this run's cost
    t0 = time.perf_counter()                     # repro: noqa[PY002]
    result = fn()
    return result, time.perf_counter() - t0      # repro: noqa[PY002]


def _accurate_vs_mean_task(wb: Workbench, run_accurate, traces):
    """Time the accurate run, then the comm-only rerun of ``traces`` with
    every computational run replaced by the accurate run's mean task —
    the information a fast-prototyping user would have (Fig 2, A1).

    Returns ``(accurate, fast, accurate_host_s, fast_host_s)``.
    """
    accurate, accurate_s = _host_seconds(run_accurate)
    mean_task = (sum(t.total_task_cycles for t in accurate.task_stats)
                 / max(sum(t.tasks_emitted for t in accurate.task_stats), 1))
    approx = []
    for trace in traces:
        ops: list = []
        in_task = False
        for op in trace:
            if op.code in (OpCode.SEND, OpCode.RECV, OpCode.ASEND,
                           OpCode.ARECV):
                if in_task:
                    ops.append(compute(mean_task))
                    in_task = False
                ops.append(op)
            else:
                in_task = True
        if in_task:
            ops.append(compute(mean_task))
        approx.append(Trace(trace.node, ops))
    fast, fast_s = _host_seconds(
        lambda: wb.run_comm_only(TraceSet(approx)))
    return accurate, fast, accurate_s, fast_s


# -- T1: Table 1, the operation set ------------------------------------------

_T1_COMPUTATIONAL = [
    ("load(mem-type, address)", load(MemType.FLOAT64, 0x1000),
     "accessing memory"),
    ("store(mem-type, address)", store(MemType.FLOAT64, 0x1008),
     "accessing memory"),
    ("load([f]constant)", load_const(MemType.FLOAT64), "accessing memory"),
    ("add(type)", add(ArithType.DOUBLE), "performing arithmetic"),
    ("sub(type)", sub(ArithType.DOUBLE), "performing arithmetic"),
    ("mul(type)", mul(ArithType.DOUBLE), "performing arithmetic"),
    ("div(type)", div(ArithType.DOUBLE), "performing arithmetic"),
    ("ifetch(address)", ifetch(0x400000), "instruction fetching"),
    ("branch(address)", branch(0x400040), "instruction fetching"),
    ("call(address)", call(0x400100), "instruction fetching"),
    ("ret(address)", ret(0x400104), "instruction fetching"),
]
_T1_COMMUNICATION = [
    ("send(message-size, destination)", [send(1024, 1)], [recv(0)],
     "synchronous communication"),
    ("recv(source)", [send(1024, 1)], [recv(0)],
     "synchronous communication"),
    ("asend(message-size, destination)", [asend(1024, 1)], [arecv(0)],
     "asynchronous communication"),
    ("arecv(source)", [asend(1024, 1)], [arecv(0)],
     "asynchronous communication"),
    ("compute(duration)", [compute(500.0)], [], "computation"),
]


def _t1_computational(machine) -> dict:
    """Warm (second-execution) cost of each computational operation."""
    costs = {}
    for name, op, _ in _T1_COMPUTATIONAL:
        node = SingleNodeModel(machine.node)
        node.op_cycles(op)
        costs[name] = node.op_cycles(op)
    return costs


def _t1_communication(machine) -> dict:
    return {name: Workbench(machine).run_comm_only(
                [list(ops0), list(ops1), [], []]).total_cycles
            for name, ops0, ops1, _ in _T1_COMMUNICATION}


def _t1_table(rows: Rows) -> Rows:
    comp, comm = rows
    return ([{"operation": name, "category": category,
              "warm_cycles": comp[name]}
             for name, _, category in _T1_COMPUTATIONAL]
            + [{"operation": name, "category": category,
                "simulated_cycles": comm[name]}
               for name, _, _, category in _T1_COMMUNICATION])


def _t1_shape(rows: Rows) -> None:
    _claim(len(rows) == 16, "all 16 operations of Table 1 are exercised")
    _claim(all(r.get("warm_cycles", 1) > 0 for r in rows),
           "every computational operation has a positive cost")


# -- S6a/S6b/S6ab: Section 6 slowdown ----------------------------------------

def _stochastic_task_traces(n: int, mean_task: float, rounds: int,
                            seed: int, **comm):
    desc = StochasticAppDescription(mean_task_cycles=mean_task,
                                    comm=CommunicationBehaviour(**comm))
    return StochasticGenerator(desc, n, seed=seed).generate_task_level(rounds)


def _stochastic_instr_traces(n: int, ops: int, seed: int, **desc):
    gen = StochasticGenerator(StochasticAppDescription(**desc), n, seed=seed)
    return gen.generate_instruction_level(ops)


_T805_2X2 = functools.partial(t805_grid, 2, 2)

#: label -> (machine, Workbench mode, workload builder over the number of
#: simulated processors — one for ``run_single_node``, else every node)
_SLOWDOWN = {
    "matmul-24 @ t805-2x2 (hybrid)":
        (_T805_2X2, "run_hybrid", lambda n: make_matmul(n=24)),
    "jacobi-24x24x3 @ t805-2x2 (hybrid)":
        (_T805_2X2, "run_hybrid",
         lambda n: make_jacobi(grid=24, iterations=3)),
    # Most simulated cycles of a ping-pong are link transfers with no
    # instructions behind them: the communication-dominated outlier.
    "pingpong-4k @ t805-2x2 (comm-dominated)":
        (_T805_2X2, "run_hybrid",
         lambda n: make_pingpong(size=4096, repeats=8)),
    "stochastic-60k @ ppc601 (single node)":
        (powerpc601_node, "run_single_node",
         lambda n: _stochastic_instr_traces(n, 60_000, seed=3)[0]),
    "compute-heavy (200k cyc/task) @ t805-4x4":
        (t805_grid, "run_comm_only",
         lambda n: _stochastic_task_traces(
             n, 200_000.0, 40, seed=11, min_message_bytes=256,
             max_message_bytes=4096)),
    "comm-heavy (2k cyc/task) @ t805-4x4":
        (t805_grid, "run_comm_only",
         lambda n: _stochastic_task_traces(
             n, 2_000.0, 40, seed=11, min_message_bytes=256,
             max_message_bytes=4096)),
    "alltoall task traces @ t805-4x4":
        (t805_grid, "run_comm_only",
         lambda n: alltoall_task_traces(n, block_bytes=1024, rounds=4,
                                        compute_cycles=50_000.0)),
    "pipeline task traces @ t805-4x4":
        (t805_grid, "run_comm_only",
         lambda n: pipeline_task_traces(n, items=16, item_bytes=2048,
                                        stage_cycles=100_000.0)),
    "detailed (instruction level)":
        (_T805_2X2, "run_mixed_traces",
         lambda n: _stochastic_instr_traces(n, 40_000, seed=5,
                                            mean_task_cycles=50_000.0)),
    "fast prototyping (task level)":
        (_T805_2X2, "run_comm_only",
         lambda n: _stochastic_task_traces(n, 50_000.0, 20, seed=5)),
}
_SLOWDOWN_HOST_COLUMNS = ("host_seconds", "slowdown", "slowdown_per_processor",
                          "target_cycles_per_host_second")


def _slowdown_point(machine, label: str) -> dict:
    """One ``SlowdownMeter`` row; only the simulate call is timed."""
    _, mode, build = _SLOWDOWN[label]
    n = 1 if mode == "run_single_node" else machine.n_nodes
    workload = build(n)
    simulate = getattr(Workbench(machine), mode)
    gc.collect()       # earlier points' garbage is not this run's cost
    return SlowdownMeter().measure(
        label, n, lambda: simulate(workload),
        target_cycles_of=lambda r: getattr(r, "total_cycles", None)
        or r.cycles).summary()


def _slowdown_jobs(exp_id: str, labels) -> list[Job]:
    return [(Sweep(_SLOWDOWN[label][0]()),
             functools.partial(_slowdown_point, label=label),
             f"paper:{exp_id}:{label}") for label in labels]


def _slowdown_table(rows: Rows) -> Rows:
    """Append the band over the compute-bearing workloads."""
    per_proc = [r["slowdown_per_processor"] for r in rows
                if "comm-dominated" not in r["label"]]
    return rows + [{"measured_range": [min(per_proc), max(per_proc)],
                    "geometric_mean": geometric_mean(per_proc)}]


def _s6a_shape(rows: Rows) -> None:
    *points, band = rows
    _claim(all(r["target_cycles"] > 0 for r in points),
           "every workload simulates some target cycles")
    _claim(band["measured_range"][0] > 10,
           "detailed mode costs well over 10 host cycles per simulated "
           "cycle per processor for anything that executes instructions")


def _s6b_shape(rows: Rows) -> None:
    compute_heavy, comm_heavy = rows[0], rows[1]
    _claim(comm_heavy["slowdown_per_processor"]
           > compute_heavy["slowdown_per_processor"],
           "task-level slowdown grows with the communication share")


def _s6ab_table(rows: Rows) -> Rows:
    detailed, task = rows
    return rows + [{"ratio": detailed["slowdown_per_processor"]
                    / max(task["slowdown_per_processor"], 1e-12)}]


def _s6ab_shape(rows: Rows) -> None:
    # Fifteen readings on the recording host span 48-70x; the floor
    # leaves a loaded host a factor of two.
    _claim(rows[-1]["ratio"] > 25,
           "detailed mode is well over an order of magnitude slower than "
           "task level")


# -- S6c: Section 6 memory usage ---------------------------------------------

def _peak_heap_mib(fn: Callable[[], Any]) -> float:
    """Peak traced heap (MiB) while running ``fn``."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / (1 << 20)
    finally:
        tracemalloc.stop()


def _s6c_working_set(machine, ws_mib: float) -> dict:
    trace = _stochastic_instr_traces(
        1, 30_000, seed=1, memory=MemoryBehaviour(
            working_set_bytes=int(ws_mib * (1 << 20))))[0]
    return {"simulated_working_set_mib": ws_mib,
            "simulator_peak_heap_mib": _peak_heap_mib(
                lambda: Workbench(machine).run_single_node(trace))}


def _s6c_ws_shape(rows: Rows) -> None:
    ratio = (rows[-1]["simulator_peak_heap_mib"]
             / max(rows[0]["simulator_peak_heap_mib"], 1e-9))
    _claim(ratio < 1.5, "a 1024x larger simulated working set does not "
                        f"grow the simulator heap (grew {ratio:.2f}x)")


def _s6c_nodes(machine) -> dict:
    traces = _stochastic_task_traces(machine.n_nodes, 10_000.0, 10, seed=2)
    return {"simulator_peak_heap_mib": _peak_heap_mib(
        lambda: Workbench(machine).run_comm_only(traces))}


def _s6c_nodes_shape(rows: Rows) -> None:
    first, last = rows[0], rows[-1]
    _claim(last["simulator_peak_heap_mib"]
           / max(first["simulator_peak_heap_mib"], 1e-9)
           < 4 * last["nodes"] / first["nodes"],
           "heap grows at most linearly with the node count")


# -- F2: the hybrid model ----------------------------------------------------

def _f2_point(machine) -> dict:
    wb = Workbench(machine)
    program = make_jacobi(grid=24, iterations=4)
    hybrid, comm_only, hybrid_s, comm_only_s = _accurate_vs_mean_task(
        wb, lambda: wb.run_hybrid(program),
        ThreadedApplication(program, wb.n_nodes).record())
    return {
        "hybrid_cycles": hybrid.total_cycles,
        "comm_only_cycles": comm_only.total_cycles,
        "hybrid_host_s": hybrid_s, "comm_only_host_s": comm_only_s,
        # The tasks fed into the network are exactly the cycles the
        # node models charged.
        "tasks_consistent": all(
            math.isclose(act.compute_cycles, stats.total_task_cycles,
                         rel_tol=1e-6)
            for act, stats in zip(hybrid.comm.activity, hybrid.task_stats)),
    }


def _f2_table(rows: Rows) -> Rows:
    (run,) = rows
    return [
        {"mode": "hybrid (Fig 2, both models)",
         "predicted_cycles": run["hybrid_cycles"],
         "host_seconds": run["hybrid_host_s"]},
        {"mode": "comm-only (mean-task approx.)",
         "predicted_cycles": run["comm_only_cycles"],
         "host_seconds": run["comm_only_host_s"]},
        {"prediction_divergence":
            abs(run["comm_only_cycles"] - run["hybrid_cycles"])
            / run["hybrid_cycles"],
         "tasks_consistent": run["tasks_consistent"],
         "host_speedup": run["hybrid_host_s"]
            / max(run["comm_only_host_s"], 1e-9)},
    ]


def _f2_shape(rows: Rows) -> None:
    _claim(rows[-1]["tasks_consistent"],
           "the network consumed exactly the node models' cycles")
    _claim(rows[-1]["host_speedup"] > 2,
           "the comm-only path is cheaper on the host")


# -- F3a: the single-node template -------------------------------------------

@functools.lru_cache(maxsize=1)      # one workload for all 14 points
def _f3a_trace():
    return _stochastic_instr_traces(
        1, 40_000, seed=21, memory=MemoryBehaviour(
            working_set_bytes=96 * 1024, sequential_fraction=0.4))[0]


def _f3a_point(machine) -> dict:
    res = Workbench(machine).run_single_node(_f3a_trace())
    l1 = next(v for k, v in res.memory_summary["caches"].items()
              if "L1" in k)
    return {"cycles": res.cycles, "cpi": res.cpi,
            "l1_hit_rate": l1["hit_rate"]}


def _f3a_jobs(axis: str, mutate, values) -> Callable[[], list[Job]]:
    return lambda: [(Sweep(powerpc601_node()).axis(axis, mutate, values),
                     _f3a_point, "paper:F3a:stochastic-40k")]


def _set_l1_kib(machine, kib: int) -> None:
    machine.node.cache_levels[0].data.size_bytes = kib * 1024


def _set_l1_ways(machine, ways: int) -> None:
    machine.node.cache_levels[0].data.associativity = ways


def _set_dram_cycles(machine, cycles: int) -> None:
    machine.node.memory.access_cycles = float(cycles)


def _f3a_size_shape(rows: Rows) -> None:
    cycles = [r["cycles"] for r in rows]
    _claim(all(a >= b * 0.999 for a, b in zip(cycles, cycles[1:])),
           "a bigger L1 never hurts")
    _claim(rows[-1]["l1_hit_rate"] >= rows[0]["l1_hit_rate"],
           "a bigger L1 hits more often")


def _f3a_assoc_shape(rows: Rows) -> None:
    _claim(rows[-1]["cycles"] <= rows[0]["cycles"] * 1.001,
           "direct-mapped does not beat 8-way on a conflict-prone load")


def _f3a_mem_shape(rows: Rows) -> None:
    cycles = [r["cycles"] for r in rows]
    _claim(cycles == sorted(cycles), "slower DRAM never helps")


# -- F3b: the multi-node template --------------------------------------------

_F3B_TOPOLOGIES = {"ring": (16,), "mesh": (4, 4), "torus": (4, 4),
                   "hypercube": (4,),
                   "fat_tree": (2, 4)}    # 16 leaves + 15 switches
_SWITCHINGS = ["store_and_forward", "virtual_cut_through", "wormhole"]


def _set_topology(machine, kind: str) -> None:
    machine.network.topology.kind = kind
    machine.network.topology.dims = _F3B_TOPOLOGIES[kind]
    # Dimension order is undefined on trees; use the table.
    machine.network.routing = ("shortest_path" if kind == "fat_tree"
                               else "dimension_order")


def _alltoall(machine):
    return Workbench(machine).run_comm_only(alltoall_task_traces(
        machine.n_nodes, block_bytes=1024, rounds=2, compute_cycles=2_000.0))


def _f3b_point(machine) -> dict:
    n = machine.n_nodes
    a2a = _alltoall(machine)
    # Long-haul single-packet ping-pong (latency, not throughput): the
    # farthest partner; on a ring n-1 is adjacent, use n/2.
    far = n // 2 if machine.network.topology.kind == "ring" else n - 1
    pp = Workbench(machine).run_comm_only(pingpong_task_traces(
        n, size=200, repeats=4, b=far))
    return {"alltoall_cycles": a2a.total_cycles,
            "pingpong_latency": pp.message_latency.mean,
            "max_link_util": max(a2a.link_utilization.values())}


def _f3b_jobs() -> list[Job]:
    sweep = (Sweep(generic_multicomputer("mesh", (4, 4)), "fig3b")
             .axis("topology", _set_topology, list(_F3B_TOPOLOGIES))
             .axis("switching", _AxisSetter("network.switching"), _SWITCHINGS))
    return [(sweep, _f3b_point, "paper:F3b:alltoall-1k+pingpong-200")]


def _f3b_shape(rows: Rows) -> None:
    by = {(r["topology"], r["switching"]): r for r in rows}
    _claim(by["hypercube", "wormhole"]["alltoall_cycles"]
           < by["ring", "wormhole"]["alltoall_cycles"],
           "a richer topology finishes the all-to-all sooner")
    # (The wormhole comparison is confounded by dateline-VC serialization.)
    _claim(by["torus", "store_and_forward"]["alltoall_cycles"]
           <= by["mesh", "store_and_forward"]["alltoall_cycles"] * 1.05,
           "wraparound links help: torus beats mesh under SAF")
    for kind in _F3B_TOPOLOGIES:
        saf = by[kind, "store_and_forward"]["pingpong_latency"]
        _claim(by[kind, "wormhole"]["pingpong_latency"] <= saf * 1.001
               and by[kind, "virtual_cut_through"]["pingpong_latency"]
               <= saf * 1.001,
               f"pipelined switching beats SAF on multi-hop {kind} paths")


def _f3b_routing_point(machine) -> dict:
    res = _alltoall(machine)
    return {"alltoall_cycles": res.total_cycles,
            "mean_latency": res.message_latency.mean}


def _f3b_routing_jobs() -> list[Job]:
    sweep = Sweep(generic_multicomputer("torus", (4, 4))).axis(
        "routing", _AxisSetter("network.routing"),
        ["dimension_order", "shortest_path"])
    return [(sweep, _f3b_routing_point, "paper:F3b-routing:alltoall-1k")]


def _f3b_routing_shape(rows: Rows) -> None:
    ratio = rows[0]["alltoall_cycles"] / rows[1]["alltoall_cycles"]
    _claim(0.5 < ratio < 2.0, "both routings are minimal on a torus")


# -- F4: the application-modelling paths -------------------------------------

def _f4_reality_task(machine) -> float:
    """Record the program, extract its tasks, run them comm-only."""
    recorded = ThreadedApplication(make_jacobi(grid=24, iterations=4),
                                   machine.n_nodes).record()
    tasks = [Trace(tr.node, list(extract_tasks(
                SingleNodeModel(machine.node, node_id=tr.node), tr)))
             for tr in recorded]
    return Workbench(machine).run_comm_only(TraceSet(tasks)).total_cycles


def _f4_stochastic(machine, level: str) -> float:
    desc = StochasticAppDescription(
        mean_task_cycles=30_000.0,
        comm=CommunicationBehaviour(pattern="neighbour",
                                    min_message_bytes=192,
                                    max_message_bytes=192,
                                    mean_ops_between_rounds=10_000))
    return Workbench(machine).run_stochastic(
        desc, level=level, ops_per_node=40_000, rounds=4,
        seed=4).total_cycles


#: path -> (label suffix, the path from workload to predicted cycles)
_F4_PATHS = {
    "reality/instruction":
        (" (paper's operational path)",
         lambda m: Workbench(m).run_hybrid(
             make_jacobi(grid=24, iterations=4)).total_cycles),
    "reality/task": (" (extracted tasks)", _f4_reality_task),
    "stochastic/instruction":
        ("", functools.partial(_f4_stochastic, level="instruction")),
    "stochastic/task": ("", functools.partial(_f4_stochastic, level="task")),
}


def _f4_point(machine, path: str) -> dict:
    suffix, run = _F4_PATHS[path]
    origin, level = path.split("/")
    # The whole path is the measurand: trace generation is its cost.
    cycles, host_s = _host_seconds(lambda: run(machine))
    return {"path": path + suffix, "origin": origin, "level": level,
            "predicted_cycles": cycles, "host_seconds": host_s}


def _f4_shape(rows: Rows) -> None:
    by = {f"{r['origin']}/{r['level']}": r for r in rows}
    _claim(_near(by["reality/task"]["predicted_cycles"],
                 by["reality/instruction"]["predicted_cycles"], rel=0.05),
           "task extraction preserves the reality-based prediction")
    _claim(by["stochastic/task"]["host_seconds"]
           < by["stochastic/instruction"]["host_seconds"],
           "the task-level path is cheaper on the host")
    _claim(all(r["predicted_cycles"] > 0 for r in rows),
           "all four quadrants are operational")


# -- V1: ping-pong latency model ---------------------------------------------

_V1_SIZES = (8, 64, 512, 4096, 32768)


def _v1_point(machine) -> dict:
    hops = machine.network.topology.dims[0] - 1
    return {f"T({size})": Workbench(machine).run_comm_only(
                pingpong_task_traces(machine.n_nodes, size=size, repeats=4,
                                     b=hops)).message_latency.mean
            for size in _V1_SIZES}


def _v1_jobs() -> list[Job]:
    base = generic_multicomputer("mesh", (2, 1))
    # Single-packet regime keeps the affine model exact.
    base.network.packet_bytes = max(_V1_SIZES) + 1
    sweep = (Sweep(base)
             .axis("switching", _AxisSetter("network.switching"), _SWITCHINGS)
             .axis("hops", lambda m, hops: setattr(
                 m.network.topology, "dims", (hops + 1, 1)), [1, 4]))
    return [(sweep, _v1_point, "paper:V1:pingpong-8..32768")]


def _v1_table(rows: Rows) -> Rows:
    """Fit T(n) = alpha + beta*n per (switching, hops) series."""
    out = []
    for row in rows:
        latencies = {k: v for k, v in row.items() if k.startswith("T(")}
        beta, alpha = np.polyfit(np.array(_V1_SIZES, dtype=float),
                                 np.array(list(latencies.values())), 1)
        out.append({"switching": row["switching"], "hops": row["hops"],
                    "alpha_cycles": float(alpha),
                    "beta_cyc_per_byte": float(beta),
                    "bandwidth_B_per_cyc": 1.0 / float(beta), **latencies})
    return out


def _v1_shape(rows: Rows) -> None:
    by = {(r["switching"], r["hops"]): r for r in rows}
    for sw in _SWITCHINGS:
        _claim(_near(by[sw, 1]["bandwidth_B_per_cyc"], 4.0, rel=0.05),
               f"{sw} recovers the configured 4 B/cycle at one hop")
    saf = "store_and_forward"
    _claim(_near(by[saf, 4]["beta_cyc_per_byte"],
                 4 * by[saf, 1]["beta_cyc_per_byte"], rel=0.05),
           "SAF pays the bandwidth once per hop")
    for sw in ("virtual_cut_through", "wormhole"):
        _claim(_near(by[sw, 4]["beta_cyc_per_byte"],
                     by[sw, 1]["beta_cyc_per_byte"], rel=0.05),
               f"{sw} keeps beta hop-independent")
        _claim(by[sw, 4]["alpha_cycles"] > by[sw, 1]["alpha_cycles"],
               f"{sw} path setup grows with distance")
    for r in rows:
        _claim(all(_near(r[f"T({n})"],
                         r["alpha_cycles"] + r["beta_cyc_per_byte"] * n,
                         rel=0.08, abs_tol=30) for n in _V1_SIZES),
               "latency is affine in the message size")


# -- V2: application speedup -------------------------------------------------

_V2_NODE_COUNTS = (1, 2, 4, 8, 16)
_V2_PROGRAMS = {
    "matmul32": lambda: make_matmul(n=32),
    "jacobi32": lambda: make_jacobi(grid=32, iterations=3),
    "matmul12_small": lambda: make_matmul(n=12),
}


def _v2_point(machine, workload: str) -> dict:
    return {"time": Workbench(machine).run_hybrid(
                _V2_PROGRAMS[workload]()).total_cycles,
            "workload": workload}


def _v2_jobs() -> list[Job]:
    return [(Sweep(generic_multicomputer("mesh", (1, 1))).axis(
                "nodes", lambda m, n: setattr(m.network.topology, "dims",
                                              (n, 1)), _V2_NODE_COUNTS),
             functools.partial(_v2_point, workload=workload),
             f"paper:V2:{workload}") for workload in _V2_PROGRAMS]


def _v2_table(rows: Rows) -> Rows:
    return [{**r, "workload": workload}
            for workload, group in itertools.groupby(
                rows, key=lambda r: r["workload"])
            for r in speedup_table({r["nodes"]: r["time"] for r in group})]


def _v2_shape(rows: Rows) -> None:
    by = {(r["workload"], r["nodes"]): r for r in rows}
    _claim(by["matmul32", 16]["speedup"] > 4,
           "16 nodes beat one on the big matmul")
    for workload in ("matmul32", "jacobi32"):
        _claim(by[workload, 16]["efficiency"] < by[workload, 2]["efficiency"],
               f"{workload} efficiency decays with the node count")
    _claim(by["matmul12_small", 16]["efficiency"]
           < by["matmul32", 16]["efficiency"],
           "the small problem stops scaling earlier")


# -- A1: abstraction level vs accuracy ---------------------------------------

def _a1_point(machine, ops_between_comm: int) -> dict:
    traces = _stochastic_instr_traces(
        machine.n_nodes, 40_000, seed=13, comm=CommunicationBehaviour(
            mean_ops_between_rounds=ops_between_comm))
    wb = Workbench(machine)
    accurate, fast, accurate_s, fast_s = _accurate_vs_mean_task(
        wb, lambda: wb.run_mixed_traces(traces), traces)
    return {"ops_between_comm": ops_between_comm,
            "accurate_cycles": accurate.total_cycles,
            "fast_cycles": fast.total_cycles,
            "prediction_error": abs(fast.total_cycles - accurate.total_cycles)
            / accurate.total_cycles,
            "host_speedup": accurate_s / max(fast_s, 1e-9)}


def _a1_shape(rows: Rows) -> None:
    _claim(all(r["host_speedup"] > 3 for r in rows),
           "the fast mode buys a large host saving at every granularity")
    _claim(all(r["prediction_error"] < 0.25 for r in rows),
           "its error stays bounded on statistically homogeneous loads")


# -- A2/A3: coherence protocols, styles and fabrics --------------------------

def _passes(base: int, lines: int, reps: int, *makers) -> list:
    """``reps`` passes over ``lines`` cache lines from ``base``."""
    return [make(MemType.INT64, base + i * 32)
            for _ in range(reps) for i in range(lines) for make in makers]


#: sharing pattern -> the op stream of one CPU
_A2_PATTERNS = {
    # each CPU reads then writes its own region
    "private": lambda cpu: _passes(0x100000 * (cpu + 1), 64, 4, load, store),
    # CPU 0 writes a shared buffer, the others read it
    "producer_consumer": lambda cpu: _passes(
        0x200000, 64, 4, store if cpu == 0 else load),
    # every CPU read-modify-writes the same lines (lock-like)
    "migratory": lambda cpu: _passes(0x300000, 16, 8, load, store),
}


def _a2_point(machine, pattern: str) -> dict:
    res = Workbench(machine).run_smp(
        [_A2_PATTERNS[pattern](cpu) for cpu in range(machine.node.n_cpus)])
    coh = res.coherence_summary
    return {"pattern": pattern, "cycles": res.total_cycles,
            "bus_transactions": coh["transactions"],
            "upgrades": coh["bus_upgr"],
            "invalidations": coh["invalidations"],
            "cache_to_cache": coh["cache_to_cache"]}


def _a2_jobs() -> list[Job]:
    return [(Sweep(smp_node(4)).axis("protocol", _AxisSetter("node.coherence"),
                                     ["msi", "mesi"]),
             functools.partial(_a2_point, pattern=pattern),
             f"paper:A2:{pattern}") for pattern in _A2_PATTERNS]


def _a2_shape(rows: Rows) -> None:
    by = {(r["pattern"], r["protocol"]): r for r in rows}
    msi, mesi = by["private", "msi"], by["private", "mesi"]
    _claim(mesi["upgrades"] == 0 < msi["upgrades"]
           and mesi["bus_transactions"] < msi["bus_transactions"]
           and mesi["cycles"] <= msi["cycles"],
           "on private data MESI eliminates MSI's write-upgrade traffic")
    _claim(by["producer_consumer", "msi"]["cycles"]
           == by["producer_consumer", "mesi"]["cycles"],
           "E never arises under producer/consumer: protocols identical")
    # Migratory counts are phase-sensitive: reported, only their
    # presence is claimed.
    _claim(all(by["migratory", p]["invalidations"] > 0
               and by["migratory", p]["cache_to_cache"] > 0
               for p in ("msi", "mesi")),
           "migratory sharing shows real coherence traffic under both")


_A3_STYLES = {"snoopy/bus": ("snoopy", "bus"),
              "directory/bus": ("directory", "bus"),
              "directory/crossbar": ("directory", "crossbar")}


def _set_style(machine, label: str) -> None:
    machine.node.coherence_style, machine.node.fabric = _A3_STYLES[label]


def _a3_point(machine) -> dict:
    """Disjoint per-CPU streaming: pure capacity traffic, no sharing."""
    res = Workbench(machine).run_smp(
        [_passes(0x100000 * (cpu + 1), 128, 2, load)
         for cpu in range(machine.node.n_cpus)])
    return {"workload": "private", "cycles": res.total_cycles,
            "transactions": res.coherence_summary["transactions"]}


def _a3_jobs() -> list[Job]:
    sweep = (Sweep(smp_node(2))
             .axis("cpus", _AxisSetter("node.n_cpus"), [2, 4, 8])
             .axis("style", _set_style, list(_A3_STYLES)))
    return [(sweep, _a3_point, "paper:A3:private-streaming")]


def _a3_shape(rows: Rows) -> None:
    by = {(r["style"], r["cpus"]): r["cycles"] for r in rows}
    _claim(by["directory/crossbar", 8] < by["snoopy/bus", 8]
           and by["directory/crossbar", 8] < by["directory/bus", 8],
           "crossbar transfers overlap: it beats both buses at 8 CPUs")
    _claim(by["directory/bus", 2] >= by["snoopy/bus", 2] * 0.9,
           "on the same bus the directory pays its lookup latency")
    _claim(by["directory/crossbar", 8] < 2 * by["directory/crossbar", 4],
           "doubling CPUs less than doubles crossbar runtime")
    _claim(by["snoopy/bus", 8] >= 1.5 * by["snoopy/bus", 4],
           "the saturated bus scales at best linearly")


# -- E1: virtual shared memory -----------------------------------------------

_E1_POINTS, _E1_ITERS = 512, 3


def _e1_message_program(ctx) -> None:
    """1-D stencil with a hand-written halo exchange."""
    me, p = ctx.node_id, ctx.n_nodes
    local = _E1_POINTS // p
    U = ctx.global_var("U", MemType.FLOAT64, local + 2)
    for _ in ctx.loop(range(_E1_ITERS)):
        if me % 2 == 0:
            if me + 1 < p:
                ctx.send(me + 1, 8)
                ctx.recv(me + 1)
            if me > 0:
                ctx.send(me - 1, 8)
                ctx.recv(me - 1)
        else:
            ctx.recv(me - 1)
            ctx.send(me - 1, 8)
            if me + 1 < p:
                ctx.recv(me + 1)
                ctx.send(me + 1, 8)
        for i in ctx.loop(range(1, local + 1)):
            ctx.read(U, i - 1)
            ctx.read(U, i + 1)
            ctx.add(ArithType.DOUBLE)
            ctx.write(U, i)


def _e1_vsm_program(ctx, page_bytes: int) -> None:
    """The same stencil against a SharedRegion: zero explicit sends."""
    me, n = ctx.node_id, _E1_POINTS
    local = n // ctx.n_nodes
    grid = SharedRegion(ctx, f"grid{page_bytes}", n, MemType.FLOAT64,
                        page_bytes=page_bytes)
    for _ in ctx.loop(range(_E1_ITERS)):
        for i in ctx.loop(range(me * local, (me + 1) * local)):
            grid.read(max(i - 1, 0))
            grid.read(min(i + 1, n - 1))
            ctx.add(ArithType.DOUBLE)
            grid.write(i)
        ctx.barrier()


def _e1_messages(machine) -> dict:
    res = Workbench(machine).run_hybrid(_e1_message_program)
    return {"variant": "explicit messages", "page_bytes": 0,
            "cycles": res.total_cycles, "faults": 0, "bytes_moved": 0}


def _e1_vsm(machine, page_bytes: int) -> dict:
    res = Workbench(machine).run_vsm(
        functools.partial(_e1_vsm_program, page_bytes=page_bytes))
    return {"variant": f"vsm page={page_bytes}", "page_bytes": page_bytes,
            "cycles": res.total_cycles, "faults": res.faults,
            "bytes_moved": res.vsm["page_bytes_moved"]}


def _e1_jobs() -> list[Job]:
    machine = generic_multicomputer("mesh", (4, 1))
    return [(Sweep(machine), _e1_messages, "paper:E1:explicit-messages"),
            *_per_value("E1", machine, _e1_vsm, "page_bytes",
                        (256, 1024, 4096))]


def _e1_shape(rows: Rows) -> None:
    messages, *vsm = rows
    _claim(all(messages["cycles"] < r["cycles"] < 20 * messages["cycles"]
               for r in vsm),
           "transparency costs something, within an order of magnitude")
    _claim(vsm[0]["faults"] >= vsm[-1]["faults"],
           "bigger pages amortize: fewer faults")


# -- E2: runtime-system level, dynamic scheduling ----------------------------

_E2_TASKS = 32


def _e2_point(machine) -> dict:
    collect: dict = {}
    res = Workbench(machine).run_hybrid(make_master_worker(
        n_tasks=_E2_TASKS, mean_flops=600, seed=7, task_bytes=8192,
        collect=collect))
    assignments = collect["assignments"]
    return {"cycles": res.total_cycles,
            **{f"tasks_w{w}": collect["per_worker"][w] for w in (1, 2, 3)},
            "schedule": [assignments[t] for t in sorted(assignments)]}


def _e2_jobs() -> list[Job]:
    sweep = Sweep(generic_multicomputer("mesh", (2, 2))).axis(
        "link_bandwidth", _AxisSetter("network.link_bandwidth"),
        [0.25, 1.0, 4.0, 16.0])
    return [(sweep, _e2_point, f"paper:E2:farm-{_E2_TASKS}-seed7")]


def _e2_table(rows: Rows) -> Rows:
    """Replace each schedule by its divergence from the fastest machine's."""
    reference = rows[-1]["schedule"]
    return [{**{k: v for k, v in row.items() if k != "schedule"},
             "tasks_reassigned_vs_fastest":
                 sum(a != b for a, b in zip(row["schedule"], reference))}
            for row in rows]


def _e2_shape(rows: Rows) -> None:
    cycles = [r["cycles"] for r in rows]
    _claim(cycles == sorted(cycles, reverse=True),
           "faster links finish sooner, monotonically")
    _claim(all(r["tasks_w1"] + r["tasks_w2"] + r["tasks_w3"] == _E2_TASKS
               for r in rows), "every machine completes all tasks")
    _claim(rows[0]["tasks_reassigned_vs_fastest"] > 0
           and rows[-1]["tasks_reassigned_vs_fastest"] == 0,
           "the slowest machine's schedule differs from the fastest's")


# -- the table ---------------------------------------------------------------

_MESH_2X2 = functools.partial(generic_multicomputer, "mesh", (2, 2))

EXPERIMENTS: dict[str, Experiment] = {exp.id: exp for exp in (
    Experiment(
        "T1", "Table 1: the operation set, all 16 operations exercised",
        lambda: [(Sweep(powerpc601_node()), _t1_computational,
                  "paper:T1:computational"),
                 (Sweep(_MESH_2X2()), _t1_communication,
                  "paper:T1:communication")],
        _t1_shape, _t1_table),
    Experiment(
        "S6a", "Section 6 detailed-mode slowdown (paper: 750-4000/proc)",
        lambda: _slowdown_jobs("S6a", list(_SLOWDOWN)[:4]),
        _s6a_shape, _slowdown_table,
        host_columns=(*_SLOWDOWN_HOST_COLUMNS, "measured_range",
                      "geometric_mean"),
        parameters={"host_clock_hz": DEFAULT_HOST_CLOCK_HZ,
                    "paper_range": [750, 4000]}),
    Experiment(
        "S6b", "Section 6 task-level slowdown (paper: 0.5-4/proc)",
        lambda: _slowdown_jobs("S6b", list(_SLOWDOWN)[4:8]),
        _s6b_shape, _slowdown_table,
        host_columns=(*_SLOWDOWN_HOST_COLUMNS, "measured_range",
                      "geometric_mean"),
        parameters={"host_clock_hz": DEFAULT_HOST_CLOCK_HZ,
                    "paper_range": [0.5, 4]}),
    Experiment(
        "S6ab", "detailed vs task-level slowdown ratio "
        "(paper: ~187x-8000x from the two reported ranges)",
        lambda: _slowdown_jobs("S6ab", list(_SLOWDOWN)[8:]),
        _s6ab_shape, _s6ab_table,
        host_columns=(*_SLOWDOWN_HOST_COLUMNS, "ratio")),
    Experiment(
        "S6c-ws", "simulator heap vs simulated working set (claim: flat — "
        "caches hold tags, memory contents never modelled)",
        lambda: _per_value("S6c-ws", powerpc601_node(), _s6c_working_set,
                           "ws_mib", (0.25, 4, 64, 256)),
        _s6c_ws_shape, host_columns=("simulator_peak_heap_mib",)),
    Experiment(
        "S6c-nodes", "simulator heap vs node count (claim: bounded by the "
        "per-node models/trace state, not simulated memory)",
        lambda: [(Sweep(t805_grid(2, 2)).axis(
                      "nodes", lambda m, n: setattr(
                          m.network.topology, "dims", (math.isqrt(n),) * 2),
                      [4, 16, 64]),
                  _s6c_nodes, "paper:S6c-nodes:stochastic-task-10")],
        _s6c_nodes_shape, host_columns=("simulator_peak_heap_mib",)),
    Experiment(
        "F2", "Fig 2: hybrid computational+communication co-simulation vs "
        "comm-only fast prototyping",
        lambda: [(Sweep(_MESH_2X2()), _f2_point, "paper:F2:jacobi-24x24x4")],
        _f2_shape, _f2_table, host_columns=("host_seconds", "host_speedup")),
    Experiment(
        "F3a-size", "Fig 3a template: L1 size sweep on PPC601-like node",
        _f3a_jobs("l1_kib", _set_l1_kib, [4, 8, 16, 32, 64, 128]),
        _f3a_size_shape),
    Experiment(
        "F3a-assoc", "Fig 3a template: L1 associativity sweep",
        _f3a_jobs("l1_ways", _set_l1_ways, [1, 2, 4, 8]), _f3a_assoc_shape),
    Experiment(
        "F3a-mem", "Fig 3a template: DRAM access latency sweep",
        _f3a_jobs("dram_access_cycles", _set_dram_cycles, [10, 20, 40, 80]),
        _f3a_mem_shape),
    Experiment(
        "F3b", "Fig 3b template: topology x switching design space, "
        "16 nodes, all-to-all + long-haul ping-pong",
        _f3b_jobs, _f3b_shape),
    Experiment(
        "F3b-routing", "Fig 3b template: routing strategy comparison",
        _f3b_routing_jobs, _f3b_routing_shape),
    Experiment(
        "F4", "Fig 4: all four application-modelling paths "
        "(paper had only reality/instruction operational)",
        lambda: _per_value("F4", _MESH_2X2(), _f4_point, "path", _F4_PATHS),
        _f4_shape, host_columns=("host_seconds",)),
    Experiment(
        "V1", "ping-pong latency vs size: affine fit per switching "
        "strategy and hop count",
        _v1_jobs, _v1_shape, _v1_table,
        parameters={"configured_bandwidth": 4.0, "sizes": list(_V1_SIZES)}),
    Experiment(
        "V2", "application speedup on 1..16 nodes (generic machine)",
        _v2_jobs, _v2_shape, _v2_table,
        parameters={"node_counts": list(_V2_NODE_COUNTS)}),
    Experiment(
        "A1", "ablation: task-level approximation error and host saving "
        "vs communication granularity",
        lambda: _per_value("A1", _MESH_2X2(), _a1_point, "ops_between_comm",
                           (500, 2_000, 10_000)),
        _a1_shape, host_columns=("host_speedup",)),
    Experiment(
        "A2", "ablation: MSI vs MESI bus traffic by sharing pattern "
        "(4-CPU SMP node)",
        _a2_jobs, _a2_shape, _leading("pattern", "protocol")),
    Experiment(
        "A3", "extension: snoopy/bus vs directory/bus vs "
        "directory/crossbar, private-data streaming, 2-8 CPUs",
        _a3_jobs, _a3_shape, _leading("workload", "style", "cpus")),
    Experiment(
        "E1", "extension: VSM (paper's future work) vs explicit message "
        "passing, 1-D stencil, page-size sweep",
        _e1_jobs, _e1_shape),
    Experiment(
        "E2", "extension: self-scheduling task farm; schedule divergence "
        "across link bandwidths (same program + seed)",
        _e2_jobs, _e2_shape, _e2_table),
)}
