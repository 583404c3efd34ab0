"""Per-layer probes: each layer's public entry points, driven alone.

A traced workload run says how an op's wall time splits over the
layers it crosses; these probes add what a span around a whole call
cannot show: the bare kernel's event rate, each switching engine on
the same traffic, the cost of one cache key / get / put, what the
pool and the async executor add per variant, the phases of one job on
the server.  They do not depend on the workload being traced, take
about ten seconds together, and every timed call is also recorded as
a span so it shows in ``results/trace-probes.json``.

Host times are medians of a few repeats where a call is cheap, single
shots where it is not (server start, the worker-count ratios).  The
``*.events``, ``*.messages`` and ``*_hit_rate`` values are simulated
counts and repeat exactly.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

import inputs
from workloads import (SRC, ServeProcess, detailed_apps, extract_node_tasks,
                       make_sweep)

__all__ = ["run_all"]


class _Probe:
    """Times calls; every call becomes a span of its layer."""

    def __init__(self, tracer: Any) -> None:
        self.tracer = tracer

    def time(self, layer: str, name: str, fn: Callable[[], Any],
             repeats: int = 1) -> tuple[float, Any]:
        """(median wall seconds over ``repeats`` calls, last result)."""
        walls, result = [], None
        for _ in range(repeats):
            with self.tracer.span(layer, name) as span:
                result = fn()
            walls.append(span.duration)
        return statistics.median(walls), result


# -- pearl --------------------------------------------------------------------


def _hold_model(sim: Any) -> None:
    def body(delay: float):
        for _ in range(400):
            yield delay
    for p in range(64):
        sim.process(body(1.0 + p / 64.0), name=f"hold{p}")


def _channel_model(sim: Any) -> None:
    from repro.pearl import Channel

    def sender(chan: Any):
        for n in range(300):
            yield chan.send(n)
            yield 1.0

    def receiver(chan: Any):
        for _ in range(300):
            yield chan.receive()
    for p in range(32):
        chan = Channel(sim, capacity=1)
        sim.process(sender(chan), name=f"send{p}")
        sim.process(receiver(chan), name=f"recv{p}")


def _resource_model(sim: Any) -> None:
    from repro.pearl import Resource

    bus = Resource(sim, capacity=1, name="bus")

    def body():
        for _ in range(150):
            yield from bus.use(1.0)
            yield 0.5
    for p in range(32):
        sim.process(body(), name=f"user{p}")


def pearl(probe: _Probe) -> dict:
    from repro.pearl import Simulator

    out, events = {}, 0
    for key, build in (("hold", _hold_model), ("channel", _channel_model),
                       ("resource", _resource_model)):
        def drive() -> int:
            sim = Simulator()
            build(sim)
            sim.run()
            return sim.events_executed
        wall, executed = probe.time("pearl", f"drive_{key}", drive, 3)
        out[f"pearl.{key}_events_per_s"] = executed / wall
        events += executed
    out["pearl.events"] = events
    return out


# -- commmodel, topology ------------------------------------------------------


def commmodel(probe: _Probe) -> dict:
    from repro import FaultPlan, Workbench, generic_multicomputer
    from repro.apps import alltoall_task_traces
    from repro.commmodel.network import MultiNodeModel
    from repro.faults import LinkFault

    traces = alltoall_task_traces(16, block_bytes=2048, rounds=2)
    out, events, messages, walls = {}, 0, 0, 0.0
    for key, engine in zip(("saf", "vct", "wormhole"), inputs.ENGINES):
        wb = Workbench(generic_multicomputer("mesh", (4, 4),
                                             switching=engine))
        wall, res = probe.time("commmodel", f"alltoall_{key}",
                               lambda: wb.run_comm_only(traces), 3)
        out[f"commmodel.{key}_events_per_s"] = res.events_executed / wall
        events += res.events_executed
        messages += res.messages_delivered
        walls += wall
    out["commmodel.us_per_message"] = walls * 1e6 / messages
    out["commmodel.kernel_events"] = events
    out["commmodel.messages"] = messages
    plan = FaultPlan(name="drop1pct", seed=1,
                     link_faults=[LinkFault(drop_prob=0.01)])
    faulty = Workbench(generic_multicomputer("mesh", (4, 4)), faults=plan)
    wall, res = probe.time("commmodel", "alltoall_faulted",
                           lambda: faulty.run_comm_only(traces), 3)
    out["commmodel.faulted_events_per_s"] = res.events_executed / wall
    big = generic_multicomputer("mesh", (8, 8))
    out["commmodel.build_s"], _ = probe.time(
        "commmodel", "MultiNodeModel(8x8)", lambda: MultiNodeModel(big), 5)
    return out


def topology(probe: _Probe) -> dict:
    from repro.commmodel.routing import make_routing
    from repro.core.config import TopologyConfig
    from repro.topology import build_topology

    def build() -> None:
        for kind, dims in (("mesh", (8, 8)), ("fat_tree", (4, 3)),
                           ("hypercube", (6,))):
            topo = build_topology(TopologyConfig(kind=kind, dims=dims))
            make_routing("dimension_order", topo)
    wall, _ = probe.time("topology", "build(mesh8x8,fat_tree,6-cube)",
                         build, 5)
    return {"topology.build_s": wall}


# -- tracegen, compmodel, hybrid ----------------------------------------------


def detailed(probe: _Probe, seed: int) -> dict:
    """tracegen, compmodel and hybrid on detailed_mix's own inputs: the
    three apps direct (``run_hybrid``), staged (record -> extract ->
    comm-only) and from recorded traces (``run_mixed_traces``)."""
    from repro import Workbench, powerpc601_node, smp_node, t805_grid
    from repro.operations.ops import COMPUTATIONAL_OPS
    from repro.tracegen import StochasticAppDescription, StochasticGenerator

    wb = Workbench(t805_grid(*inputs.DETAILED["grid"]))
    apps = list(detailed_apps().values())
    out: dict = {}

    hybrid_s, hybrids = probe.time(
        "hybrid", "run_hybrid(apps)",
        lambda: [wb.run_hybrid(make()) for make in apps])
    record_s, recorded = probe.time(
        "tracegen", "record_traces(apps)",
        lambda: [wb.record_traces(make()) for make in apps])
    trace_ops = sum(len(t) for traces in recorded for t in traces)
    out["tracegen.annotate_busy_s"] = record_s
    out["tracegen.annotate_ops_per_s"] = trace_ops / record_s

    extract_s, tasks = probe.time(
        "compmodel", "extract_tasks(apps)",
        lambda: [extract_node_tasks(wb.machine, traces)[0]
                 for traces in recorded])
    out["compmodel.busy_s"] = extract_s
    out["compmodel.extract_ops_per_s"] = trace_ops / extract_s
    comm_s, staged = probe.time(
        "commmodel", "run_comm_only(apps)",
        lambda: [wb.run_comm_only(t) for t in tasks])
    if [r.total_cycles for r in staged] != [h.total_cycles for h in hybrids]:
        raise AssertionError("staged path does not reproduce run_hybrid's "
                             "total_cycles")
    out["hybrid.run_s"] = hybrid_s
    out["hybrid.interleave_residual_s"] = (
        hybrid_s - (record_s + extract_s + comm_s))
    out["hybrid.mixed_traces_s"], _ = probe.time(
        "hybrid", "run_mixed_traces(apps)",
        lambda: [wb.run_mixed_traces(traces) for traces in recorded])

    desc = StochasticAppDescription()
    sub = inputs.derive(seed, "probe-stochastic")
    wall, traces = probe.time(
        "tracegen", "generate_instruction_level",
        lambda: StochasticGenerator(desc, 4, seed=sub)
        .generate_instruction_level(20_000))
    out["tracegen.stochastic_instr_ops_per_s"] = (
        sum(len(t) for t in traces) / wall)
    wall, tasks = probe.time(
        "tracegen", "generate_task_level",
        lambda: StochasticGenerator(desc, 16, seed=sub)
        .generate_task_level(400), 3)
    out["tracegen.stochastic_task_ops_per_s"] = (
        sum(len(t) for t in tasks) / wall)

    ops = list(StochasticGenerator(desc, 1, seed=sub)
               .generate_instruction_level(100_000)[0])
    node = Workbench(powerpc601_node())
    wall, res = probe.time("compmodel", "run_single_node(100k)",
                           lambda: node.run_single_node(ops), 3)
    out["compmodel.run_trace_ops_per_s"] = res.instructions / wall
    l1 = next(v for k, v in sorted(res.memory_summary["caches"].items())
              if k.endswith("L1"))
    out["compmodel.l1_hit_rate"] = l1["hit_rate"]
    per_cpu = [[op for op in t if op.code in COMPUTATIONAL_OPS]
               for t in traces]
    smp = Workbench(smp_node(4))
    wall, _ = probe.time("compmodel", "run_smp(4 cpus)",
                         lambda: smp.run_smp(per_cpu))
    out["compmodel.smp_ops_per_s"] = sum(len(t) for t in per_cpu) / wall
    return out


# -- core, check, parallel ----------------------------------------------------


def noop_runner(machine: Any) -> dict:
    """A picklable runner that does nothing: what is left is the pool."""
    return {"ok": 1}


def sweeps(probe: _Probe, seed: int, workdir: Path) -> dict:
    from repro import LocalAsyncExecutor, ParallelSweepRunner, ResultCache
    from repro.check import check_machine
    from repro.parallel import JobSpec

    sweep, _, workload_id = make_sweep(True, seed)
    cold, runner, _ = make_sweep(False, seed)
    out: dict = {}
    wall, points = probe.time("core", "Sweep.points",
                              lambda: sweep.points(validate=False), 5)
    out["core.points_per_s"] = len(points) / wall
    wall, _ = probe.time(
        "check", "check_machine(points)",
        lambda: [check_machine(m) for _, m in points], 3)
    out["check.preflight_ms_per_variant"] = wall * 1e3 / len(points)

    cache = ResultCache(workdir / "probe-cache")
    machines = [m for _, m in points]
    wall, keys = probe.time(
        "parallel", "ResultCache.key_for",
        lambda: [cache.key_for(m, workload_id) for m in machines], 3)
    out["parallel.cache_key_us"] = wall * 1e6 / len(keys)
    row = {"total_cycles": 291886.0377473716, "mean_latency": 967.81,
           "time_ms": 2.918860377473716, "events": 11859}
    meta = {"machine": machines[0].name, "workload_id": workload_id,
            "machine_config": machines[0].to_dict()}
    wall, _ = probe.time(
        "parallel", "ResultCache.put",
        lambda: [cache.put(k, row, meta=meta) for k in keys], 3)
    out["parallel.cache_put_us"] = wall * 1e6 / len(keys)
    wall, _ = probe.time("parallel", "ResultCache.get",
                         lambda: [cache.get(k) for k in keys], 3)
    out["parallel.cache_get_us"] = wall * 1e6 / len(keys)

    wall, _ = probe.time(
        "parallel", "pool(noop, workers=2)",
        lambda: ParallelSweepRunner(workers=2).run(noop_runner, points), 3)
    out["parallel.pool_overhead_ms_per_variant"] = wall * 1e3 / len(points)
    walls = {}
    for workers in (1, 2):
        walls["pool", workers], rows = probe.time(
            "parallel", f"Sweep.run(cold, workers={workers})",
            lambda: cold.run(runner, workers=workers, timing=True))
    out["parallel.pool_w2_speedup"] = walls["pool", 1] / walls["pool", 2]
    out["parallel.runner_share"] = (
        sum(r["wall_time_s"] for r in rows) / (2 * walls["pool", 2]))
    for workers in (1, 2):
        start_s, executor = probe.time(
            "parallel", f"LocalAsyncExecutor(workers={workers})",
            lambda: LocalAsyncExecutor(workers=workers))
        try:
            if workers == 2:
                out["parallel.executor_start_s"] = start_s

                def noop_job() -> None:
                    job = executor.submit(JobSpec(noop_runner, points))
                    executor.wait(job)
                wall, _ = probe.time("parallel", "executor(noop, workers=2)",
                                     noop_job, 3)
                out["parallel.async_overhead_ms_per_variant"] = (
                    wall * 1e3 / len(points))
            walls["async", workers], _ = probe.time(
                "parallel", f"Sweep.run(cold, executor workers={workers})",
                lambda: cold.run(runner, executor=executor))
        finally:
            executor.close()
    out["parallel.async_w2_speedup"] = walls["async", 1] / walls["async", 2]
    return out


# -- service, cli -------------------------------------------------------------


def service(probe: _Probe, seed: int, workdir: Path) -> dict:
    """One client against its own server: the phases of a job.

    ``running`` and the terminal state are seen on the job's event
    stream (a second connection, so two in all), which the server
    polls every 50 ms: queue wait and run time are resolved no finer.
    """
    from repro.parallel import InProcessExecutor
    from repro.service import (JobManager, JobScheduler, ResultStore,
                               ServiceClient)
    from repro.service.jobs import JobRecord, canonical_request, job_key

    out: dict = {}
    start_s, server = probe.time(
        "service", "repro serve: spawn to listening",
        lambda: ServeProcess(workdir / "probe-store",
                             inputs.SERVICE["server_workers"]))
    out["service.server_start_s"] = start_s
    phases: dict[str, list[float]] = {
        key: [] for key in ("submit", "queue_wait", "run", "overshoot",
                            "fetch", "polls", "cold", "warm")}
    try:
        client = ServiceClient(server.url)
        wall, _ = probe.time("service", "GET /v1/healthz", client.health, 21)
        out["service.http_rtt_ms"] = wall * 1e3
        polls = [0]
        status = client.status

        def counted_status(job_id: str) -> dict:
            polls[0] += 1
            return status(job_id)
        client.status = counted_status     # this instance only
        requests = inputs.service_requests(seed, 0)
        for _ in range(8):
            request, warm = next(requests)
            seen: dict[str, float] = {}

            def watch(job_id: str) -> None:
                for event in client.events(job_id):
                    if event.get("event") == "state":
                        seen.setdefault(event["state"], time.perf_counter())
            polls[0] = 0
            with probe.tracer.span("service", "job:" + ("warm" if warm
                                                        else "cold")):
                t0 = time.perf_counter()
                record = client.submit(request)
                t1 = time.perf_counter()
                watcher = threading.Thread(target=watch,
                                           args=(record["id"],))
                watcher.start()
                record = client.wait(record["id"])
                t2 = time.perf_counter()
                rows = client.result(record["id"])["rows"]
                t3 = time.perf_counter()
                watcher.join()
            if record["state"] != "done" or len(rows) != inputs.SERVICE["points"]:
                raise AssertionError(f"probe job failed: {record}")
            phases["submit"].append(t1 - t0)
            phases["queue_wait"].append(max(0.0, seen["running"] - t1))
            phases["run"].append(seen["done"] - seen["running"])
            phases["overshoot"].append(t2 - seen["done"])
            phases["fetch"].append(t3 - t2)
            phases["polls"].append(polls[0])
            phases["warm" if warm else "cold"].append(t3 - t0)
        served = client.metrics()
    finally:
        server.stop()
    for key, name in (("submit", "submit_ms"), ("queue_wait", "queue_wait_ms"),
                      ("run", "run_ms"), ("overshoot", "wait_overshoot_ms"),
                      ("fetch", "fetch_ms"), ("cold", "cold_job_p50_ms"),
                      ("warm", "warm_job_p50_ms")):
        out[f"service.{name}"] = statistics.median(phases[key]) * 1e3
    out["service.status_polls_per_job"] = statistics.mean(phases["polls"])
    if served["service.jobs.failed.count"] \
            or served["service.jobs.rejected.count"]:
        raise AssertionError(f"probe server refused or failed jobs: {served}")

    manager = JobManager(executor=InProcessExecutor(workers=1),
                         scheduler=JobScheduler(tenant_quota=64),
                         autostart=False)
    try:
        requests = inputs.service_requests(seed, 1)
        cold = [request for request, warm in
                (next(requests) for _ in range(10)) if not warm]
        wall, _ = probe.time(
            "service", "JobManager.submit (plan)",
            lambda: [manager.submit(dict(r)) for r in cold])
        out["service.plan_ms"] = wall * 1e3 / len(cold)
    finally:
        manager.close()
    canon = canonical_request(cold[0])
    record = JobRecord("probe-1", job_key(canon), canon)
    record.rows = rows
    store = ResultStore(workdir / "probe-jobs")
    wall, _ = probe.time("service", "ResultStore.put_job",
                         lambda: store.put_job(record), 5)
    out["service.store_put_ms"] = wall * 1e3
    return out


def cli(probe: _Probe) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(*argv: str) -> None:
        subprocess.run([sys.executable, *argv], env=env, check=True,
                       stdout=subprocess.DEVNULL)
    import_s, _ = probe.time("cli", "python -c 'import repro'",
                             lambda: run("-c", "import repro"), 3)
    startup_s, _ = probe.time("cli", "python -m repro info",
                              lambda: run("-m", "repro", "info"), 3)
    return {"cli.import_s": import_s, "cli.startup_s": startup_s}


def run_all(seed: int, workdir: Path, tracer: Any) -> dict:
    probe = _Probe(tracer)
    out: dict = {}
    out.update(pearl(probe))
    out.update(commmodel(probe))
    out.update(topology(probe))
    out.update(detailed(probe, seed))
    out.update(sweeps(probe, seed, workdir))
    out.update(service(probe, seed, workdir))
    out.update(cli(probe))
    return out
