"""The five workloads: what one op is, and how its result is checked.

Each workload stresses a different part of the stack (see README.md
for the table and the predictions).  A workload object is created in a
fresh child interpreter, ``setup()`` builds its inputs from the seed,
``op(i, client)`` runs one operation through the program's public API
and returns the exact simulated facts it produced, and ``verify()``
holds those facts against ``expected.json``.

Verification: facts that do not depend on the seed are always compared
with the committed ``fixed`` values.  Facts that do are compared with
the committed values when the seed is one of those in
``expected.json`` (the default and the held-out seed); for any other
seed no committed value can exist, so the first op's facts become the
reference and every later op must reproduce them exactly (the
simulator is deterministic).  Row counts, ``error`` rows and cache
counters are never taken from a first op: the sweep and service
workloads hold them against absolute values on every seed, and warm
rows against the rows their cold twin computed.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import threading
from pathlib import Path
from typing import Any, Callable, Optional

import inputs
from spans import NullTracer

__all__ = ["EXPECTED_PATH", "OpResult", "ServeProcess", "WORKLOADS",
           "Workload", "detailed_apps", "digest", "extract_node_tasks",
           "load_expected", "make_sweep"]

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
EXPECTED_PATH = HERE / "expected.json"
#: ops run before timing starts, per client (caches and lazy imports fill)
WARMUP_OPS = 2


def digest(obj: Any) -> str:
    """Short content hash of a JSON-able value (row lists, mostly)."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text()).get("workloads", {})


class OpResult:
    """What one op delivered.

    ``events`` are the simulated events its result represents (kernel
    events plus trace operations; the rows' ``events`` column for
    sweeps and jobs, cached rows included); ``executed`` the kernel
    events actually executed to produce it (0 for a cache hit).
    """

    __slots__ = ("facts", "events", "executed", "cleanup")

    def __init__(self, facts: dict, events: int, executed: int,
                 cleanup: Optional[Callable[[], None]] = None) -> None:
        self.facts = facts
        self.events = events
        self.executed = executed
        self.cleanup = cleanup


class Workload:
    """Base: seed-keyed reference facts and exact comparison."""

    name = ""
    #: op count of the full (``run.py --seed N``) run, all clients together
    full_ops = 30
    clients = 1
    #: fact keys that do not depend on the seed
    fixed_keys: frozenset = frozenset()

    def __init__(self, seed: int, workdir: Path, *,
                 references: bool = True) -> None:
        """``references=False`` (``--regen-expected`` only) ignores the
        committed facts: every op is then held against the first one."""
        self.seed = seed
        self.workdir = workdir
        expected = load_expected().get(self.name, {}) if references else {}
        self._fixed = expected.get("fixed", {})
        self._seeded = expected.get("seeds", {}).get(str(seed))
        self._first: dict = {}
        self.counters = {"cache_hits": 0, "cache_lookups": 0,
                         "error_rows": 0, "rejected": 0, "failed_jobs": 0}
        self._lock = threading.Lock()     # clients count side by side

    def _count(self, hits: int, misses: int, error_rows: int) -> None:
        with self._lock:
            self.counters["cache_hits"] += hits
            self.counters["cache_lookups"] += hits + misses
            self.counters["error_rows"] += error_rows

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int, client: int = 0) -> OpResult:
        raise NotImplementedError

    #: set by workloads whose layers interleave inside one public call:
    #: the same op through the staged path, ``staged_op(i, tracer)``
    staged_op: Optional[Callable[..., OpResult]] = None

    def teardown(self) -> None:
        pass

    def verify(self, result: OpResult) -> Optional[str]:
        """``None`` when every fact matches its reference, else why not."""
        for key, value in result.facts.items():
            value = json.loads(json.dumps(value))     # tuples -> lists
            if key in self.fixed_keys:
                want = self._fixed.get(key, self._first.setdefault(key, value))
            elif self._seeded is not None:
                want = self._seeded.get(key)
            else:
                want = self._first.setdefault(key, value)
            if value != want:
                return f"{self.name}: {key} = {value!r}, expected {want!r}"
        return None

    def expected_entry(self, result: OpResult) -> tuple[dict, dict]:
        """``(fixed, seeded)`` facts of one op, for ``--regen-expected``."""
        facts = json.loads(json.dumps(result.facts))
        fixed = {k: v for k, v in facts.items() if k in self.fixed_keys}
        seeded = {k: v for k, v in facts.items() if k not in self.fixed_keys}
        return fixed, seeded


# -- detailed and task-level simulation ------------------------------------


def _comm_facts(comm: Any, trace_ops: int) -> list:
    """[total_cycles, kernel events, trace ops, messages, mean latency]"""
    return [comm.total_cycles, comm.events_executed, trace_ops,
            comm.messages_delivered, comm.message_latency.mean]


def _hybrid_facts(result: Any) -> list:
    trace_ops = sum(ts.computational_ops + ts.communication_ops
                    for ts in result.task_stats)
    return _comm_facts(result.comm, trace_ops)


def _sum_events(facts: dict) -> tuple[int, int]:
    """(events represented, kernel events executed) of per-run facts."""
    kernel = sum(f[1] for f in facts.values())
    return kernel + sum(f[2] for f in facts.values()), kernel


def detailed_apps() -> dict[str, Callable[[], Any]]:
    """detailed_mix's three instrumented programs, by name."""
    from repro.apps import make_fft, make_jacobi, make_matmul

    cfg = inputs.DETAILED
    return {
        "matmul": functools.partial(make_matmul, n=cfg["matmul_n"]),
        "jacobi": functools.partial(make_jacobi, grid=cfg["jacobi_grid"],
                                    iterations=cfg["jacobi_iterations"]),
        "fft": functools.partial(make_fft,
                                 points_per_node=cfg["fft_points_per_node"]),
    }


def extract_node_tasks(machine: Any, traces: Any) -> tuple[list, int]:
    """``(task-level traces, trace ops processed)``: each node's mixed
    trace through ``extract_tasks`` on a fresh single-node model."""
    from repro.compmodel.node import SingleNodeModel
    from repro.compmodel.tasks import TaskExtractionStats, extract_tasks

    stats = [TaskExtractionStats() for _ in range(machine.n_nodes)]
    tasks = [list(extract_tasks(SingleNodeModel(machine.node, node_id=n),
                                traces[n], stats[n]))
             for n in range(machine.n_nodes)]
    return tasks, sum(s.computational_ops + s.communication_ops
                      for s in stats)


class DetailedMix(Workload):
    name = "detailed_mix"
    full_ops = 30
    fixed_keys = frozenset({"matmul", "jacobi", "fft"})

    def setup(self) -> None:
        from repro import Workbench, t805_grid
        from repro.tracegen import StochasticAppDescription

        cfg = inputs.DETAILED
        self.wb = Workbench(t805_grid(*cfg["grid"]))
        self.apps = detailed_apps()
        self.stoch_wb = Workbench(t805_grid(*cfg["stochastic_grid"]))
        self.stoch_desc = StochasticAppDescription()
        self.stoch_ops = cfg["stochastic_ops_per_node"]
        self.stoch_seed = inputs.derive(self.seed, "detailed-stochastic")

    def op(self, i: int, client: int = 0) -> OpResult:
        facts = {name: _hybrid_facts(self.wb.run_hybrid(make()))
                 for name, make in self.apps.items()}
        facts["stochastic"] = _hybrid_facts(self.stoch_wb.run_stochastic(
            self.stoch_desc, level="instruction",
            ops_per_node=self.stoch_ops, seed=self.stoch_seed))
        return OpResult(facts, *_sum_events(facts))

    @staticmethod
    def _staged(wb: Any, traces: Any, tracer: Any) -> list:
        """record -> extract_tasks per node -> run_comm_only: the path
        on which tracegen, compmodel and commmodel+pearl run one after
        the other, so each gets a span of its own.  It reproduces the
        hybrid run's facts exactly."""
        with tracer.span("compmodel", "extract_tasks"):
            tasks, trace_ops = extract_node_tasks(wb.machine, traces)
        return _comm_facts(wb.run_comm_only(tasks), trace_ops)

    def staged_op(self, i: int, tracer: Any = NullTracer()) -> OpResult:
        from repro.tracegen import StochasticGenerator

        facts = {name: self._staged(self.wb,
                                    self.wb.record_traces(make()), tracer)
                 for name, make in self.apps.items()}
        gen = StochasticGenerator(self.stoch_desc, self.stoch_wb.n_nodes,
                                  seed=self.stoch_seed)
        facts["stochastic"] = self._staged(
            self.stoch_wb, gen.generate_instruction_level(self.stoch_ops),
            tracer)
        return OpResult(facts, *_sum_events(facts))


class TasklevelComm(Workload):
    name = "tasklevel_comm"
    full_ops = 30
    fixed_keys = frozenset({"alltoall_store_and_forward",
                            "alltoall_virtual_cut_through",
                            "alltoall_wormhole", "pingpong"})

    def setup(self) -> None:
        from repro import Workbench, generic_multicomputer
        from repro.apps import alltoall_task_traces, pingpong_task_traces
        from repro.tracegen import StochasticGenerator
        from repro.tracegen.presets import stencil_class

        cfg = inputs.TASKLEVEL
        dims = cfg["dims"]
        n = dims[0] * dims[1]
        alltoall = alltoall_task_traces(
            n, block_bytes=cfg["alltoall_block_bytes"],
            rounds=cfg["alltoall_rounds"])
        pingpong = pingpong_task_traces(
            n, size=cfg["pingpong_bytes"], repeats=cfg["pingpong_repeats"])
        stencil = StochasticGenerator(
            stencil_class(), n,
            seed=inputs.derive(self.seed, "tasklevel-stencil")
        ).generate_task_level(cfg["stencil_rounds"])
        self.runs = [
            (f"alltoall_{engine}",
             Workbench(generic_multicomputer("mesh", dims, switching=engine)),
             alltoall) for engine in inputs.ENGINES]
        default = Workbench(generic_multicomputer("mesh", dims))
        self.runs += [("pingpong", default, pingpong),
                      ("stencil", default, stencil)]
        self.trace_ops = {name: sum(len(t) for t in traces)
                          for name, _, traces in self.runs}

    def op(self, i: int, client: int = 0) -> OpResult:
        facts = {name: _comm_facts(wb.run_comm_only(traces),
                                   self.trace_ops[name])
                 for name, wb, traces in self.runs}
        return OpResult(facts, *_sum_events(facts))


# -- sweeps ------------------------------------------------------------------


def make_sweep(warm: bool, seed: int, sub: int = 0) -> tuple[Any, Any, str]:
    """``(sweep, runner, workload_id)`` exactly as ``repro sweep`` builds
    them: the CLI's machine builder, axis setter, point runner and
    workload-id scheme.  ``sub`` numbers the runner seeds of one run."""
    from repro.cli import _AxisSetter, _sweep_point_runner, build_machine
    from repro.core.experiment import Sweep

    cfg = inputs.SWEEP
    sweep = Sweep(build_machine(cfg["preset"]), label=cfg["preset"])
    for path, values in inputs.sweep_axes(warm):
        sweep.axis(path, _AxisSetter(path), values)
    rounds = cfg["warm_rounds" if warm else "cold_rounds"]
    runner_seed = inputs.derive(seed, f"sweep-runner-{sub}")
    runner = functools.partial(_sweep_point_runner, workload=cfg["workload"],
                               rounds=rounds, seed=runner_seed)
    workload_id = (f"cli-stochastic:{cfg['workload']}"
                   f":rounds={rounds}:seed={runner_seed}")
    return sweep, runner, workload_id


class _SweepWorkload(Workload):
    workers = 2
    #: every row is a cache hit (else: every row a miss and a store)
    warm = False

    def _run(self, cache_dir: Path, sub: int = 0) -> OpResult:
        from repro.parallel import ResultCache

        sweep, runner, workload_id = self.sweeps[sub]
        cache = ResultCache(cache_dir)
        rows = sweep.run(runner, workers=self.workers, cache=cache,
                         workload_id=workload_id)
        stats = cache.stats
        errors = sum(1 for row in rows if "error" in row)
        self._count(stats.hits, stats.misses, errors)
        events = sum(row.get("events", 0) for row in rows)
        facts = {f"rows{sub}": digest(rows), "n_rows": len(rows),
                 "error_rows": errors,
                 "cache": [stats.hits, stats.misses, stats.stores]}
        return OpResult(facts, events, events if stats.misses else 0)

    def verify(self, result: OpResult) -> Optional[str]:
        """Whatever the seed: one row per point, no ``error`` row, and
        the cache read every row (warm) or missed and stored every row
        (cold).  The row digests are then held against their reference."""
        facts = result.facts
        n = 1
        for _, values in inputs.sweep_axes(self.warm):
            n *= len(values)
        if facts["n_rows"] != n or facts["error_rows"]:
            return (f"{self.name}: {facts['n_rows']} rows, "
                    f"{facts['error_rows']} of them error rows, expected "
                    f"{n} and 0")
        want = [n, 0, 0] if self.warm else [0, n, n]
        if facts["cache"] != want:
            return (f"{self.name}: cache [hits, misses, stores] = "
                    f"{facts['cache']}, expected {want}")
        return super().verify(result)


class SweepCold(_SweepWorkload):
    name = "sweep_cold"
    full_ops = 32

    def setup(self) -> None:
        self.sweeps = [make_sweep(self.warm, self.seed, sub)
                       for sub in range(inputs.SWEEP["cold_seeds"])]

    def op(self, i: int, client: int = 0) -> OpResult:
        cache_dir = self.workdir / f"cold-{i}"
        result = self._run(cache_dir, i % len(self.sweeps))
        result.cleanup = functools.partial(shutil.rmtree, cache_dir, True)
        return result


class SweepWarm(_SweepWorkload):
    name = "sweep_warm"
    full_ops = 200
    warm = True

    def setup(self) -> None:
        self.sweeps = [make_sweep(self.warm, self.seed)]
        self.cache_dir = self.workdir / "warm"
        filled = self._run(self.cache_dir)
        self.counters.update(cache_hits=0, cache_lookups=0)
        # Rows read back from the cache must equal the rows computed
        # when it was filled, whatever the seed.
        self._first["rows0"] = filled.facts["rows0"]

    def op(self, i: int, client: int = 0) -> OpResult:
        return self._run(self.cache_dir)


# -- the job server -----------------------------------------------------------


def _server_preexec() -> None:
    # Own process group, so stop() can kill the server's workers with
    # it; same session, so run.py can reap it if this child hangs.
    os.setpgid(0, 0)
    # A parent started in the background hands down an ignored SIGINT,
    # and the server would then never see stop()'s.
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class ServeProcess:
    """A live ``python -m repro serve`` in its own process group.

    ``stop()`` interrupts it (the server's clean shutdown path, which
    also stops its workers), waits, and then kills whatever is left of
    the group, so no exit path leaves a server or a worker behind.  The
    group stays in the child interpreter's session, which ``run.py``
    kills as a whole should the child itself never get to ``stop()``.
    """

    def __init__(self, store: Path, workers: int) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(workers), "--store", str(store)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
            text=True,
            # (No other thread exists yet when a server is started.)
            preexec_fn=_server_preexec)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
            line = self.proc.stdout.readline() if ready else ""
            if "listening on" not in line:
                raise RuntimeError(f"repro serve did not start: {line!r}")
        except BaseException:
            self.stop()
            raise
        self.url = line.split()[-1]

    def stop(self) -> None:
        proc = self.proc
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
                try:
                    proc.wait(15.0)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()


class ServiceJobs(Workload):
    name = "service_jobs"
    full_ops = 200
    clients = inputs.SERVICE["clients"]

    def setup(self) -> None:
        from repro.service import ServiceClient

        self.server = ServeProcess(self.workdir / "store",
                                   inputs.SERVICE["server_workers"])
        self.client = [ServiceClient(self.server.url)
                       for _ in range(self.clients)]
        self.requests = [inputs.service_requests(self.seed, c)
                         for c in range(self.clients)]
        self.cold_rows: dict[int, str] = {}

    def op(self, i: int, client: int = 0) -> OpResult:
        api = self.client[client]
        request, warm = next(self.requests[client])
        record = api.submit(request)
        record = api.wait(record["id"])
        if record["state"] != "done":
            raise RuntimeError(f"job {record['id']} {record['state']}: "
                               f"{record['error']}")
        rows = api.result(record["id"])["rows"]
        errors = sum(1 for row in rows if "error" in row)
        cache = record["cache"]
        self._count(cache["hits"], cache["misses"], errors)
        events = sum(row.get("events", 0) for row in rows)
        facts = {"rows": digest(rows), "n_rows": len(rows),
                 "error_rows": errors, "warm": warm,
                 "job_seed": request["seed"],
                 "cache": [cache["hits"], cache["misses"], cache["stores"]]}
        return OpResult(facts, events, 0 if warm else events)

    def verify(self, result: OpResult) -> Optional[str]:
        """A cold job computes every row; a warm one reads every row
        and returns exactly what its cold twin returned.  Cold digests
        are also held against the committed ones where the seed has
        them (the first few jobs of each client)."""
        facts, n = result.facts, inputs.SERVICE["points"]
        seed = facts["job_seed"]
        if facts["n_rows"] != n or facts["error_rows"]:
            return f"service_jobs: job seed {seed}: bad rows {facts}"
        want_cache = [n, 0, 0] if facts["warm"] else [0, n, n]
        if facts["cache"] != want_cache:
            return (f"service_jobs: job seed {seed}: cache {facts['cache']}, "
                    f"expected {want_cache}")
        if facts["warm"]:
            want = self.cold_rows.get(seed)
        else:
            self.cold_rows[seed] = facts["rows"]
            want = (self._seeded or {}).get("cold_rows", {}).get(
                str(seed), facts["rows"])
        if facts["rows"] != want:
            return (f"service_jobs: job seed {seed}: rows {facts['rows']}, "
                    f"expected {want}")
        return None

    def expected_entry(self, result: OpResult) -> tuple[dict, dict]:
        if result.facts["warm"]:
            return {}, {}
        return {}, {"cold_rows": {str(result.facts["job_seed"]):
                                  result.facts["rows"]}}

    def teardown(self) -> None:
        if getattr(self, "server", None) is None:
            return
        try:
            served = self.client[0].metrics()
            self.counters["rejected"] = served["service.jobs.rejected.count"]
            self.counters["failed_jobs"] = served["service.jobs.failed.count"]
        finally:
            self.server.stop()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (DetailedMix, TasklevelComm, SweepCold,
                              SweepWarm, ServiceJobs)}
