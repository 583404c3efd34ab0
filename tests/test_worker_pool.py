"""The one worker pool (repro.parallel.pool) and what runs on it.

``WorkerPool`` is the only place under ``src/`` that starts worker
processes; sweeps and chaos campaigns (through every ``Executor``),
``repro verify`` shards and the bounds audit all map over it.
Pinned here: ordered streaming, the in-process fallbacks, and the
robustness contract — a task that kills its worker is retried on a
fresh one, then resolves to a typed ``WorkerCrashed``, and the calling
process survives (at the parent of this suite a dead worker made the
caller recompute the variant in-process, which killed the caller).

Everything that crosses a process boundary lives at module level
(picklable), matching ``tests/test_parallel_sweep.py``.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

from repro import ParallelSweepRunner
from repro.parallel import WorkerCrashed, WorkerPool, run_sharded
from repro.parallel import pool as worker_pool
from tests.test_parallel_sweep import bw_sweep, echo_runner


def double(x):
    return 2 * x


def exit_on_three(x):
    if x == 3:
        os._exit(41)
    return 2 * x


def exit_once_per_item(x, flag_dir):
    """Kill the hosting process the first time each item is seen."""
    flag = os.path.join(flag_dir, f"seen-{x}")
    if not os.path.exists(flag):
        open(flag, "w").close()
        os._exit(41)
    return 2 * x


def sleep_then(seconds, x):
    time.sleep(seconds)  # repro: noqa[PY002] - host-side stall
    return x


class Node:
    pass


#: weak references to the cycles this process's tasks left behind
left_cycles = []


def leave_a_cycle(_):
    """Leave cyclic garbage in the oldest generation; tell which of the
    cycles earlier tasks left are still alive."""
    alive = [ref() is not None for ref in left_cycles]
    node = Node()
    node.me = node
    left_cycles.append(weakref.ref(node))
    gc.collect(1)                  # survivors move to the oldest generation
    return alive


def cursed_bandwidth_runner(machine):
    """A variant that takes its whole worker process down."""
    if machine.network.link_bandwidth == 2.0:
        os._exit(43)
    return {"bw_out": machine.network.link_bandwidth}


CRASH_ROW_ERROR = ("WorkerCrashed: variant worker exited with code 43 "
                   "(after 3 attempts)")

ROOT = Path(__file__).resolve().parent.parent


def python(script, timeout=120):
    """Run ``script`` in a fresh interpreter that imports ``repro`` and
    this suite's helpers (``tests.*``)."""
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=timeout, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{ROOT}"))


def running(pid):
    try:      # a zombie nobody reaped is dead for our purposes
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def wait_until_gone(pids, seconds=30.0):
    deadline = time.monotonic() + seconds  # repro: noqa[PY002]
    while any(running(pid) for pid in pids):
        assert time.monotonic() < deadline, pids  # repro: noqa[PY002]
        time.sleep(0.05)  # repro: noqa[PY002]


class TestWorkerPool:
    def test_results_stream_in_item_order(self):
        with WorkerPool(workers=3) as pool:
            assert list(pool.imap(double, list(range(20)))) == \
                [2 * x for x in range(20)]
            # The processes outlive the map and serve the next one.
            pids = {w.proc.pid for w in pool._workers}
            assert list(pool.imap(double, [5, 6])) == [10, 12]
            assert {w.proc.pid for w in pool._workers} == pids
        assert pool._workers == []

    def test_workers_start_only_when_a_map_needs_them(self):
        with WorkerPool(workers=4) as pool:
            assert list(pool.imap(double, [])) == []
            assert pool._workers == []
            assert list(pool.imap(double, [1, 2])) == [2, 4]
            assert len(pool._workers) == 2

    def test_one_worker_and_unpicklable_work_run_in_process(self):
        pid = os.getpid()
        with WorkerPool(workers=1) as pool:
            assert list(pool.imap(lambda x: (x, os.getpid()), [1, 2])) == \
                [(1, pid), (2, pid)]
            assert pool._workers == []
        with WorkerPool(workers=2) as pool:
            assert list(pool.imap(lambda x: os.getpid(), [1, 2])) == \
                [pid, pid]
            assert pool._workers == []

    def test_crash_budget_spent_raises_unless_hooked(self, monkeypatch):
        monkeypatch.setattr(worker_pool, "MAX_TASK_RETRIES", 1)
        with WorkerPool(workers=2) as pool:
            with pytest.raises(WorkerCrashed) as info:
                list(pool.imap(exit_on_three, [1, 2, 3, 4]))
            assert (info.value.exitcode, info.value.attempts) == (41, 2)
            # No task outlives its map; the pool still serves.
            assert all(w.busy is None for w in pool._workers)
            assert list(pool.imap(
                exit_on_three, [1, 2, 3, 4],
                on_crash=lambda crash: f"lost: {crash}")) == \
                [2, 4, "lost: worker exited with code 41 (after 2 attempts)",
                 8]

    def test_abort_hook_kills_in_flight_work_and_propagates(self):
        class Stop(Exception):
            pass

        calls = []

        def check_abort():
            calls.append(1)
            if len(calls) > 2:
                raise Stop

        with WorkerPool(workers=2) as pool:
            with pytest.raises(Stop):
                list(pool.imap(functools.partial(sleep_then, 30.0), [1, 2],
                               check_abort=check_abort))
            assert pool._workers == []        # both were busy: both killed
            assert list(pool.imap(double, [1, 2])) == [2, 4]

    @pytest.mark.parametrize("n_items", [3, 8])
    def test_every_worker_is_busy_while_the_caller_holds_a_row(self,
                                                                n_items):
        """Regression: a finished worker got its next task only when the
        caller asked for the next row, so it idled while the caller
        stored the row it had just been given."""
        with WorkerPool(workers=2) as pool:
            results = pool.imap(functools.partial(sleep_then, 0.01),
                                list(range(n_items)))
            for _ in results:
                if results.gi_frame.f_locals["pending"]:   # undispatched
                    assert all(w.busy is not None for w in pool._workers)

    def test_workers_do_not_outlive_a_killed_parent(self):
        """Regression: a forked worker kept the parent's end of its own
        pipe open, never saw EOF, and blocked on ``recv`` forever once
        the parent was killed — every SIGTERM-ed ``repro serve`` left
        its workers behind."""
        script = (
            "import os, signal\n"
            "from repro.parallel import WorkerPool\n"
            "pool = WorkerPool(3)\n"
            "pool.start()\n"
            "assert list(pool.imap(abs, [-1, -2, -3])) == [1, 2, 3]\n"
            "print(*(w.proc.pid for w in pool._workers), flush=True)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n")
        proc = python(script)
        assert proc.returncode == -9, proc.stderr
        pids = [int(pid) for pid in proc.stdout.split()]
        assert len(pids) == 3
        wait_until_gone(pids)

    def test_workers_import_nothing_after_the_fork(self):
        """``import repro`` is lazy, so a sweep's workers must still
        find every ``repro`` module a point needs already loaded by the
        parent: an import after the fork is paid again in every worker.
        The process's pool is warm on the next sweep: the same workers,
        and no module at all loaded by them (at the parent every sweep
        forked anew, and each worker loaded ``numpy.random`` and 15
        more modules)."""
        script = (
            "import functools, json, os, sys, tempfile\n"
            "from repro.core.experiment import Sweep, _AxisSetter\n"
            "from repro.plans import _sweep_point_runner, build_machine\n"
            "from repro.parallel import ResultCache\n"
            "forked = set()\n"
            "os.register_at_fork(after_in_child=lambda: "
            "forked.update(sys.modules))\n"
            "seen = []      # the worker's modules after its last point\n"
            "def runner(machine, **kwargs):\n"
            "    before = seen[-1] if seen else forked\n"
            "    row = _sweep_point_runner(machine, **kwargs)\n"
            "    seen.append(set(sys.modules))\n"
            "    row['forked'] = bool(forked)\n"
            "    row['pid'] = os.getpid()\n"
            "    row['late'] = sorted(seen[-1] - before)\n"
            "    return row\n"
            "sweep = Sweep(build_machine('generic-mesh'))\n"
            "sweep.axis('network.switching', "
            "_AxisSetter('network.switching'),\n"
            "           ['store_and_forward', 'wormhole'])\n"
            "out = []\n"
            "with tempfile.TemporaryDirectory() as d:\n"
            "    for seed in (1, 2):\n"
            "        out.append(sweep.run(\n"
            "            functools.partial(runner, workload='stencil', "
            "rounds=1, seed=seed),\n"
            "            workers=2, cache=ResultCache(d), "
            "workload_id=f'late-imports-{seed}'))\n"
            "print(json.dumps(out))\n")
        proc = python(script)
        assert proc.returncode == 0, proc.stderr
        first, second = json.loads(proc.stdout)
        assert len(first) == len(second) == 2
        for row in first + second:
            assert "error" not in row and row["forked"], row
        for row in first:
            assert [m for m in row["late"] if m.startswith("repro")] == [], \
                row
        for row in second:
            assert row["late"] == [], row
        pids = {row["pid"] for row in first}
        assert len(pids) == 2 and {row["pid"] for row in second} == pids

    def test_a_worker_collects_after_every_task(self):
        """A worker lives as long as its owner: garbage a task leaves in
        a cycle must not wait for a rare full collection (left waiting,
        200 sweeps on one pool raised a worker's peak memory by 14 %)."""
        with WorkerPool(workers=2) as pool:
            assert list(pool.imap(leave_a_cycle, [0])) == [[]]
            assert list(pool.imap(leave_a_cycle, [1])) == [[False]]
            assert len(pool._workers) == 1

    def test_invalid_sizes(self):
        with pytest.raises(ValueError, match="workers"):
            WorkerPool(workers=0)


class TestRunSharded:
    def test_matches_serial_and_reports_progress_in_order(self):
        """Results come back in item order, as a serial map's do."""
        items = list(range(8))
        out = run_sharded(double, items, workers=3)
        assert out == [2 * i for i in items]
        assert out == run_sharded(double, items, workers=1)

    def test_shard_that_kills_its_worker_is_requeued(self, tmp_path):
        fn = functools.partial(exit_once_per_item, flag_dir=str(tmp_path))
        assert run_sharded(fn, [1, 2, 3], workers=2) == [2, 4, 6]

    def test_shard_that_always_kills_its_worker_is_a_typed_error(self):
        with pytest.raises(WorkerCrashed, match="code 41") as info:
            run_sharded(exit_on_three, [1, 2, 3, 4], workers=2)
        assert info.value.attempts == 3       # the default crash budget
        # The caller is alive, and so is the next map.
        assert run_sharded(double, [1, 2], workers=2) == [2, 4]


class TestSweepsSurviveACrashingVariant:
    def expected(self):
        return [{"bw": 1.0, "bw_out": 1.0},
                {"bw": 2.0, "error": CRASH_ROW_ERROR},
                {"bw": 4.0, "bw_out": 4.0}]

    def test_sweep_run_workers(self):
        rows = bw_sweep([1.0, 2.0, 4.0]).run(cursed_bandwidth_runner,
                                             workers=2)
        assert rows == self.expected()

    def test_parallel_sweep_runner(self):
        rows = ParallelSweepRunner(workers=2).run(
            cursed_bandwidth_runner, bw_sweep([1.0, 2.0, 4.0]).points())
        assert rows == self.expected()

    def test_unpicklable_runner_rows_identical_to_serial(self):
        serial = bw_sweep().run(echo_runner)
        assert bw_sweep().run(lambda m: echo_runner(m), workers=2) == serial

    def test_repro_sweep_cli_exits_normally(self):
        """``repro sweep --workers 2`` over a variant that always kills
        its worker: a ``WorkerCrashed`` row, the other row intact, exit
        status 0."""
        script = (
            "import os, sys\n"
            "from repro import cli, plans\n"
            "real = plans._sweep_point_runner\n"
            "def crashing(machine, **kwargs):\n"
            "    if machine.network.link_bandwidth == 4.0:\n"
            "        os._exit(43)\n"
            "    return real(machine, **kwargs)\n"
            "plans._sweep_point_runner = crashing\n"
            "sys.exit(cli.main(['sweep', 't805-grid-2x2', '--axis',\n"
            "    'network.link_bandwidth=2,4', '--rounds', '1',\n"
            "    '--workers', '2']))\n")
        proc = python(script)
        assert proc.returncode == 0, proc.stderr
        assert "sweep of t805-grid-2x2 (2 variants, workers=2)" in proc.stdout
        lines = proc.stdout.splitlines()
        crashed = [line for line in lines if CRASH_ROW_ERROR in line]
        intact = [line for line in lines if "WorkerCrashed" not in line
                  and line.strip().startswith("2")]
        assert len(crashed) == 1 and len(intact) == 1, proc.stdout


#: One interpreter's life with the process's pool, case by case; the
#: cases share it because each fresh interpreter costs half a second.
LIFETIME_SCRIPT = """
import json, os, tempfile, threading, time
from dataclasses import asdict
from repro import Sweep, Workbench, generic_multicomputer
from repro.apps import pingpong_task_traces
from repro.parallel import (Executor, JobSpec, ResultCache, WorkerPool,
                            pool, run_sharded)
from repro.service import JobManager

# Helpers live in __main__, defined before the first fork (importing
# this suite's modules would import pytest too).
def set_bw(machine, value):
    machine.network.link_bandwidth = value

def bw_sweep(values=(1.0, 2.0, 4.0, 8.0)):
    return Sweep(generic_multicomputer("mesh", (2, 2))).axis(
        "bw", set_bw, list(values))

def echo_runner(machine):
    return {"bw_out": machine.network.link_bandwidth}

def pingpong_runner(machine):
    res = Workbench(machine).run_comm_only(
        pingpong_task_traces(4, size=256, repeats=2, b=3))
    return {"cycles": res.total_cycles, "latency": res.message_latency.mean}

def worker_pid(_):
    return os.getpid()

def pid_runner(machine):
    return {"pid": os.getpid()}

def nested_sweep_runner(machine):
    rows = bw_sweep([1.0, 2.0]).run(echo_runner, workers=2)
    return {"inner": json.dumps(rows, sort_keys=True)}

out = {}

def pool_pids():
    return sorted(w.proc.pid for w in pool._process_pool._workers)

# A fresh pool (the first fan-out), the warm one, the serial path.
runs, pids = [], []
with tempfile.TemporaryDirectory() as d:
    for n, workers in enumerate((2, 2, 1)):
        cache = ResultCache(os.path.join(d, str(n)))
        rows = bw_sweep().run(pingpong_runner, workers=workers, cache=cache)
        runs.append([rows, asdict(cache.stats)])
        pids.append(pool_pids())
out["warm"] = [runs, pids, sorted(set(run_sharded(worker_pid, range(8), 2)))]

# An executor borrows the same pool: its job runs on the warm workers.
executor = Executor(workers=2)
job = executor.submit(JobSpec(pid_runner, bw_sweep().points()))
out["executor"] = [pids[0], sorted({r["pid"] for r in job.rows})]

# Another size closes the workers and forks anew.
three = set(run_sharded(worker_pid, range(9), workers=3))
out["resize"] = [pids[0], sorted(three),
                 [os.path.exists(f"/proc/{p}") for p in pids[0]]]

# A service's manager forks the process's pool as it is built.
manager = JobManager(executor=Executor(workers=2))
served = pool_pids()
out["manager"] = [sorted(three), served,
                  [os.path.exists(f"/proc/{p}") for p in served]]
manager.close()

# A __main__ runner defined after the fork.
def late_runner(machine):
    return {"late": 3 * machine.network.link_bandwidth}

out["late"] = bw_sweep().run(late_runner, workers=2)
pool.MAX_TASK_RETRIES = 0
with WorkerPool(2) as own:
    assert list(own.imap(abs, [-1, -2])) == [1, 2]
    def triple(x):
        return 3 * x
    out["late_budget"] = list(own.imap(triple, [1, 2, 3]))
pool.MAX_TASK_RETRIES = 2

# A sweep inside a worker, and inside a fan-out on the calling thread.
out["in_worker"] = [{k: v for k, v in row.items() if k != "traceback"}
                    for row in bw_sweep([1.0, 2.0]).run(
                        nested_sweep_runner, workers=2)]
hooked = []
def hook(done, total, row):
    hooked.append(bw_sweep([1.0, 2.0]).run(echo_runner, workers=2))
out["on_thread"] = [
    bw_sweep([1.0, 2.0]).run(lambda m: nested_sweep_runner(m), workers=2),
    bw_sweep([1.0, 2.0]).run(echo_runner, workers=2, progress=hook),
    hooked]

# Two threads, one sweep each.
values = {"0": [1.0, 2.0, 4.0], "1": [3.0, 5.0, 6.0, 7.0]}
barrier, got = threading.Barrier(2), {}
def sweep(n):
    barrier.wait()
    got[n] = bw_sweep(values[n]).run(pingpong_runner, workers=2)
threads = [threading.Thread(target=sweep, args=(n,)) for n in values]
for t in threads: t.start()
for t in threads: t.join(60)
out["threads"] = [got, {n: bw_sweep(v).run(pingpong_runner)
                        for n, v in values.items()}]

# The workers at exit.
rows = bw_sweep().run(pid_runner, workers=2)
out["exit"] = [sorted({r["pid"] for r in rows}), time.monotonic()]
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def lifetime():
    """What ``LIFETIME_SCRIPT`` saw, and when its interpreter was gone."""
    proc = python(LIFETIME_SCRIPT)
    exited = time.monotonic()  # repro: noqa[PY002]
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout), proc.stderr, exited


class TestProcessPool:
    """Every ``workers=N`` fan-out borrows the process's one pool: its
    workers are forked on the first miss and live until the process
    exits.  The cases fork, so they run in a fresh interpreter."""

    def test_warm_rows_and_stats_equal_fresh_and_serial(self, lifetime):
        ((fresh, warm, serial), pids, shards) = lifetime[0]["warm"]
        assert json.dumps(warm, sort_keys=True) == \
            json.dumps(fresh, sort_keys=True) == \
            json.dumps(serial, sort_keys=True)
        assert fresh[1]["misses"] == fresh[1]["stores"] == 4
        # One set of workers: the warm sweep, the serial one (which
        # forks nothing and closes nothing) and the shards share it.
        assert len(pids[0]) == 2 and pids[0] == pids[1] == pids[2]
        assert set(shards) <= set(pids[0])

    def test_an_executor_borrows_the_warm_pool(self, lifetime):
        """An ``Executor``'s job runs on the workers a ``Sweep.run``
        left warm (at the parent every executor forked its own)."""
        warm, served = lifetime[0]["executor"]
        assert len(warm) == 2 and served == warm

    def test_a_manager_forks_the_process_pool_as_it_is_built(self,
                                                             lifetime):
        """``JobManager`` starts the process's pool, at the size of its
        executor, before a server that owns it could bind a socket."""
        before, served, alive = lifetime[0]["manager"]
        assert len(served) == 2 and all(alive)
        assert not set(before) & set(served)

    def test_another_size_reforks(self, lifetime):
        two, three, still_running = lifetime[0]["resize"]
        assert len(three) == 3 and not set(two) & set(three)
        assert not any(still_running)

    def test_runner_defined_after_the_fork(self, lifetime):
        """A worker cannot unpickle a ``__main__`` function defined
        after it was forked: it is re-forked and the task retried,
        without a ``WorkerCrashed`` row, a spent crash budget or a
        traceback."""
        out, stderr, _ = lifetime
        assert out["late"] == [{"bw": bw, "late": 3 * bw}
                               for bw in (1.0, 2.0, 4.0, 8.0)]
        assert out["late_budget"] == [3, 6, 9]
        assert stderr == ""

    def test_nested_fan_out_in_a_worker(self, lifetime):
        """A sweep a worker runs itself runs in-process, with the
        serial rows: a worker is a daemon and may not fork (at the
        parent each row was ``AssertionError: daemonic processes are not
        allowed to have children``), and it never waits on the parent's
        turn or reuses its pipes."""
        echoed = [{"bw": 1.0, "bw_out": 1.0}, {"bw": 2.0, "bw_out": 2.0}]
        assert lifetime[0]["in_worker"] == [
            {"bw": bw, "inner": json.dumps(echoed, sort_keys=True)}
            for bw in (1.0, 2.0)]

    def test_nested_fan_out_on_the_calling_thread(self, lifetime):
        """A fan-out inside another on the same thread — an unpicklable
        runner, which runs in-process, or a progress hook — would wait
        for the turn its own thread holds: it runs in-process instead."""
        nested, hooked, inner = lifetime[0]["on_thread"]
        echoed = [{"bw": 1.0, "bw_out": 1.0}, {"bw": 2.0, "bw_out": 2.0}]
        assert nested == [{"bw": bw, "inner": json.dumps(echoed,
                                                         sort_keys=True)}
                          for bw in (1.0, 2.0)]
        assert hooked == echoed and inner == [echoed, echoed]

    def test_threads_take_turns(self, lifetime):
        got, serial = lifetime[0]["threads"]
        assert got == serial and len(got) == 2

    def test_exit_is_prompt_and_leaves_no_worker(self, lifetime):
        out, _, exited = lifetime
        pids, done = out["exit"]
        assert len(pids) == 2
        assert exited - done < 5.0
        wait_until_gone(pids, seconds=1.0)
