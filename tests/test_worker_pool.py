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
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import ParallelSweepRunner
from repro.parallel import WorkerCrashed, WorkerPool, run_sharded
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


def cursed_bandwidth_runner(machine):
    """A variant that takes its whole worker process down."""
    if machine.network.link_bandwidth == 2.0:
        os._exit(43)
    return {"bw_out": machine.network.link_bandwidth}


CRASH_ROW_ERROR = ("WorkerCrashed: variant worker exited with code 43 "
                   "(after 3 attempts)")


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

    def test_crash_budget_spent_raises_unless_hooked(self):
        with WorkerPool(workers=2, max_task_retries=1) as pool:
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
        src = str(Path(__file__).parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=120, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == -9, proc.stderr
        pids = [int(pid) for pid in proc.stdout.split()]
        assert len(pids) == 3

        def running(pid):
            try:      # a zombie nobody reaped is dead for our purposes
                stat = Path(f"/proc/{pid}/stat").read_text()
            except OSError:
                return False
            return stat.rsplit(")", 1)[1].split()[0] != "Z"

        deadline = time.monotonic() + 30.0  # repro: noqa[PY002]
        while any(running(pid) for pid in pids):
            assert time.monotonic() < deadline, pids  # repro: noqa[PY002]
            time.sleep(0.05)  # repro: noqa[PY002]

    def test_invalid_sizes(self):
        with pytest.raises(ValueError, match="workers"):
            WorkerPool(workers=0)
        with pytest.raises(ValueError, match="max_task_retries"):
            WorkerPool(workers=2, max_task_retries=-1)


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
            "from repro import cli\n"
            "real = cli._sweep_point_runner\n"
            "def crashing(machine, **kwargs):\n"
            "    if machine.network.link_bandwidth == 4.0:\n"
            "        os._exit(43)\n"
            "    return real(machine, **kwargs)\n"
            "cli._sweep_point_runner = crashing\n"
            "sys.exit(cli.main(['sweep', 't805-grid-2x2', '--axis',\n"
            "    'network.link_bandwidth=2,4', '--rounds', '1',\n"
            "    '--workers', '2']))\n")
        src = str(Path(__file__).parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=120, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert "sweep of t805-grid-2x2 (2 variants, workers=2)" in proc.stdout
        lines = proc.stdout.splitlines()
        crashed = [line for line in lines if CRASH_ROW_ERROR in line]
        intact = [line for line in lines if "WorkerCrashed" not in line
                  and line.strip().startswith("2")]
        assert len(crashed) == 1 and len(intact) == 1, proc.stdout
