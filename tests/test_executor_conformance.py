"""Executor conformance (repro.parallel.executor).

There is one executor: ``submit`` runs a job on the calling thread and
jobs take turns on the process's one :class:`WorkerPool`, which an
executor borrows and does not own.  The two names the
layered benchmark still constructs — :class:`InProcessExecutor`
(workers forked on the first miss) and :class:`LocalAsyncExecutor`
(workers forked at construction) — must be *observably identical*:
same rows (byte-for-byte, matching a direct ``Sweep.run``), same row
ordering, same error rows with the same remote tracebacks, same cache
cold/warm behavior, same event sequences, same durability (crash
recovery, crash budget, job timeouts).  The suite parameterizes every
shared contract over both names, then pins when each one forks, and
cancellation from another thread of a running job and of a job still
waiting for its turn.  An executor keeps no job: ``submit`` returns the
:class:`JobState` it ran into, and that state is the only handle.

Everything that crosses a process boundary lives at module level
(picklable), matching ``tests/test_parallel_sweep.py``.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import sys
import threading
import time
import weakref

import pytest

from repro import (
    InProcessExecutor,
    JobSpec,
    LocalAsyncExecutor,
    ResultCache,
)
from repro.parallel import TERMINAL_STATES, Executor, JobState, pool
from repro.parallel.executor import ExecutorError
from tests.test_faults_differential import lossy_plan, stochastic_row
from tests.test_parallel_sweep import (
    bw_sweep,
    echo_runner,
    failing_runner,
)


# ---------------------------------------------------------------------------
# Module-level runners (picklable for the worker processes)
# ---------------------------------------------------------------------------

def crash_once_runner(machine, flag_dir):
    """Kill the hosting process the first time each variant is seen."""
    bw = machine.network.link_bandwidth
    flag = os.path.join(flag_dir, f"seen-{bw}")
    if not os.path.exists(flag):
        open(flag, "w").close()
        os._exit(41)
    return {"bw_out": bw}


def always_crash_runner(machine):
    os._exit(43)


def slow_runner(machine):
    time.sleep(0.25)  # repro: noqa[PY002] - host-side stall, not sim time
    return {"bw_out": machine.network.link_bandwidth}


# ---------------------------------------------------------------------------
# Backend parameterization
# ---------------------------------------------------------------------------

BACKENDS = {
    "inprocess": functools.partial(InProcessExecutor, workers=2),
    "localasync": functools.partial(LocalAsyncExecutor, workers=2),
}


@pytest.fixture(params=sorted(BACKENDS), ids=sorted(BACKENDS))
def make_executor(request):
    """A factory building the parameterized backend; closes them all."""
    opened = []

    def make(**kwargs):
        executor = BACKENDS[request.param](**kwargs)
        opened.append(executor)
        return executor

    yield make
    for executor in opened:
        executor.close()


def run_job(executor, spec, on_event=None):
    """Run ``spec``; ``submit`` returns its :class:`JobState` once the
    job has ended."""
    job = executor.submit(spec, JobState("job", on_event=on_event))
    assert job.terminal
    return job


def submit_on_thread(executor, spec, state):
    """Submit from a new thread, into a state the caller owns."""
    thread = threading.Thread(target=executor.submit, args=(spec, state))
    thread.start()
    return thread


def on_state(state, flag):
    """An ``on_event`` that sets ``flag`` once the job enters ``state``."""
    def on_event(event):
        if event.get("state") == state:
            flag.set()
    return on_event


# ---------------------------------------------------------------------------
# Shared contracts (both backends)
# ---------------------------------------------------------------------------

class TestRowConformance:
    def test_rows_byte_identical_to_direct_sweep_run(self, make_executor):
        direct = bw_sweep().run(echo_runner)
        executor = make_executor()
        status = run_job(executor, JobSpec(
            runner=echo_runner, points=bw_sweep().points()))
        assert status.state == "done"
        rows = status.rows
        assert json.dumps(rows, sort_keys=True) == \
            json.dumps(direct, sort_keys=True)

    def test_rows_come_back_in_point_order(self, make_executor):
        values = [8.0, 1.0, 4.0, 2.0]   # deliberately unsorted
        executor = make_executor()
        status = run_job(executor, JobSpec(
            runner=echo_runner, points=bw_sweep(values).points()))
        assert status.state == "done"
        rows = status.rows
        assert [row["bw"] for row in rows] == values
        assert [row["bw_out"] for row in rows] == values

    def test_sweep_run_executor_kwarg(self, make_executor):
        executor = make_executor()
        direct = bw_sweep().run(echo_runner)
        via_executor = bw_sweep().run(echo_runner, executor=executor)
        assert via_executor == direct
        with pytest.raises(ValueError, match="not both"):
            bw_sweep().run(echo_runner, workers=2, executor=executor)

    def test_error_rows_match_serial_including_traceback(self,
                                                         make_executor):
        serial = bw_sweep([1.0, 2.0, 4.0]).run(failing_runner)
        executor = make_executor()
        status = run_job(executor, JobSpec(
            runner=failing_runner, points=bw_sweep([1.0, 2.0, 4.0]).points()))
        assert status.state == "done"
        rows = status.rows
        assert rows == serial
        bad = rows[1]
        assert bad["error"].startswith("ValueError: bandwidth 2.0 is cursed")
        assert "failing_runner" in bad["traceback"]

    def test_raw_job_spec_is_preflighted(self, make_executor):
        """No ``Sweep.run`` in front: the job body itself vets a miss."""
        points = bw_sweep([1.0, -2.0, 4.0]).points(validate=False)
        executor = make_executor()
        status = run_job(executor, JobSpec(
            runner=echo_runner, points=points))
        assert status.state == "done"
        rows = status.rows
        assert [row.get("bw_out") for row in rows] == [1.0, None, 4.0]
        assert rows[1]["bw"] == -2.0
        assert rows[1]["error"].startswith("CheckError: MC001")
        status = run_job(executor, JobSpec(
            runner=echo_runner, points=points, on_error="raise"))
        assert status.state == "failed"
        assert status.error.startswith("SweepVariantError")
        assert "CheckError: MC001" in status.error


class TestPlanIsACoordinateOfThePoint:
    def test_mixed_plan_job_equals_the_single_plan_sweeps(
            self, make_executor, tmp_path):
        """One job whose points carry different plans (and both point
        shapes) returns the rows of the separate single-plan sweeps,
        under the same cache keys."""
        plan = lossy_plan()
        sweep = bw_sweep([1.0, 2.0])
        cache = ResultCache(tmp_path)
        clean = sweep.run(stochastic_row, cache=cache, workload_id="w")
        faulty = sweep.run(stochastic_row, cache=cache, workload_id="w",
                           faults=plan)
        assert clean != faulty
        (c0, m0), (c1, m1) = sweep.points()
        points = [(c0, m0), (c0, m0, plan), (c1, m1, None), (c1, m1, plan)]
        expected = json.dumps([clean[0], faulty[0], clean[1], faulty[1]])
        executor = make_executor()
        cold = run_job(executor, JobSpec(
            runner=stochastic_row, points=points))
        assert cold.state == "done"
        assert json.dumps(cold.rows) == expected
        # The cache the separate sweeps warmed serves the whole job.
        warm = run_job(executor, JobSpec(
            runner=stochastic_row, points=points, workload_id="w",
            cache=cache))
        assert warm.cache == {"hits": 4, "misses": 0, "stores": 0}
        assert json.dumps(warm.rows) == expected

    def test_equal_keys_in_one_job_simulate_and_store_once(
            self, make_executor, tmp_path):
        ((coords, machine),) = bw_sweep([1.0]).points()
        points = [({"rung": label, **coords}, machine, plan)
                  for label, plan in (("a", None), ("b", lossy_plan()),
                                      ("c", None), ("d", lossy_plan()))]
        executor = make_executor()
        seen = []
        status = run_job(
            executor,
            JobSpec(runner=stochastic_row, points=points, timing=True,
                    cache=ResultCache(tmp_path)),
            on_event=lambda e: seen.append(e.get("done")))
        assert status.cache == {"hits": 0, "misses": 2, "stores": 2}
        rows = status.rows
        assert [row["rung"] for row in rows] == ["a", "b", "c", "d"]
        assert [row["wall_time_s"] > 0.0 for row in rows] == \
            [True, True, False, False]
        for first, again in ((0, 2), (1, 3)):
            strip = ("rung", "wall_time_s")
            assert {k: v for k, v in rows[first].items() if k not in strip} \
                == {k: v for k, v in rows[again].items() if k not in strip}
        assert [d for d in seen if d is not None] == [1, 2, 3, 4]


class TestCacheConformance:
    def test_cold_then_warm_job_cache_stats(self, make_executor, tmp_path):
        cache = ResultCache(tmp_path)
        executor = make_executor()
        spec = JobSpec(runner=echo_runner, points=bw_sweep().points(),
                       cache=cache)
        cold = run_job(executor, spec)
        assert cold.state == "done"
        assert cold.cache == {"hits": 0, "misses": 4, "stores": 4}
        warm_spec = JobSpec(runner=echo_runner, points=bw_sweep().points(),
                            cache=cache)
        warm = run_job(executor, warm_spec)
        assert warm.cache == {"hits": 4, "misses": 0, "stores": 0}
        assert warm.rows == bw_sweep().run(echo_runner)

    def test_warm_job_still_streams_progress_to_100_percent(
            self, make_executor, tmp_path):
        cache = ResultCache(tmp_path)
        executor = make_executor()
        run_job(executor, JobSpec(runner=echo_runner,
                                  points=bw_sweep().points(), cache=cache))
        events = []
        warm = run_job(
            executor,
            JobSpec(runner=echo_runner, points=bw_sweep().points(),
                    cache=cache),
            on_event=events.append)
        assert warm.state == "done"
        progress = [e for e in events if e["event"] == "progress"]
        assert [e["done"] for e in progress] == [1, 2, 3, 4]
        assert all(e["total"] == 4 for e in progress)
        assert list(warm.follow()) == events


class TestLifecycleConformance:
    def test_event_sequences_identical_across_backends(self):
        streams = {}
        for name, factory in BACKENDS.items():
            events = []
            with factory() as executor:
                run_job(executor,
                        JobSpec(runner=echo_runner,
                                points=bw_sweep([1.0, 2.0]).points()),
                        on_event=events.append)
            streams[name] = events
        assert streams["inprocess"] == streams["localasync"]
        kinds = [(e["event"], e.get("state")) for e in streams["inprocess"]]
        assert kinds == [("state", "running"), ("progress", None),
                         ("progress", None), ("state", "done")]

    def test_poll_and_result_lifecycle(self, make_executor):
        """``submit`` returns the job's state: a new one unless the
        caller passes its own, which is then the one returned."""
        executor = make_executor()
        spec = JobSpec(runner=echo_runner, points=bw_sweep([1.0]).points())
        job = executor.submit(spec)
        assert (job.job_id, job.state, job.done, job.total, job.error) == \
            ("job", "done", 1, 1, None)
        assert job.cache == {"hits": 0, "misses": 0, "stores": 0}
        assert job.rows == bw_sweep([1.0]).run(echo_runner)
        assert executor.wait(job) == "done"
        mine = JobState("mine")
        assert executor.submit(spec, mine) is mine
        assert mine.rows == job.rows

    def test_cancel_after_terminal_returns_false(self, make_executor):
        executor = make_executor()
        status = run_job(executor, JobSpec(
            runner=echo_runner, points=bw_sweep([1.0]).points()))
        assert status.state in TERMINAL_STATES
        assert status.cancel() is False
        assert not status.cancel_requested

    def test_a_submitted_job_is_freed_once_the_caller_drops_it(
            self, make_executor):
        """Regression: the executor kept every job it made — its rows
        and events — in a table by id for as long as it lived."""
        executor = make_executor()
        job = executor.submit(JobSpec(runner=echo_runner,
                                      points=bw_sweep().points()))
        assert job.state == "done" and len(job.rows) == 4
        freed = weakref.ref(job)
        del job
        gc.collect()
        assert freed() is None

    def test_on_error_raise_fails_the_job_not_the_executor(self,
                                                           make_executor):
        executor = make_executor()
        status = run_job(executor, JobSpec(
            runner=failing_runner, points=bw_sweep([1.0, 2.0]).points(),
            on_error="raise"))
        assert status.state == "failed"
        assert "bandwidth 2.0 is cursed" in status.error
        assert status.rows is None
        # The executor survives a failed job.
        ok = run_job(executor, JobSpec(
            runner=echo_runner, points=bw_sweep([1.0]).points()))
        assert ok.state == "done"

    def test_submit_after_close_raises(self, make_executor):
        executor = make_executor()
        executor.close()
        late = JobState("late")
        with pytest.raises(ExecutorError, match="closed"):
            executor.submit(JobSpec(runner=echo_runner,
                                    points=bw_sweep([1.0]).points()), late)
        assert late.state == "cancelled"


def process_workers():
    """The workers of the process's pool, which executors borrow."""
    return pool._process_pool._workers


class TestPoolLifetime:
    """An executor's jobs run on the process's pool: its workers are
    forked on the first miss, or by ``start()``, and live until
    ``close()``; the two names differ only in when they fork.  Each case
    starts from stopped workers (an earlier test may leave them warm)."""

    def test_inprocess_forks_on_the_first_miss_only(self, tmp_path):
        Executor(workers=2).close()
        cache = ResultCache(tmp_path)
        bw_sweep().run(echo_runner, cache=cache)          # serial warm-up
        with InProcessExecutor(workers=2) as executor:
            warm = run_job(executor, JobSpec(
                runner=echo_runner, points=bw_sweep().points(),
                cache=cache))
            assert warm.cache == {"hits": 4, "misses": 0, "stores": 0}
            assert process_workers() == []
            cold = run_job(executor, JobSpec(
                runner=echo_runner, points=bw_sweep([16.0, 32.0]).points(),
                cache=cache))
            assert cold.cache == {"hits": 0, "misses": 2, "stores": 2}
            workers = list(process_workers())
            assert len(workers) == 2
        assert process_workers() == []
        assert not any(worker.proc.is_alive() for worker in workers)

    def test_localasync_forks_at_construction(self):
        Executor(workers=2).close()
        with LocalAsyncExecutor(workers=2) as executor:
            pids = [worker.proc.pid for worker in process_workers()]
            assert len(pids) == 2
            status = run_job(executor, JobSpec(
                runner=echo_runner, points=bw_sweep().points()))
            assert status.state == "done"
            assert [w.proc.pid for w in process_workers()] == pids
        assert process_workers() == []

    def test_executor_checks_its_size(self):
        with pytest.raises(ValueError, match="workers"):
            Executor(workers=0)


# ---------------------------------------------------------------------------
# Durability: the pool's, so both names'; cancellation comes from a
# thread other than the submitter's
# ---------------------------------------------------------------------------

class TestLocalAsyncDurability:
    def test_crashed_worker_is_respawned_and_variant_requeued(
            self, make_executor, tmp_path):
        runner = functools.partial(crash_once_runner,
                                   flag_dir=str(tmp_path))
        executor = make_executor()
        status = run_job(executor, JobSpec(
            runner=runner, points=bw_sweep([1.0, 2.0, 4.0]).points()))
        assert status.state == "done"
        rows = status.rows
        assert [row["bw_out"] for row in rows] == [1.0, 2.0, 4.0]
        assert not any("error" in row for row in rows)

    def test_crash_budget_exhausted_becomes_error_row(self, make_executor,
                                                      monkeypatch):
        monkeypatch.setattr(pool, "MAX_TASK_RETRIES", 1)
        executor = make_executor()
        status = run_job(executor, JobSpec(
            runner=always_crash_runner,
            points=bw_sweep([1.0, 2.0]).points()))
        assert status.state == "done"
        for row in status.rows:
            assert row["error"] == ("WorkerCrashed: variant worker exited "
                                    "with code 43 (after 2 attempts)")

    def test_job_timeout_fails_job_but_executor_keeps_serving(
            self, make_executor):
        executor = make_executor()
        status = run_job(executor, JobSpec(
            runner=slow_runner, points=bw_sweep([1.0, 2.0]).points(),
            timeout_s=0.1))
        assert status.state == "failed"
        assert status.error == \
            "JobTimeout: job exceeded its 0.1s budget"
        ok = run_job(executor, JobSpec(
            runner=echo_runner, points=bw_sweep([1.0]).points()))
        assert ok.state == "done"

    def test_submitters_on_many_threads_never_cross_rows(self):
        """The process's pool is shared by every executor's jobs: under
        contention, with the threads split over two executors, every
        job must still get exactly its own rows."""
        n_threads, jobs_each = 6, 4      # more threads than cores
        failures, finished = [], []

        def submitter(executor, lane):
            for j in range(jobs_each):
                values = [float(100 * lane + 10 * j + k + 1)
                          for k in range(3)]
                status = run_job(executor, JobSpec(
                    runner=echo_runner, points=bw_sweep(values).points()))
                got = [row["bw_out"] for row in status.rows]
                if status.state != "done" or got != values:
                    failures.append((lane, j, status.state, got))
            finished.append(lane)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with InProcessExecutor(workers=2) as one, \
                    LocalAsyncExecutor(workers=2) as other:
                threads = [threading.Thread(target=submitter,
                                            args=((one, other)[lane % 2],
                                                  lane))
                           for lane in range(n_threads)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120.0)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        assert sorted(finished) == list(range(n_threads))

    def test_cancel_running_job(self):
        """The job runs on its submitter's thread; cancel comes from
        another."""
        running = threading.Event()
        slow = JobState("slow", on_event=on_state("running", running))
        with LocalAsyncExecutor(workers=1) as executor:
            submitter = submit_on_thread(
                executor, JobSpec(
                    runner=slow_runner,
                    points=bw_sweep([1.0, 2.0, 4.0, 8.0]).points()),
                slow)
            assert running.wait(timeout=30.0)
            assert slow.cancel() is True
            assert slow.wait(timeout=30.0) == "cancelled"
            submitter.join(timeout=30.0)
            assert not submitter.is_alive()
            assert slow.cancel() is False
            assert slow.rows is None

    def test_cancel_queued_job_never_runs(self):
        """A second submitter, blocked waiting for its turn, is
        cancelled through its job state: its job never runs."""
        gate, running = threading.Event(), threading.Event()

        def gated_runner(machine):    # a closure: runs in-process, and
            gate.wait(timeout=30.0)   # its job holds the pool's turn
            return echo_runner(machine)

        events = []
        blocker = JobState("blocker", on_event=on_state("running", running))
        queued = JobState("queued", on_event=events.append)
        with LocalAsyncExecutor(workers=2) as executor:
            threads = [submit_on_thread(
                executor, JobSpec(runner=gated_runner,
                                  points=bw_sweep([1.0]).points()),
                blocker)]
            assert running.wait(timeout=30.0)
            threads.append(submit_on_thread(
                executor, JobSpec(runner=echo_runner,
                                  points=bw_sweep([4.0]).points()),
                queued))
            # submit sets the total before it waits for its turn
            deadline = time.monotonic() + 30.0  # repro: noqa[PY002]
            while queued.total != 1:
                assert time.monotonic() < deadline  # repro: noqa[PY002]
                time.sleep(0.01)  # repro: noqa[PY002]
            assert queued.state == "queued"
            assert queued.cancel() is True
            gate.set()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
            assert blocker.state == "done"
            assert queued.state == "cancelled"
        assert events == [{"event": "state", "state": "cancelled"}]
