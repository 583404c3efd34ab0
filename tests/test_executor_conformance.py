"""Executor conformance (repro.parallel.executor).

There is one executor: ``submit`` runs a job on the calling thread and
jobs take turns on its one :class:`WorkerPool`.  The two names the
layered benchmark still constructs — :class:`InProcessExecutor`
(workers forked on the first miss) and :class:`LocalAsyncExecutor`
(workers forked at construction) — must be *observably identical*:
same rows (byte-for-byte, matching a direct ``Sweep.run``), same row
ordering, same error rows with the same remote tracebacks, same cache
cold/warm behavior, same event sequences, same durability (crash
recovery, crash budget, job timeouts).  The suite parameterizes every
shared contract over both names, then pins when each one forks, and
cancellation from another thread of a running job and of a job still
waiting for its turn.

Everything that crosses a process boundary lives at module level
(picklable), matching ``tests/test_parallel_sweep.py``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time

import pytest

from repro import (
    InProcessExecutor,
    JobSpec,
    LocalAsyncExecutor,
    ResultCache,
)
from repro.parallel import TERMINAL_STATES
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


def run_job(executor, spec, **submit_kwargs):
    job_id = executor.submit(spec, **submit_kwargs)
    status = executor.wait(job_id, timeout=120.0)
    return job_id, status


def submit_on_thread(executor, spec, **submit_kwargs):
    """Submit from a new thread; ``submit`` returns when the job ends."""
    thread = threading.Thread(target=executor.submit, args=(spec,),
                              kwargs=submit_kwargs)
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
        job_id, status = run_job(executor, JobSpec(
            runner=echo_runner, points=bw_sweep().points()))
        assert status.state == "done"
        rows = executor.result(job_id)
        assert json.dumps(rows, sort_keys=True) == \
            json.dumps(direct, sort_keys=True)

    def test_rows_come_back_in_point_order(self, make_executor):
        values = [8.0, 1.0, 4.0, 2.0]   # deliberately unsorted
        executor = make_executor()
        job_id, status = run_job(executor, JobSpec(
            runner=echo_runner, points=bw_sweep(values).points()))
        assert status.state == "done"
        rows = executor.result(job_id)
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
        job_id, status = run_job(executor, JobSpec(
            runner=failing_runner, points=bw_sweep([1.0, 2.0, 4.0]).points()))
        assert status.state == "done"
        rows = executor.result(job_id)
        assert rows == serial
        bad = rows[1]
        assert bad["error"].startswith("ValueError: bandwidth 2.0 is cursed")
        assert "failing_runner" in bad["traceback"]

    def test_raw_job_spec_is_preflighted(self, make_executor):
        """No ``Sweep.run`` in front: the job body itself vets a miss."""
        points = bw_sweep([1.0, -2.0, 4.0]).points(validate=False)
        executor = make_executor()
        job_id, status = run_job(executor, JobSpec(
            runner=echo_runner, points=points))
        assert status.state == "done"
        rows = executor.result(job_id)
        assert [row.get("bw_out") for row in rows] == [1.0, None, 4.0]
        assert rows[1]["bw"] == -2.0
        assert rows[1]["error"].startswith("CheckError: MC001")
        _, status = run_job(executor, JobSpec(
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
        cold_id, cold = run_job(executor, JobSpec(
            runner=stochastic_row, points=points))
        assert cold.state == "done"
        assert json.dumps(executor.result(cold_id)) == expected
        # The cache the separate sweeps warmed serves the whole job.
        warm_id, warm = run_job(executor, JobSpec(
            runner=stochastic_row, points=points, workload_id="w",
            cache=cache))
        assert warm.cache == {"hits": 4, "misses": 0, "stores": 0}
        assert json.dumps(executor.result(warm_id)) == expected

    def test_equal_keys_in_one_job_simulate_and_store_once(
            self, make_executor, tmp_path):
        ((coords, machine),) = bw_sweep([1.0]).points()
        points = [({"rung": label, **coords}, machine, plan)
                  for label, plan in (("a", None), ("b", lossy_plan()),
                                      ("c", None), ("d", lossy_plan()))]
        executor = make_executor()
        seen = []
        job_id, status = run_job(
            executor,
            JobSpec(runner=stochastic_row, points=points, timing=True,
                    cache=ResultCache(tmp_path)),
            on_event=lambda e: seen.append(e.get("done")))
        assert status.cache == {"hits": 0, "misses": 2, "stores": 2}
        rows = executor.result(job_id)
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
        _, cold = run_job(executor, spec)
        assert cold.state == "done"
        assert cold.cache == {"hits": 0, "misses": 4, "stores": 4}
        warm_spec = JobSpec(runner=echo_runner, points=bw_sweep().points(),
                            cache=cache)
        warm_id, warm = run_job(executor, warm_spec)
        assert warm.cache == {"hits": 4, "misses": 0, "stores": 0}
        assert executor.result(warm_id) == bw_sweep().run(echo_runner)

    def test_executor_default_cache_used_when_spec_cache_none(
            self, make_executor, tmp_path):
        # Regression: an *empty* ResultCache is falsy (defines __len__),
        # so `spec.cache or self.cache` used to discard it silently.
        executor = make_executor(cache=ResultCache(tmp_path))
        spec = JobSpec(runner=echo_runner, points=bw_sweep().points())
        _, cold = run_job(executor, spec)
        assert cold.cache == {"hits": 0, "misses": 4, "stores": 4}
        _, warm = run_job(executor, JobSpec(
            runner=echo_runner, points=bw_sweep().points()))
        assert warm.cache == {"hits": 4, "misses": 0, "stores": 0}

    def test_warm_job_still_streams_progress_to_100_percent(
            self, make_executor, tmp_path):
        cache = ResultCache(tmp_path)
        executor = make_executor()
        run_job(executor, JobSpec(runner=echo_runner,
                                  points=bw_sweep().points(), cache=cache))
        events = []
        warm_id, warm = run_job(
            executor,
            JobSpec(runner=echo_runner, points=bw_sweep().points(),
                    cache=cache),
            on_event=events.append)
        assert warm.state == "done"
        progress = [e for e in events if e["event"] == "progress"]
        assert [e["done"] for e in progress] == [1, 2, 3, 4]
        assert all(e["total"] == 4 for e in progress)
        assert list(executor.stream(warm_id)) == events


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
        executor = make_executor()
        job_id, status = run_job(executor, JobSpec(
            runner=echo_runner, points=bw_sweep([1.0]).points()))
        polled = executor.poll(job_id)
        assert polled.to_dict() == status.to_dict()
        assert list(polled.to_dict()) == \
            ["job_id", "state", "done", "total", "error", "cache"]
        assert (polled.done, polled.total) == (1, 1)
        with pytest.raises(ExecutorError, match="unknown job"):
            executor.poll("no-such-job")
        with pytest.raises(ExecutorError, match="duplicate job id"):
            executor.submit(JobSpec(runner=echo_runner,
                                    points=bw_sweep([1.0]).points()),
                            job_id=job_id)

    def test_cancel_after_terminal_returns_false(self, make_executor):
        executor = make_executor()
        job_id, status = run_job(executor, JobSpec(
            runner=echo_runner, points=bw_sweep([1.0]).points()))
        assert status.state in TERMINAL_STATES
        assert executor.cancel(job_id) is False

    def test_on_error_raise_fails_the_job_not_the_executor(self,
                                                           make_executor):
        executor = make_executor()
        job_id, status = run_job(executor, JobSpec(
            runner=failing_runner, points=bw_sweep([1.0, 2.0]).points(),
            on_error="raise"))
        assert status.state == "failed"
        assert "bandwidth 2.0 is cursed" in status.error
        with pytest.raises(ExecutorError, match="failed"):
            executor.result(job_id)
        # The executor survives a failed job.
        _, ok = run_job(executor, JobSpec(
            runner=echo_runner, points=bw_sweep([1.0]).points()))
        assert ok.state == "done"

    def test_submit_after_close_raises(self, make_executor):
        executor = make_executor()
        executor.close()
        with pytest.raises(ExecutorError, match="closed"):
            executor.submit(JobSpec(runner=echo_runner,
                                    points=bw_sweep([1.0]).points()),
                            job_id="late")
        assert executor.poll("late").state == "cancelled"


class TestPoolLifetime:
    """Workers are forked on the first miss, or by ``start()``, and live
    until ``close()``; the two names differ only in when they fork."""

    def test_inprocess_forks_on_the_first_miss_only(self, tmp_path):
        cache = ResultCache(tmp_path)
        bw_sweep().run(echo_runner, cache=cache)          # serial warm-up
        with InProcessExecutor(workers=2, cache=cache) as executor:
            _, warm = run_job(executor, JobSpec(
                runner=echo_runner, points=bw_sweep().points()))
            assert warm.cache == {"hits": 4, "misses": 0, "stores": 0}
            assert executor._pool._workers == []
            _, cold = run_job(executor, JobSpec(
                runner=echo_runner, points=bw_sweep([16.0, 32.0]).points()))
            assert cold.cache == {"hits": 0, "misses": 2, "stores": 2}
            workers = list(executor._pool._workers)
            assert len(workers) == 2
        assert executor._pool._workers == []
        assert not any(worker.proc.is_alive() for worker in workers)

    def test_localasync_forks_at_construction(self):
        with LocalAsyncExecutor(workers=2) as executor:
            pids = [worker.proc.pid for worker in executor._pool._workers]
            assert len(pids) == 2
            _, status = run_job(executor, JobSpec(
                runner=echo_runner, points=bw_sweep().points()))
            assert status.state == "done"
            assert [w.proc.pid for w in executor._pool._workers] == pids
        assert executor._pool._workers == []


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
        job_id, status = run_job(executor, JobSpec(
            runner=runner, points=bw_sweep([1.0, 2.0, 4.0]).points()))
        assert status.state == "done"
        rows = executor.result(job_id)
        assert [row["bw_out"] for row in rows] == [1.0, 2.0, 4.0]
        assert not any("error" in row for row in rows)

    def test_crash_budget_exhausted_becomes_error_row(self, make_executor):
        executor = make_executor(max_task_retries=1)
        job_id, status = run_job(executor, JobSpec(
            runner=always_crash_runner,
            points=bw_sweep([1.0, 2.0]).points()))
        assert status.state == "done"
        for row in executor.result(job_id):
            assert row["error"] == ("WorkerCrashed: variant worker exited "
                                    "with code 43 (after 2 attempts)")

    def test_job_timeout_fails_job_but_executor_keeps_serving(
            self, make_executor):
        executor = make_executor()
        _, status = run_job(executor, JobSpec(
            runner=slow_runner, points=bw_sweep([1.0, 2.0]).points(),
            timeout_s=0.1))
        assert status.state == "failed"
        assert status.error == \
            "JobTimeout: job exceeded its 0.1s budget"
        _, ok = run_job(executor, JobSpec(
            runner=echo_runner, points=bw_sweep([1.0]).points()))
        assert ok.state == "done"

    def test_submitters_on_many_threads_never_cross_rows(self):
        """The pool is shared by an executor's jobs: under contention
        every job must still get exactly its own rows."""
        n_threads, jobs_each = 6, 4      # more threads than cores
        failures, finished = [], []

        def submitter(executor, lane):
            for j in range(jobs_each):
                values = [float(100 * lane + 10 * j + k + 1)
                          for k in range(3)]
                job_id, status = run_job(executor, JobSpec(
                    runner=echo_runner, points=bw_sweep(values).points()))
                got = [row["bw_out"] for row in executor.result(job_id)]
                if status.state != "done" or got != values:
                    failures.append((lane, j, status.state, got))
            finished.append(lane)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with InProcessExecutor(workers=2) as executor:
                threads = [threading.Thread(target=submitter,
                                            args=(executor, lane))
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
        with LocalAsyncExecutor(workers=1) as executor:
            submitter = submit_on_thread(
                executor, JobSpec(
                    runner=slow_runner,
                    points=bw_sweep([1.0, 2.0, 4.0, 8.0]).points()),
                job_id="slow", on_event=on_state("running", running))
            assert running.wait(timeout=30.0)
            assert executor.cancel("slow") is True
            status = executor.wait("slow", timeout=30.0)
            submitter.join(timeout=30.0)
            assert not submitter.is_alive()
            assert status.state == "cancelled"
            assert executor.cancel("slow") is False
            with pytest.raises(ExecutorError, match="cancelled"):
                executor.result("slow")

    def test_cancel_queued_job_never_runs(self):
        """A second submitter, blocked waiting for its turn, is
        cancelled by id: its job never runs."""
        gate, running = threading.Event(), threading.Event()

        def gated_runner(machine):          # in-process at workers=1
            gate.wait(timeout=30.0)
            return echo_runner(machine)

        events = []
        with LocalAsyncExecutor(workers=1) as executor:
            blocker = submit_on_thread(
                executor, JobSpec(runner=gated_runner,
                                  points=bw_sweep([1.0]).points()),
                job_id="blocker", on_event=on_state("running", running))
            assert running.wait(timeout=30.0)
            waiting = submit_on_thread(
                executor, JobSpec(runner=echo_runner,
                                  points=bw_sweep([4.0]).points()),
                job_id="queued", on_event=events.append)
            deadline = time.monotonic() + 30.0  # repro: noqa[PY002]
            while "queued" not in executor._jobs:
                assert time.monotonic() < deadline  # repro: noqa[PY002]
                time.sleep(0.01)  # repro: noqa[PY002]
            assert executor.poll("queued").state == "queued"
            assert executor.cancel("queued") is True
            gate.set()
            for thread in (blocker, waiting):
                thread.join(timeout=60.0)
                assert not thread.is_alive()
            assert executor.poll("blocker").state == "done"
            assert executor.poll("queued").state == "cancelled"
        assert events == [{"event": "state", "state": "cancelled"}]
