"""Parallel sweep execution (repro.parallel).

Parallel execution is only trustworthy if it is provably identical to
serial execution, so the core of this suite is the parallel-vs-serial
equivalence contract: same rows, same order, byte-for-byte.  Around it:
worker-count edge cases, per-variant error capture, and the
content-addressed result cache (a cached re-run must perform zero
simulations and return identical rows).

Runner callables cross the process boundary, so everything passed to
``workers > 1`` sweeps lives at module level (picklable).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from pathlib import Path

import pytest

from repro import (
    ParallelSweepRunner,
    ResultCache,
    Sweep,
    Workbench,
    generic_multicomputer,
)
from repro.apps import pingpong_task_traces
from repro.core.experiment import _AxisSetter
from repro.parallel import (
    SweepVariantError,
    code_version,
    default_workload_id,
    execute_variant,
    result_key,
)
from repro.tracegen import StochasticAppDescription


# ---------------------------------------------------------------------------
# Module-level runners (picklable for the process pool)
# ---------------------------------------------------------------------------

def set_bw(machine, value):
    machine.network.link_bandwidth = value


def echo_runner(machine):
    return {"bw_out": machine.network.link_bandwidth}


def pingpong_runner(machine):
    n = machine.n_nodes
    res = Workbench(machine).run_comm_only(
        pingpong_task_traces(n, size=256, repeats=2, b=n - 1))
    return {"cycles": res.total_cycles,
            "latency": res.message_latency.mean}


def stochastic_runner(machine):
    res = Workbench(machine).run_stochastic(
        StochasticAppDescription(), level="task", rounds=3, seed=7)
    return {"cycles": res.total_cycles,
            "latency": res.message_latency.mean}


def failing_runner(machine):
    if machine.network.link_bandwidth == 2.0:
        raise ValueError("bandwidth 2.0 is cursed")
    return {"ok": 1.0}


def nondict_runner(machine):
    return 42


def undeliverable_runner(machine):
    """A faulted pingpong whose every link is dead: the transport
    exhausts its budget and raises DeliveryFailed mid-run."""
    from repro.commmodel.message import reset_message_ids
    from repro.commmodel.network import MultiNodeModel
    from repro.faults import FaultPlan, LinkFault, TransportConfig
    plan = FaultPlan(
        seed=1, link_faults=[LinkFault(drop_prob=1.0)],
        transport=TransportConfig(timeout_cycles=1_000.0,
                                  backoff_factor=1.0, max_retries=1))
    reset_message_ids()
    model = MultiNodeModel(machine, faults=plan)
    res = model.run(list(pingpong_task_traces(
        model.n_nodes, size=64, repeats=1, b=1)))
    return {"cycles": res.total_cycles}


def counting_runner(machine, log_path):
    """Append one line per simulation so tests can count invocations."""
    with open(log_path, "a") as fp:
        fp.write(f"{machine.network.link_bandwidth}\n")
    return {"bw_out": machine.network.link_bandwidth}


def bw_sweep(values=(1.0, 2.0, 4.0, 8.0)) -> Sweep:
    sweep = Sweep(generic_multicomputer("mesh", (2, 2)))
    sweep.axis("bw", set_bw, list(values))
    return sweep


# ---------------------------------------------------------------------------
# Parallel-vs-serial equivalence
# ---------------------------------------------------------------------------

class TestEquivalence:
    @pytest.mark.parametrize("runner", [pingpong_runner, stochastic_runner],
                             ids=["pingpong", "stochastic"])
    def test_parallel_rows_identical_to_serial(self, runner):
        serial = bw_sweep().run(runner)
        parallel = bw_sweep().run(runner, workers=4)
        assert serial == parallel
        # Byte-identical, not merely approximately equal.
        assert json.dumps(serial, sort_keys=True) == \
            json.dumps(parallel, sort_keys=True)

    def test_row_order_matches_point_order(self):
        values = [8.0, 1.0, 4.0, 2.0]          # deliberately unsorted
        rows = bw_sweep(values).run(echo_runner, workers=4)
        assert [r["bw"] for r in rows] == values
        assert [r["bw_out"] for r in rows] == values

    def test_two_axis_cross_product_parallel(self):
        sweep = bw_sweep([1.0, 4.0])
        sweep.axis("pkt", lambda m, v: setattr(m.network, "packet_bytes", v),
                   [128, 256])
        serial = sweep.run(pingpong_runner)
        parallel = sweep.run(pingpong_runner, workers=3)
        assert serial == parallel
        assert len(parallel) == 4


class TestWorkerCounts:
    def test_workers_one_is_serial(self):
        assert bw_sweep().run(echo_runner, workers=1) == \
            bw_sweep().run(echo_runner)

    def test_more_workers_than_variants(self):
        rows = bw_sweep([1.0, 2.0]).run(echo_runner, workers=16)
        assert [r["bw_out"] for r in rows] == [1.0, 2.0]

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError, match="workers"):
            ParallelSweepRunner(workers=0)

    def test_runner_directly_on_points(self):
        points = bw_sweep([1.0, 2.0]).points()
        rows = ParallelSweepRunner(workers=2).run(echo_runner, points)
        assert [r["bw_out"] for r in rows] == [1.0, 2.0]


# ---------------------------------------------------------------------------
# Error capture: one sick variant must not kill the sweep
# ---------------------------------------------------------------------------

class TestErrorCapture:
    @pytest.mark.parametrize("workers", [None, 3], ids=["serial", "parallel"])
    def test_failure_becomes_error_row(self, workers):
        rows = bw_sweep().run(failing_runner, workers=workers)
        assert len(rows) == 4
        bad = [r for r in rows if "error" in r]
        assert len(bad) == 1
        assert bad[0]["bw"] == 2.0
        assert bad[0]["error"] == "ValueError: bandwidth 2.0 is cursed"
        assert all(r["ok"] == 1.0 for r in rows if "error" not in r)

    @pytest.mark.parametrize("workers", [None, 3], ids=["serial", "parallel"])
    def test_on_error_raise(self, workers):
        with pytest.raises(SweepVariantError, match="bandwidth 2.0"):
            bw_sweep().run(failing_runner, workers=workers,
                           on_error="raise")

    def test_non_dict_return_captured(self):
        rows = bw_sweep([1.0]).run(nondict_runner)
        assert "error" in rows[0] and "expected dict" in rows[0]["error"]

    def test_bad_on_error_value(self):
        with pytest.raises(ValueError, match="on_error"):
            bw_sweep([1.0]).run(echo_runner, on_error="explode")

    def test_execute_variant_contract(self):
        machine = generic_multicomputer("mesh", (2, 2))
        assert execute_variant(echo_runner, machine) == \
            ("ok", {"bw_out": machine.network.link_bandwidth})
        status, payload = execute_variant(
            lambda m: 1 / 0, machine)
        assert status == "error"
        assert payload["error"].startswith("ZeroDivisionError")
        # The formatted remote traceback rides along for debuggability.
        assert "ZeroDivisionError" in payload["traceback"]
        assert "execute_variant" in payload["traceback"]

    @pytest.mark.parametrize("workers", [None, 2], ids=["serial", "parallel"])
    def test_error_rows_carry_remote_traceback(self, workers):
        """Regression: error rows used to carry only ``repr(exc)``; the
        formatted traceback from the (possibly remote) worker must ride
        along so failed rows are debuggable from a service job record."""
        rows = bw_sweep([1.0, 2.0]).run(failing_runner, workers=workers)
        bad = [r for r in rows if "error" in r]
        assert len(bad) == 1
        tb = bad[0]["traceback"]
        assert "ValueError: bandwidth 2.0 is cursed" in tb
        assert "failing_runner" in tb

    def test_remote_traceback_identical_serial_vs_parallel(self):
        serial = bw_sweep([1.0, 2.0]).run(failing_runner, workers=1)
        parallel = bw_sweep([1.0, 2.0]).run(failing_runner, workers=2)
        assert serial == parallel

    @pytest.mark.parametrize("workers", [None, 2], ids=["serial", "parallel"])
    def test_delivery_failed_row_keeps_metric_columns(self, workers):
        """Regression: a ``DeliveryFailed`` variant used to collapse to
        a bare ``{coords, error}`` row, so campaign reductions saw a
        ragged schema.  The captured row now carries the same
        ``dropped``/``retransmissions``/``delivery_failed`` columns as
        successful faulted rows, salvaged from the partial result."""
        machine = generic_multicomputer("mesh", (2, 2))
        pool = ParallelSweepRunner(workers=workers)
        rows = pool.run(undeliverable_runner, [({"v": 1}, machine)],
                        workload_id="w")
        (row,) = rows
        assert row["v"] == 1
        assert row["error"].startswith("DeliveryFailed")
        # Uniform schema: the fault-metric columns are present and
        # real (every attempt on the dead mesh was dropped).
        assert row["delivery_failed"] == 1
        assert row["dropped"] > 0
        assert row["retransmissions"] > 0

    def test_delivery_failed_still_raises_on_request(self):
        machine = generic_multicomputer("mesh", (2, 2))
        pool = ParallelSweepRunner(workers=1)
        with pytest.raises(SweepVariantError, match="DeliveryFailed"):
            pool.run(undeliverable_runner, [({}, machine)],
                     workload_id="w", on_error="raise")


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------

class TestResultCache:
    def test_rerun_performs_zero_simulations(self, tmp_path):
        log = tmp_path / "runs.log"
        cache = ResultCache(tmp_path / "cache")
        runner = functools.partial(counting_runner, log_path=str(log))

        first = bw_sweep().run(runner, workers=2, cache=cache,
                               workload_id="count")
        assert len(log.read_text().splitlines()) == 4
        assert cache.stats.stores == 4 and cache.stats.hits == 0

        second = bw_sweep().run(runner, workers=2, cache=cache,
                                workload_id="count")
        assert second == first
        assert len(log.read_text().splitlines()) == 4   # no new simulations
        assert cache.stats.hits == 4

    def test_damaged_row_is_resimulated(self, tmp_path):
        """A damaged cached row is one miss: the sweep re-simulates that
        point only, returns the cold rows, and leaves an entry that
        reads as a hit."""
        log = tmp_path / "runs.log"
        runner = functools.partial(counting_runner, log_path=str(log))
        cold = bw_sweep().run(runner, cache=ResultCache(tmp_path / "c"),
                              workload_id="count")
        _, machine = bw_sweep().points()[1]
        key = result_key(machine, "count")
        (tmp_path / "c" / key[:2] / f"{key}.json").write_text(
            '{"metrics": [1]}')
        cache = ResultCache(tmp_path / "c")
        assert bw_sweep().run(runner, cache=cache,
                              workload_id="count") == cold
        assert log.read_text().splitlines()[4:] == ["2.0"]
        assert (cache.stats.hits, cache.stats.misses,
                cache.stats.stores) == (3, 1, 1)
        assert cache.get(key) == {"bw_out": 2.0}

    def test_cache_dir_path_accepted(self, tmp_path):
        first = bw_sweep().run(echo_runner, cache=str(tmp_path))
        second = bw_sweep().run(echo_runner, cache=str(tmp_path))
        assert first == second
        assert len(ResultCache(tmp_path).store) == 4

    def test_partial_hit_simulates_only_new_variants(self, tmp_path):
        log = tmp_path / "runs.log"
        cache = ResultCache(tmp_path / "cache")
        runner = functools.partial(counting_runner, log_path=str(log))
        bw_sweep([1.0, 2.0]).run(runner, cache=cache, workload_id="count")
        bw_sweep([1.0, 2.0, 4.0]).run(runner, cache=cache,
                                      workload_id="count")
        # 2 first + only the one genuinely new variant on the re-run.
        assert len(log.read_text().splitlines()) == 3

    def test_error_rows_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        rows = bw_sweep().run(failing_runner, cache=cache)
        assert sum("error" in r for r in rows) == 1
        assert len(cache.store) == 3                    # only the ok rows
        assert cache.stats.stores == 3

    def test_workload_id_separates_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        bw_sweep([1.0]).run(echo_runner, cache=cache, workload_id="a")
        bw_sweep([1.0]).run(echo_runner, cache=cache, workload_id="b")
        assert cache.stats.hits == 0 and cache.stats.stores == 2

    def test_get_put_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        machine = generic_multicomputer("mesh", (2, 2))
        key = cache.key_for(machine, "w")
        assert cache.get(key) is None
        cache.put(key, {"cycles": 123.5})
        assert cache.get(key) == {"cycles": 123.5}

    @pytest.mark.parametrize("failing", ["write_text", "replace"])
    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch,
                                              failing):
        """Regression: a full disk under ``write_text``/``os.replace``
        left ``<name>.tmp.<pid>.<tid>`` behind for good."""
        from repro.store import atomic_write_text

        target = tmp_path / "row.json"
        atomic_write_text(target, "old")

        def no_space(*args, **kwargs):
            raise OSError(28, "No space left on device")

        if failing == "write_text":
            real_write = Path.write_text

            def partial_then_fail(self, text):
                real_write(self, text[:1])      # the temp file exists
                no_space()
            monkeypatch.setattr(Path, "write_text", partial_then_fail)
        else:
            monkeypatch.setattr(os, "replace", no_space)
        with pytest.raises(OSError, match="No space left"):
            atomic_write_text(target, "new")
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["row.json"]
        assert target.read_text() == "old"

    def test_failed_row_put_returns_the_row(self, tmp_path, monkeypatch,
                                            caplog):
        """A full disk under a row put loses the entry, not the row:
        the sweep returns the cache-free rows, counts every failed put
        and logs it."""
        import errno

        from repro.store import Store

        def no_space(self, key, entry):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(Store, "put", no_space)
        cache = ResultCache(tmp_path)
        with caplog.at_level("ERROR", logger="repro.parallel.runner"):
            rows = bw_sweep().run(echo_runner, cache=cache)
        assert rows == bw_sweep().run(echo_runner)
        assert (cache.stats.stores, cache.stats.put_errors) == (0, 4)
        assert len(cache.store) == 0
        assert [r.levelname for r in caplog.records] == ["ERROR"] * 4
        assert "No space left" in caplog.text


GOLDEN_KEYS = Path(__file__).parent / "golden" / "result_keys.json"

#: the three-axis sweep whose every point has its cache key pinned
KEY_AXES = [("network.link_bandwidth", [1.0, 4.0, 16.0]),
            ("network.switching", ["store_and_forward", "virtual_cut_through",
                                   "wormhole"]),
            ("node.memory.access_cycles", [10.0, 40.0])]


def key_records() -> list[dict]:
    """The cache key and the field-ordered encoding digest of every
    preset and of every point of a three-axis sweep, in point order."""
    from repro.plans import PRESETS
    machines = [(f"preset {name}", factory())
                for name, factory in sorted(PRESETS.items())]
    sweep = Sweep(PRESETS["generic-mesh"](), label="golden")
    for path, values in KEY_AXES:
        sweep.axis(path, _AxisSetter(path), values)
    machines += [(f"sweep {json.dumps(coords)}", machine)
                 for coords, machine in sweep.points()]
    return [{"id": label,
             "key": result_key(machine, "golden", version="golden"),
             "encoding": hashlib.sha256(
                 json.dumps(machine.to_dict()).encode()).hexdigest()}
            for label, machine in machines]


class TestCacheKeys:
    def test_keys_match_committed_values(self):
        """The key function is pinned: at a fixed ``version`` every
        preset and sweep point keys as it did when this file was
        written, and the encoding keeps its field order, so only the
        code version ever invalidates a cache.  Regenerate only with
        ``REPRO_REGEN_GOLDEN=1``, and only to change the key on purpose."""
        records = key_records()
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            GOLDEN_KEYS.write_text(json.dumps(records, indent=1) + "\n")
        assert records == json.loads(GOLDEN_KEYS.read_text())

    def test_key_is_stable_across_equal_configs(self):
        a = generic_multicomputer("mesh", (2, 2))
        b = generic_multicomputer("mesh", (2, 2))
        assert result_key(a, "w") == result_key(b, "w")

    def test_key_depends_on_machine(self):
        a = generic_multicomputer("mesh", (2, 2))
        b = generic_multicomputer("mesh", (2, 2))
        b.network.link_bandwidth *= 2
        assert result_key(a, "w") != result_key(b, "w")

    def test_key_depends_on_workload_and_code_version(self):
        m = generic_multicomputer("mesh", (2, 2))
        assert result_key(m, "a") != result_key(m, "b")
        assert result_key(m, "a", version="v1") != \
            result_key(m, "a", version="v2")

    def test_code_version_is_stable(self):
        assert code_version() == code_version()
        assert len(code_version()) == 16

    def test_default_workload_id_unwraps_partial(self):
        wid = default_workload_id(
            functools.partial(counting_runner, log_path="x"))
        assert wid.endswith("counting_runner")
        assert default_workload_id(echo_runner).endswith("echo_runner")


class TestProgressAndTiming:
    def test_progress_reports_every_row_in_order(self):
        seen = []
        rows = bw_sweep([1.0, 2.0, 4.0]).run(
            echo_runner, workers=2,
            progress=lambda done, total, row: seen.append((done, total,
                                                           row["bw"])))
        assert seen == [(1, 3, 1.0), (2, 3, 2.0), (3, 3, 4.0)]
        assert len(rows) == 3

    def test_progress_includes_cache_hits(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        bw_sweep([1.0, 2.0]).run(echo_runner, cache=cache)
        seen = []
        bw_sweep([1.0, 2.0]).run(
            echo_runner, cache=cache,
            progress=lambda done, total, row: seen.append(done))
        assert seen == [1, 2]
        assert cache.stats.hits == 2

    def test_progress_reaches_total_on_mixed_warm_cache(self, tmp_path):
        """Regression for streamed job progress: rows served straight
        from the cache (never entering the pool) must still fire
        ``progress``, and a partially-warm sweep must count through to
        100% — hits first, then executed variants, no gaps."""
        cache = ResultCache(str(tmp_path))
        bw_sweep([1.0, 4.0]).run(echo_runner, cache=cache)
        seen = []
        rows = bw_sweep([1.0, 2.0, 4.0]).run(
            echo_runner, cache=cache,
            progress=lambda done, total, row: seen.append((done, total,
                                                           row["bw"])))
        # Cache hits (bw 1.0, 4.0) stream first, then the one miss.
        assert seen == [(1, 3, 1.0), (2, 3, 4.0), (3, 3, 2.0)]
        assert [r["bw"] for r in rows] == [1.0, 2.0, 4.0]
        # Stats span both runs: 2 warm-up misses, then 2 hits + 1 miss.
        assert cache.stats.hits == 2 and cache.stats.misses == 3

    def test_timing_adds_wall_time_column(self):
        rows = bw_sweep([1.0, 2.0]).run(echo_runner, timing=True)
        assert all("wall_time_s" in r for r in rows)
        assert all(r["wall_time_s"] >= 0.0 for r in rows)

    def test_timing_off_by_default(self):
        rows = bw_sweep([1.0]).run(echo_runner)
        assert "wall_time_s" not in rows[0]

    def test_wall_time_never_cached(self, tmp_path):
        """Cached rows must stay deterministic: wall times are recomputed
        (0.0 for hits), never read back from the cache."""
        cache = ResultCache(str(tmp_path))
        first = bw_sweep([1.0]).run(echo_runner, cache=cache, timing=True)
        again = bw_sweep([1.0]).run(echo_runner, cache=cache, timing=True)
        assert again[0]["wall_time_s"] == 0.0
        # And a timing-free re-run sees no timing key at all.
        plain = bw_sweep([1.0]).run(echo_runner, cache=cache)
        assert "wall_time_s" not in plain[0]
        assert first[0]["bw_out"] == plain[0]["bw_out"]

    def test_timing_rows_otherwise_identical_to_serial(self):
        timed = bw_sweep([1.0, 2.0]).run(pingpong_runner, workers=2,
                                         timing=True)
        plain = bw_sweep([1.0, 2.0]).run(pingpong_runner)
        stripped = [{k: v for k, v in r.items() if k != "wall_time_s"}
                    for r in timed]
        assert stripped == plain

    def test_progress_with_error_rows(self):
        seen = []
        rows = bw_sweep([1.0, 2.0]).run(
            failing_runner,
            progress=lambda done, total, row: seen.append("error" in row))
        assert seen == [False, True]
        assert "error" in rows[1]


class TestPoolFallback:
    def test_unpicklable_runner_falls_back_inline(self):
        """A lambda can't cross the process boundary; the sweep must
        still complete (in-process) rather than die on a pickle error."""
        rows = bw_sweep([1.0, 2.0]).run(
            lambda m: {"bw_out": m.network.link_bandwidth}, workers=2)
        assert [r["bw_out"] for r in rows] == [1.0, 2.0]
