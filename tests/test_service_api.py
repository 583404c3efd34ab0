"""Service API (repro.service): job records, HTTP surface, CLI.

Three layers, bottom-up:

* **JobManager** — golden snapshots of the deterministic job records
  across the whole lifecycle (``submitted → running → done / failed /
  cancelled``): fixed field order, no wall-clock fields, digests
  normalized out (they incorporate the code version by design);
* **HTTP server** — the threading server + ``ServiceClient`` round
  trip: rows fetched over HTTP must be byte-identical to an
  in-process ``Sweep.run`` with the CLI's runner, plus the error
  statuses (400/404/405/408/409/429/431), malformed and stalled
  requests, and the NDJSON event stream;
* **CLI** — ``repro serve`` (subprocess, ephemeral port) driven by
  ``repro submit / status / fetch``: exit codes and output schemas.

Every assertion here is wall-clock-free: records never contain
timestamps, and the tiny sweeps are deterministic.
"""

from __future__ import annotations

import copy
import json
import os
import signal
import subprocess
import sys
import threading
import time
from functools import partial
from pathlib import Path

import pytest

from repro import InProcessExecutor, LocalAsyncExecutor, Sweep
from repro.cli import _AxisSetter, _sweep_point_runner, build_machine
from repro.faults import FaultPlan, LinkFault, TransportConfig
from repro.parallel.pool import _mp_context
from repro.service import (
    JobManager,
    JobRecord,
    JobScheduler,
    ResultStore,
    ServiceClient,
    ServiceError,
    ServiceServer,
    canonical_request,
    job_key,
)
from repro.service.server import _MAX_BODY

GOLDEN_DIR = Path(__file__).parent / "golden"

PRESET = "t805-grid-2x2"
AXIS = "network.link_bandwidth"
BW_VALUES = [2_000_000.0, 4_000_000.0]

SWEEP_REQUEST = {"kind": "sweep", "preset": PRESET, "rounds": 1,
                 "axes": [f"{AXIS}=2000000,4000000"]}

CHAOS_SPEC = {
    "name": "service-demo",
    "base": FaultPlan(
        seed=7, link_faults=[LinkFault(drop_prob=0.02)],
        transport=TransportConfig(timeout_cycles=50_000.0,
                                  backoff_factor=1.0,
                                  max_retries=60)).to_dict(),
    "generators": [{"kind": "severity_ladder", "name": "sev",
                    "factors": [0, 1]}],
    "slos": [{"kind": "availability", "min_fraction": 1.0}],
}
CHAOS_REQUEST = {"kind": "chaos", "preset": PRESET, "app": "pingpong",
                 "campaign": CHAOS_SPEC, "size": 64, "repeats": 1}


def expected_sweep_rows() -> list[dict]:
    """What the service must return: the CLI runner through a plain
    serial ``Sweep.run`` — the independent in-process reference."""
    sweep = Sweep(build_machine(PRESET), label=PRESET)
    sweep.axis(AXIS, _AxisSetter(AXIS), BW_VALUES)
    runner = partial(_sweep_point_runner, workload=None, rounds=1, seed=0)
    return sweep.run(runner,
                     workload_id="cli-stochastic:generic:rounds=1:seed=0")


def check_golden(name: str, value) -> None:
    path = GOLDEN_DIR / f"{name}.json"
    if os.environ.get("REPRO_REGEN_GOLDEN") or not path.exists():
        path.write_text(json.dumps(value, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"golden snapshot {name} (re)generated")
    golden = json.loads(path.read_text())
    assert value == golden, (
        f"{name}: service records diverged from the golden snapshot; if "
        f"the change is intentional, regenerate with REPRO_REGEN_GOLDEN=1")


def normalize(record: dict) -> dict:
    """Replace run-scoped digests; everything else must be stable."""
    out = copy.deepcopy(record)
    assert out["id"].startswith(out["key"][:12])
    out["id"] = "<id>"
    out["key"] = "<key>"
    return out


def event_shapes(events: list[dict]) -> list:
    """Events minus the row payloads (rows are pinned separately)."""
    shapes = []
    for event in events:
        if event["event"] == "state":
            shapes.append([event["state"], event.get("error")])
        else:
            shapes.append(["progress", event["done"], event["total"]])
    return shapes


@pytest.fixture
def manager():
    managers = []

    def make(**kwargs):
        if "executor" not in kwargs:
            kwargs["executor"] = InProcessExecutor(workers=2)
        mgr = JobManager(**kwargs)
        managers.append(mgr)
        return mgr

    yield make
    for mgr in managers:
        mgr.close()


# ---------------------------------------------------------------------------
# Request canonicalization + identity
# ---------------------------------------------------------------------------

class TestRequests:
    def test_canonical_fills_defaults_deterministically(self):
        canon = canonical_request(SWEEP_REQUEST)
        assert canon == canonical_request(dict(reversed(
            list(SWEEP_REQUEST.items()))))
        assert canon["tenant"] == "default" and canon["lane"] == "normal"
        assert canon["rounds"] == 1 and canon["seed"] == 0
        assert list(canon) == sorted(canon)

    @pytest.mark.parametrize("bad,match", [
        ({"kind": "dream"}, "unknown job kind"),
        ({"kind": "sweep", "preset": PRESET, "axes": ["x=1"],
          "frobnicate": True}, "unknown request fields"),
        ({"kind": "sweep", "preset": PRESET}, "missing required"),
        # The server sizes its one pool; a tenant cannot ask for processes.
        (dict(CHAOS_REQUEST, workers=2), "unknown request fields: workers"),
        ("not a dict", "JSON object"),
    ])
    def test_malformed_requests_are_400(self, bad, match):
        with pytest.raises(ServiceError, match=match) as info:
            canonical_request(bad)
        assert info.value.status == 400

    def test_job_key_is_content_addressed(self):
        canon = canonical_request(SWEEP_REQUEST)
        assert job_key(canon) == job_key(json.loads(json.dumps(canon)))
        other = dict(canon, seed=1)
        assert job_key(other) != job_key(canon)

    def test_deep_validation_happens_at_submit(self, manager):
        mgr = manager(autostart=False)
        for axes in (["network.warp_speed=1,2"],
                     ["network.link_bandwidth=1,2", "network.link_bandwidth=8"]):
            with pytest.raises(ServiceError,
                               match="bad sweep request") as info:
                mgr.submit({"kind": "sweep", "preset": PRESET, "axes": axes})
            assert info.value.status == 400


# ---------------------------------------------------------------------------
# Job lifecycle: golden records
# ---------------------------------------------------------------------------

class TestLifecycleGolden:
    def test_lifecycle_records_match_golden(self, manager):
        snapshots = {}

        # -- done ------------------------------------------------------
        mgr = manager()
        record = mgr.submit(SWEEP_REQUEST)
        assert record.wait(timeout=120.0) == "done"
        assert record.rows == expected_sweep_rows()
        snapshots["done"] = {
            "record": normalize(record.to_dict()),
            "events": event_shapes(record.events),
            "result_keys": list(record.result_payload()),
        }

        # -- failed (job budget exhausted before the first row) --------
        failed = mgr.submit(dict(SWEEP_REQUEST, timeout_s=1e-9))
        assert failed.wait(timeout=120.0) == "failed"
        snapshots["failed"] = {
            "record": normalize(failed.to_dict()),
            "events": event_shapes(failed.events),
        }

        # -- cancelled (before dispatch ever sees it) ------------------
        cold = manager(autostart=False)
        doomed = cold.submit(SWEEP_REQUEST)
        assert cold.cancel(doomed.job_id) is True
        assert cold.cancel(doomed.job_id) is False
        snapshots["cancelled"] = {
            "record": normalize(doomed.to_dict()),
            "events": event_shapes(doomed.events),
        }
        check_golden("service_job_lifecycle", snapshots)

    def test_record_field_order_is_fixed(self, manager):
        mgr = manager(autostart=False)
        record = mgr.submit(SWEEP_REQUEST)
        assert list(record.to_dict()) == [
            "id", "key", "kind", "tenant", "lane", "state", "done",
            "total", "error", "cache", "request"]
        assert not any("time" in k or "wall" in k
                       for k in record.to_dict())

    def test_cancel_preserves_other_jobs_rows(self, manager):
        mgr = manager(autostart=False)
        job_a = mgr.submit(SWEEP_REQUEST)
        job_b = mgr.submit(dict(SWEEP_REQUEST, seed=1))
        job_c = mgr.submit(dict(SWEEP_REQUEST, seed=2))
        assert mgr.cancel(job_b.job_id) is True
        mgr.start()
        assert job_a.wait(timeout=120.0) == "done"
        assert job_c.wait(timeout=120.0) == "done"
        assert job_b.state == "cancelled" and job_b.rows is None
        assert job_a.rows == expected_sweep_rows()
        assert len(job_c.rows) == 2
        assert not any("error" in row for row in job_c.rows)

    def test_store_content_addresses_records(self, manager, tmp_path):
        store = ResultStore(tmp_path / "store")
        mgr = manager(store=store)
        first = mgr.submit(SWEEP_REQUEST)
        assert first.wait(timeout=120.0) == "done"
        assert first.cache == {"hits": 0, "misses": 2, "stores": 2}
        again = mgr.submit(SWEEP_REQUEST)
        assert again.wait(timeout=120.0) == "done"
        assert again.cache == {"hits": 2, "misses": 0, "stores": 0}
        assert again.key == first.key and again.job_id != first.job_id
        assert len(store.jobs) == 1   # same key -> same record path
        stored = store.get_job(first.key)
        assert stored["result"]["rows"] == expected_sweep_rows()


    @pytest.mark.parametrize("backend", [InProcessExecutor,
                                         LocalAsyncExecutor])
    def test_executor_retains_nothing_of_served_jobs(self, manager,
                                                     backend):
        """Regression: every served job used to live twice for the life
        of the server — in its record and in the executor's own job
        table (rows and per-row events included).  The record now *is*
        the executor's job state."""
        mgr = manager(executor=backend(workers=2))
        records = [mgr.submit(dict(SWEEP_REQUEST, seed=seed))
                   for seed in range(3)]
        assert [r.wait(timeout=120.0) for r in records] == ["done"] * 3
        assert all(len(r.rows) == 2 for r in records)
        assert mgr.executor._jobs == {}

    def test_finished_record_drops_its_planned_points(self, manager):
        """Regression: a record kept its plan — the runner and one
        deep-copied machine per point — for the life of the server."""
        from repro.chaos import ChaosResult
        from repro.chaos.spec import as_campaign_spec
        mgr = manager(autostart=False)
        sweep = mgr.submit(SWEEP_REQUEST)
        chaos = mgr.submit(CHAOS_REQUEST)
        assert len(sweep.plan["points"]) == 2
        assert len(chaos.plan["points"]) == 3
        mgr.start()
        assert sweep.wait(timeout=120.0) == "done"
        assert chaos.wait(timeout=300.0) == "done"
        mgr.close()           # joins the dispatcher: both are accounted for
        for record in (sweep, chaos):
            assert "points" not in record.plan
            assert "runner" not in record.plan
        assert sweep.result_payload()["rows"] == expected_sweep_rows()
        assert chaos.result_payload()["campaign"] == ChaosResult.from_rows(
            as_campaign_spec(CHAOS_SPEC), chaos.rows).to_dict()


# ---------------------------------------------------------------------------
# One pre-flight, in the job body: the service's rows are the CLI's
# ---------------------------------------------------------------------------

SICK_AXES = ["network.flit_bytes=4,-4,8"]     # -4 fails check_machine


@pytest.mark.parametrize("backend", [InProcessExecutor, LocalAsyncExecutor])
def test_one_sick_point_is_a_row_not_a_400(manager, backend):
    """Regression: the service planned with validating ``points()`` and
    never ran the analyzer, so the request ``repro sweep`` answers with
    one ``CheckError`` row and two good ones was rejected whole."""
    from repro.cli import plan_sweep
    mgr = manager(executor=backend(workers=2))
    record = mgr.submit({"kind": "sweep", "preset": PRESET, "rounds": 1,
                         "axes": SICK_AXES})
    assert record.wait(timeout=120.0) == "done"
    sweep, runner, workload_id = plan_sweep(
        PRESET, (), SICK_AXES, workload=None, rounds=1, seed=0)
    direct = sweep.run(runner, workload_id=workload_id)
    assert [("error" in row) for row in direct] == [False, True, False]
    assert json.dumps(record.result_payload()["rows"]) == json.dumps(direct)
    first = next(e for e in record.events if e["event"] == "progress")
    assert first["done"] == 1
    assert first["row"]["error"].startswith("CheckError: MC001")


@pytest.mark.parametrize("backend", [InProcessExecutor, LocalAsyncExecutor])
def test_a_served_manager_owns_one_thread(manager, backend):
    """The scheduler is the only job queue and the dispatch thread the
    only job thread: the executor runs each job on it."""
    before = set(threading.enumerate())
    mgr = manager(executor=backend(workers=2))
    record = mgr.submit(SWEEP_REQUEST)
    assert record.wait(timeout=120.0) == "done"
    added = set(threading.enumerate()) - before
    assert [thread.name for thread in added] == ["repro-service-dispatch"]


# ---------------------------------------------------------------------------
# Chaos campaigns are ordinary jobs on the executor's pool
# ---------------------------------------------------------------------------

#: where `_stuck_rung` leaves its pid (set before the workers fork)
_PID_DIR: list[Path] = []


def _stuck_rung(self, machine, faults=None):
    """An ``AppCampaignRunner.__call__`` that never finishes a rung."""
    (_PID_DIR[0] / str(os.getpid())).touch()
    time.sleep(600.0)


def _gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


@pytest.mark.parametrize("backend", [InProcessExecutor, LocalAsyncExecutor])
class TestChaosOnTheExecutorPool:
    """Regression: a served campaign used to fan its rungs out over a
    second, ephemeral ``WorkerPool`` forked from the dispatch thread,
    and saw cancel / ``timeout_s`` only between rungs."""

    def test_no_pool_beyond_the_executors(self, manager, backend,
                                          monkeypatch):
        from repro.parallel import WorkerPool
        built = []
        init = WorkerPool.__init__
        monkeypatch.setattr(
            WorkerPool, "__init__",
            lambda self, *a, **kw: (built.append(self), init(self, *a, **kw))
            and None)
        mgr = manager(executor=backend(workers=2))
        record = mgr.submit(CHAOS_REQUEST)
        assert record.wait(timeout=300.0) == "done"
        assert built == [mgr.executor._pool]
        assert record.result_payload()["campaign"]["rungs"] == 3

    @pytest.fixture
    def stuck(self, manager, backend, monkeypatch, tmp_path):
        """A manager whose campaign rungs hang in their worker."""
        from repro.chaos import AppCampaignRunner
        monkeypatch.setattr(AppCampaignRunner, "__call__", _stuck_rung)
        monkeypatch.setattr(sys.modules[__name__], "_PID_DIR", [tmp_path])
        return manager(executor=backend(workers=2))      # forks after

    def _rung_pids(self, tmp_path, count: int) -> list[int]:
        deadline = time.monotonic() + 60.0
        while len(list(tmp_path.iterdir())) < count:
            assert time.monotonic() < deadline, "rungs never started"
            time.sleep(0.01)
        return [int(path.name) for path in tmp_path.iterdir()]

    def test_timeout_lands_mid_rung(self, stuck, tmp_path):
        record = stuck.submit(dict(CHAOS_REQUEST, timeout_s=0.5))
        # Within the pool's abort poll of the budget, not after the
        # 600 s rung: the bound only has to tell those two apart.
        assert record.wait(timeout=60.0) == "failed"
        assert record.error.startswith("JobTimeout")
        assert all(_gone(pid) for pid in self._rung_pids(tmp_path, 1))

    def test_cancel_lands_mid_rung_and_the_manager_serves_on(
            self, stuck, tmp_path):
        record = stuck.submit(CHAOS_REQUEST)
        pids = self._rung_pids(tmp_path, 2)      # two workers, mid-rung
        assert os.getpid() not in pids
        assert stuck.cancel(record.job_id) is True
        assert record.wait(timeout=60.0) == "cancelled"
        assert record.rows is None
        assert all(_gone(pid) for pid in pids)
        follow_up = stuck.submit(SWEEP_REQUEST)
        assert follow_up.wait(timeout=120.0) == "done"
        assert follow_up.rows == expected_sweep_rows()

    def test_close_ends_every_job(self, stuck, tmp_path):
        """Regression: ``close()`` joined a dispatcher stuck in the
        running job for 60 s, then the executor's thread for 60 more,
        and left the running record ``running`` and the queued one
        ``submitted`` for good."""
        running = stuck.submit(CHAOS_REQUEST)
        queued = stuck.submit(SWEEP_REQUEST)
        pids = self._rung_pids(tmp_path, 2)
        started = time.monotonic()
        stuck.close()
        assert time.monotonic() - started < 5.0
        assert (running.state, queued.state) == ("cancelled", "cancelled")
        assert all(_gone(pid) for pid in pids)


# ---------------------------------------------------------------------------
# Result store: concurrent writers
# ---------------------------------------------------------------------------

def _put_job_repeatedly(root: str, writer: int, rounds: int) -> None:
    """Child process body: finish the same job key over and over."""
    canon = canonical_request(SWEEP_REQUEST)
    record = JobRecord(f"writer-{writer}", "ab" * 32, canon)
    record.rows = [{"writer": writer, "i": i, "pad": "x" * 64}
                   for i in range(400)]
    record.state = "done"
    store = ResultStore(root)
    for _ in range(rounds):
        store.put_job(record)


class TestResultStore:
    def test_two_frontends_finishing_the_same_key(self, tmp_path):
        """Regression: ``put_job`` wrote through one fixed ``<key>.tmp``,
        so two writers of a key raced on it — one would publish the
        other's half-written file, or fail renaming a temp file that
        was already gone.  Whatever the interleaving, both writers must
        succeed and a reader must always parse a whole record."""
        root, rounds = tmp_path / "store", 150
        ctx = _mp_context()
        writers = [ctx.Process(target=_put_job_repeatedly,
                               args=(str(root), n, rounds))
                   for n in range(2)]
        for proc in writers:
            proc.start()
        store, reads, absent = ResultStore(root), 0, 0
        path = root / "jobs" / "ab" / f"{'ab' * 32}.json"
        while any(proc.is_alive() for proc in writers):
            existed = path.exists()
            stored = store.get_job("ab" * 32)
            if stored is None:
                # Nothing deletes an entry: a miss on one that existed
                # before the read is a torn read.
                assert not existed, "a torn record read as a miss"
                absent += 1
                continue
            reads += 1
            rows = stored["result"]["rows"]
            assert len(rows) == 400
            assert len({row["writer"] for row in rows}) == 1
        for proc in writers:
            proc.join(timeout=120.0)
        assert [proc.exitcode for proc in writers] == [0, 0]
        assert reads > 0, "the reader never raced a writer"
        assert store.get_job("ab" * 32)["record"]["state"] == "done"
        assert store.jobs.stats.misses == absent
        assert len(store.jobs) == 1
        leftovers = [p.name for p in (root / "jobs" / "ab").iterdir()
                     if not p.name.endswith(".json")]
        assert leftovers == []

    def test_a_failed_record_write_leaves_the_job_done(
            self, manager, tmp_path, monkeypatch, caplog):
        """Regression: a ``put_job`` that raised (full disk) reached the
        dispatcher's handler, which appended a second terminal event
        (``done``, then ``failed``) and counted the job both completed
        and failed.  The lost write is counted and logged instead."""
        store = ResultStore(tmp_path / "store")

        def no_space(record):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(store, "put_job", no_space)
        mgr = manager(store=store)
        record = mgr.submit(SWEEP_REQUEST)
        assert record.wait(timeout=120.0) == "done"
        mgr.close()           # joins the dispatcher: the write was tried
        assert record.state == "done" and record.error is None
        assert [e["state"] for e in record.events
                if e["event"] == "state"] == ["submitted", "running", "done"]
        metrics = mgr.metrics()
        assert metrics["service.jobs.completed.count"] == 1
        assert metrics["service.jobs.failed.count"] == 0
        assert metrics["service.store.put_errors.count"] == 1
        assert f"job {record.job_id}: record not persisted" in caplog.text
        assert "No space left on device" in caplog.text

    def test_a_closed_executor_ends_a_job_once(self, manager):
        """Regression: a job handed to a closed executor ended
        ``cancelled`` and then ``failed`` too, counted as failed."""
        mgr = manager(autostart=False)
        record = mgr.submit(SWEEP_REQUEST)
        mgr.executor.close()
        mgr.start()
        assert record.wait(timeout=120.0) == "cancelled"
        mgr.close()
        assert [e["state"] for e in record.events
                if e["event"] == "state"] == ["submitted", "cancelled"]
        metrics = mgr.metrics()
        assert metrics["service.jobs.cancelled.count"] == 1
        assert metrics["service.jobs.failed.count"] == 0


# ---------------------------------------------------------------------------
# HTTP surface
# ---------------------------------------------------------------------------

#: (case, raw request, first reply line; ``b""`` is a clean close)
BOUNDARY_CASES = [
    ("truncated JSON",
     b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 5\r\n\r\n{\"kin",
     b"HTTP/1.1 400 Bad Request"),
    ("Content-Length longer than the body, then a stall",
     b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\n{\"k",
     b"HTTP/1.1 408 Request Timeout"),
    ("negative Content-Length",
     b"POST /v1/jobs HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
     b"HTTP/1.1 400 Bad Request"),
    ("non-integer Content-Length",
     b"POST /v1/jobs HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
     b"HTTP/1.1 400 Bad Request"),
    ("Content-Length above _MAX_BODY",
     b"POST /v1/jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
     % (_MAX_BODY + 1),
     b"HTTP/1.1 400 Bad Request"),
    ("a 70 kB header line",
     b"GET /v1/healthz HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n",
     b"HTTP/1.1 431 Request Header Fields Too Large"),
    ("200 headers",
     b"GET /v1/healthz HTTP/1.1\r\n"
     + b"".join(b"X-H%d: 1\r\n" % i for i in range(200)) + b"\r\n",
     b"HTTP/1.1 431 Request Header Fields Too Large"),
    ("a garbage request line", b"GARBAGE\r\n\r\n",
     b"HTTP/1.1 400 Bad Request"),
    ("DELETE /v1/jobs", b"DELETE /v1/jobs HTTP/1.1\r\n\r\n",
     b"HTTP/1.1 405 Method Not Allowed"),
    ("a stalled request line", b"GET /v1/hea", b""),
    ("stalled headers", b"GET /v1/healthz HTTP/1.1\r\nX-A: 1\r\n", b""),
]


def _raw_exchange(client: ServiceClient, request: bytes) -> bytes:
    """Send raw bytes and read until the server closes."""
    import socket

    reply = b""
    with socket.create_connection((client.host, client.port),
                                  timeout=30) as sock:
        try:
            sock.sendall(request)
            while chunk := sock.recv(4096):
                reply += chunk
        except ConnectionResetError:
            pass        # closed with the rest of an oversized request unread
    return reply


def _threads_back_to(baseline: int, case: str) -> None:
    deadline = time.monotonic() + 5.0
    while threading.active_count() > baseline:
        assert time.monotonic() < deadline, f"{case}: a handler lingers"
        time.sleep(0.01)


@pytest.fixture
def http_service(manager, tmp_path):
    services = []

    def make(**manager_kwargs):
        manager_kwargs.setdefault("store", ResultStore(
            tmp_path / f"store{len(services)}"))
        mgr = manager(**manager_kwargs)
        server = ServiceServer(mgr)
        # A short poll: shutdown() waits for serve_forever to look.
        thread = threading.Thread(target=server.serve_forever,
                                  args=(0.05,), daemon=True)
        thread.start()
        services.append((server, thread))
        return mgr, ServiceClient(server.url)

    yield make
    for server, thread in services:
        server.shutdown()
        server.server_close()
        thread.join(timeout=30)
        assert not thread.is_alive()


class TestHTTP:
    def test_sweep_rows_over_http_byte_identical_to_in_process(
            self, http_service):
        mgr, client = http_service()
        assert client.health() == {"ok": True}
        record = client.submit(SWEEP_REQUEST)
        record = client.wait(record["id"], timeout=120.0)
        assert record["state"] == "done"
        result = client.result(record["id"])
        direct = expected_sweep_rows()
        assert json.dumps(result["rows"], sort_keys=True) == \
            json.dumps(direct, sort_keys=True)
        # Warm re-submission: same key, all cache hits.
        warm = client.submit(SWEEP_REQUEST)
        warm = client.wait(warm["id"], timeout=120.0)
        assert warm["key"] == record["key"]
        assert warm["cache"] == {"hits": 2, "misses": 0, "stores": 0}

    def test_chaos_job_over_http(self, http_service):
        mgr, client = http_service()
        record = client.submit(CHAOS_REQUEST)
        # baseline rung + severity ladder factors [0, 1]
        assert record["total"] == 3
        record = client.wait(record["id"], timeout=300.0)
        assert record["state"] == "done"
        campaign = client.result(record["id"])["campaign"]
        assert campaign["campaign"] == "service-demo"
        assert campaign["rungs"] == 3
        assert len(campaign["rows"]) == 3
        assert isinstance(campaign["ok"], bool)

    def test_event_stream_and_stable_field_order(self, http_service):
        mgr, client = http_service()
        record = client.submit(SWEEP_REQUEST)
        events = list(client.events(record["id"]))
        assert event_shapes(events) == [
            ["submitted", None], ["running", None],
            ["progress", 1, 2], ["progress", 2, 2], ["done", None]]
        status = client.status(record["id"])
        # The server serializes sort_keys=True; json.loads preserves
        # document order, so a sorted listing pins the byte layout.
        assert list(status) == sorted(status)
        assert set(status) == {
            "id", "key", "kind", "tenant", "lane", "state", "done",
            "total", "error", "cache", "request"}

    def test_http_error_statuses(self, http_service):
        mgr, client = http_service(autostart=False,
                                   scheduler=JobScheduler(tenant_quota=1))
        with pytest.raises(ServiceError) as info:
            client.status("nope")
        assert info.value.status == 404
        with pytest.raises(ServiceError) as info:
            client.submit({"kind": "dream"})
        assert info.value.status == 400
        record = client.submit(SWEEP_REQUEST)
        with pytest.raises(ServiceError) as info:    # quota: 1 active job
            client.submit(dict(SWEEP_REQUEST, seed=1))
        assert info.value.status == 429
        with pytest.raises(ServiceError) as info:    # still queued
            client.result(record["id"])
        assert info.value.status == 409
        assert client.cancel(record["id"]) is True
        assert client.cancel(record["id"]) is False

    def test_method_and_path_errors(self, http_service):
        import http.client
        mgr, client = http_service()
        conn = http.client.HTTPConnection(client.host, client.port,
                                          timeout=30)
        try:
            conn.request("DELETE", "/v1/jobs")
            assert conn.getresponse().status == 405
        finally:
            conn.close()
        with pytest.raises(ServiceError) as info:
            client._request("GET", "/v2/jobs")
        assert info.value.status == 404

    def test_stalled_client_gets_408_and_the_server_serves_on(
            self, http_service, monkeypatch):
        """Regression: the request was read with no deadline, so a
        client that stopped sending pinned its handler forever."""
        import socket

        import repro.service.server
        monkeypatch.setattr(repro.service.server, "_READ_TIMEOUT_S", 0.2)
        mgr, client = http_service()
        with socket.create_connection((client.host, client.port),
                                      timeout=30) as sock:
            sock.sendall(b"POST /v1/jobs HTTP/1.1\r\n"
                         b"Content-Length: 10\r\n\r\n{\"k")
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 408 Request Timeout\r\n")
        assert client.health() == {"ok": True}

    def test_http_boundary_cases(self, http_service, monkeypatch):
        """Every malformed or stalled request ends in a typed 4xx or a
        clean close within the read deadline, never a hung handler: the
        server answers the next request and its thread count returns to
        the baseline."""
        import repro.service.server
        monkeypatch.setattr(repro.service.server, "_READ_TIMEOUT_S", 0.3)
        mgr, client = http_service()
        baseline = threading.active_count()
        for case, request, first_line in BOUNDARY_CASES:
            start = time.monotonic()
            reply = _raw_exchange(client, request)
            assert reply.split(b"\r\n", 1)[0] == first_line, (case, reply)
            if reply:
                _, body = reply.split(b"\r\n\r\n", 1)
                assert "error" in json.loads(body), case
            assert time.monotonic() - start < 5.0, case
            assert client.health() == {"ok": True}, case
            _threads_back_to(baseline, case)

    def test_events_of_a_finished_job_are_its_whole_list(self,
                                                         http_service):
        mgr, client = http_service()
        record = client.submit(SWEEP_REQUEST)
        assert mgr.record(record["id"]).wait(120.0) == "done"
        events = json.loads(json.dumps(mgr.record(record["id"]).events))
        assert list(client.events(record["id"])) == events

    def test_events_of_a_queued_job_end_with_its_cancel(self, http_service):
        mgr, client = http_service(autostart=False)
        record = client.submit(SWEEP_REQUEST)
        events = client.events(record["id"])
        first = next(events)
        assert client.cancel(record["id"]) is True
        assert event_shapes([first, *events]) == [
            ["submitted", None], ["cancelled", None]]

    def test_a_client_gone_midstream_leaves_a_quiet_server(
            self, http_service, capfd):
        """The stream's handler writes into a closed socket once the
        job moves on: it must end without a traceback on stderr."""
        import socket

        mgr, client = http_service(autostart=False)
        baseline = threading.active_count() + 1     # + mgr.start()'s
        record = client.submit(SWEEP_REQUEST)
        with socket.create_connection((client.host, client.port),
                                      timeout=30) as sock:
            sock.sendall(f"GET /v1/jobs/{record['id']}/events HTTP/1.1"
                         f"\r\n\r\n".encode())
            reply = b""
            while b'"submitted"' not in reply:
                reply += sock.recv(4096)
        mgr.start()
        assert mgr.record(record["id"]).wait(120.0) == "done"
        assert client.health() == {"ok": True}
        _threads_back_to(baseline, "client gone mid-stream")
        assert capfd.readouterr().err == ""

    def test_metrics_endpoint(self, http_service):
        mgr, client = http_service()
        record = client.submit(SWEEP_REQUEST)
        client.wait(record["id"], timeout=120.0)
        metrics = client.metrics()
        assert metrics["service.jobs.submitted.count"] == 1
        assert metrics["service.jobs.completed.count"] == 1
        assert metrics["service.jobs.failed.count"] == 0
        assert "service.records.total" in metrics


# ---------------------------------------------------------------------------
# Long poll: GET /v1/jobs/<id>?wait=<s>
# ---------------------------------------------------------------------------

def _gated_point(gate, machine, **kwargs):
    """A sweep point runner that returns once the test opens ``gate``."""
    gate.wait(60.0)
    return {"gated": True}


@pytest.fixture
def gated(http_service, monkeypatch):
    """A served manager whose sweep points block until ``gate.set()``;
    its one worker runs them on the dispatch thread."""
    import repro.cli
    gate = threading.Event()
    monkeypatch.setattr(repro.cli, "_sweep_point_runner",
                        partial(_gated_point, gate))
    mgr, client = http_service(executor=InProcessExecutor(workers=1))
    yield mgr, client, gate
    gate.set()


def _running_job(mgr, client) -> str:
    record = mgr.record(client.submit(SWEEP_REQUEST)["id"])
    with record.cond:
        assert record.cond.wait_for(lambda: record.state == "running", 60)
    return record.job_id


def _long_poll(client, job_id: str, seconds) -> dict:
    return client._request("GET", f"/v1/jobs/{job_id}?wait={seconds}")


def _get(client, path: str) -> tuple[bytes, bytes]:
    """A raw GET's status line and body."""
    reply = _raw_exchange(client, f"GET {path} HTTP/1.1\r\n\r\n".encode())
    head, body = reply.split(b"\r\n\r\n", 1)
    return head.split(b"\r\n", 1)[0], body


#: (job state, query): answered at once, as a plain GET would be
IMMEDIATE_CASES = [("done", ""), ("done", "?wait=0"), ("done", "?wait=5"),
                   ("running", ""), ("running", "?wait=0")]


class TestLongPoll:
    """The record once the job ends or ``wait`` seconds pass, never
    later; ``ServiceClient.wait`` is a loop of such polls."""

    def test_answers_at_the_terminal_event_not_at_the_cap(self, gated):
        mgr, client, gate = gated
        job_id = _running_job(mgr, client)
        released = []

        def release() -> None:
            released.append(time.monotonic())
            gate.set()
        threading.Timer(0.2, release).start()
        record = _long_poll(client, job_id, 30)
        assert record["state"] == "done"
        assert time.monotonic() - released[0] < 0.5

    def test_past_the_cap_a_running_record_and_wait_loops(self, gated,
                                                          monkeypatch):
        import repro.service.server
        monkeypatch.setattr(repro.service.server, "_MAX_WAIT_S", 0.1)
        mgr, client, gate = gated
        job_id = _running_job(mgr, client)
        start = time.monotonic()
        assert _long_poll(client, job_id, 30)["state"] == "running"
        assert 0.09 <= time.monotonic() - start < 5.0
        paths = []
        request = client._request
        monkeypatch.setattr(client, "_request", lambda method, path: (
            paths.append(path), request(method, path))[1])
        threading.Timer(0.25, gate.set).start()
        assert client.wait(job_id, timeout=60.0)["state"] == "done"
        assert len(paths) >= 2
        assert all(path.startswith(f"/v1/jobs/{job_id}?wait=")
                   for path in paths)

    @pytest.mark.parametrize("state, query", IMMEDIATE_CASES)
    def test_answered_at_once_byte_identical_to_a_plain_get(
            self, gated, state, query):
        mgr, client, gate = gated
        job_id = _running_job(mgr, client)
        if state == "done":
            gate.set()
            assert mgr.record(job_id).wait(60.0) == "done"
        plain = _get(client, f"/v1/jobs/{job_id}")
        start = time.monotonic()
        assert _get(client, f"/v1/jobs/{job_id}{query}") == plain
        assert time.monotonic() - start < 0.5
        assert json.loads(plain[1])["state"] == state

    @pytest.mark.parametrize("value", ["abc", "-1", "nan", ""])
    def test_a_bad_wait_is_400(self, http_service, value):
        mgr, client = http_service(autostart=False)
        record = client.submit(SWEEP_REQUEST)
        with pytest.raises(ServiceError) as info:
            _long_poll(client, record["id"], value)
        assert info.value.status == 400

    def test_wait_timeout_is_408_naming_the_last_state(self, gated):
        mgr, client, gate = gated
        job_id = _running_job(mgr, client)
        with pytest.raises(ServiceError) as info:
            client.wait(job_id, timeout=0.2)
        assert info.value.status == 408
        assert "last state 'running'" in info.value.message

    def test_close_releases_a_blocked_long_poll(self, http_service):
        mgr, client = http_service(autostart=False)
        baseline = threading.active_count()
        job_id = client.submit(SWEEP_REQUEST)["id"]
        answers = []
        poller = threading.Thread(target=lambda: answers.append(
            _long_poll(client, job_id, 30)))
        poller.start()
        deadline = time.monotonic() + 5.0
        while threading.active_count() < baseline + 2:  # poller, handler
            assert time.monotonic() < deadline, "the long poll never came"
            time.sleep(0.01)
        time.sleep(0.1)                 # into the record's wait
        start = time.monotonic()
        mgr.close()
        poller.join(5.0)
        assert time.monotonic() - start < 1.0
        assert answers[0]["state"] == "cancelled"
        _threads_back_to(baseline, "long poll released by close()")


# ---------------------------------------------------------------------------
# CLI: repro serve / submit / status / fetch
# ---------------------------------------------------------------------------

@pytest.fixture(scope="class")
def cli_server(tmp_path_factory):
    store = tmp_path_factory.mktemp("service-store")
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--store", str(store)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        env=env, text=True)
    try:
        line = proc.stdout.readline()
        assert "repro service listening on " in line, line
        url = line.strip().rsplit(" ", 1)[-1]
        yield url
    finally:
        proc.terminate()
        proc.wait(timeout=30)


SUBMIT_ARGS = ["submit", "sweep", PRESET,
               "--axis", f"{AXIS}=2000000,4000000", "--rounds", "1"]
SICK_SUBMIT_ARGS = ["submit", "sweep", PRESET,
                    "--axis", SICK_AXES[0], "--rounds", "1"]


@pytest.mark.usefixtures("cli_server")
class TestCLI:
    def test_submit_status_fetch_roundtrip(self, cli_server, capsys,
                                           tmp_path):
        """``repro fetch`` prints, byte for byte, what the same study
        dumps in-process: a sweep, a sweep whose sick value is a
        ``CheckError`` row, and a chaos campaign (``repro chaos --json``)."""
        from repro.cli import main, plan_sweep

        def dump(rows):
            return json.dumps(rows, indent=2, sort_keys=True) + "\n"

        sick, runner, workload_id = plan_sweep(
            PRESET, (), SICK_AXES, workload=None, rounds=1, seed=0)
        campaign = tmp_path / "campaign.json"
        campaign.write_text(json.dumps(CHAOS_SPEC))
        chaos_args = ["pingpong", "--campaign", str(campaign),
                      "--size", "64", "--repeats", "1"]
        assert main(["chaos", *chaos_args, "--json"]) == 0   # every SLO holds
        cases = [
            (SUBMIT_ARGS, dump(expected_sweep_rows())),
            (SICK_SUBMIT_ARGS, dump(sick.run(runner,
                                             workload_id=workload_id))),
            (["submit", "chaos", *chaos_args], capsys.readouterr().out),
        ]
        for argv, expected in cases:
            rc = main(argv + ["--server", cli_server, "--wait"])
            record = json.loads(capsys.readouterr().out)
            assert rc == 0 and record["state"] == "done"

            assert main(["status", record["id"],
                         "--server", cli_server]) == 0
            assert json.loads(capsys.readouterr().out) == record

            assert main(["fetch", record["id"], "--server", cli_server]) == 0
            assert capsys.readouterr().out == expected

    def test_failed_job_exit_codes(self, cli_server, capsys):
        from repro.cli import main
        rc = main(SUBMIT_ARGS + ["--server", cli_server, "--timeout",
                                 "1e-9", "--wait"])
        record = json.loads(capsys.readouterr().out)
        assert rc == 1 and record["state"] == "failed"
        assert main(["status", record["id"],
                     "--server", cli_server]) == 1
        capsys.readouterr()

    def test_unknown_job_is_a_service_error(self, cli_server):
        from repro.cli import main
        with pytest.raises(SystemExit,
                           match=r"service error \(404\)"):
            main(["status", "nope", "--server", cli_server])
        with pytest.raises(SystemExit,
                           match=r"service error \(404\)"):
            main(["fetch", "nope", "--server", cli_server])

    def test_unreachable_server(self):
        from repro.cli import main
        with pytest.raises(SystemExit, match="cannot reach"):
            main(["status", "job", "--server",
                  "http://127.0.0.1:9"])  # discard port: nothing listens


#: a sweep that would run far longer than the SIGINT test allows
LONG_SWEEP_REQUEST = {"kind": "sweep", "preset": "t805-grid", "rounds": 5000,
                      "axes": ["network.link_bandwidth=1,2,3,4,5,6,7,8"]}


def _running(pid: int) -> bool:
    """Alive and not a zombie, read from ``/proc`` as
    ``tests/test_worker_pool.py`` does."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _children(pid: int) -> list[int]:
    kids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            if int(stat.read_text().rsplit(")", 1)[1].split()[1]) == pid:
                kids.append(int(stat.parent.name))
        except (OSError, ValueError, IndexError):
            pass                    # the process ended meanwhile
    return kids


def test_sigint_ends_repro_serve_mid_job():
    """Regression: Ctrl-C on ``repro serve`` with a job running waited
    out two 60 s joins while the job's workers kept computing."""
    src = str(Path(__file__).parent.parent / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=dict(os.environ, PYTHONPATH=src))
    try:
        line = proc.stdout.readline()
        assert "repro service listening on " in line, line
        client = ServiceClient(line.strip().rsplit(" ", 1)[-1])
        record = client.submit(LONG_SWEEP_REQUEST)
        deadline = time.monotonic() + 60.0
        while client.status(record["id"])["state"] != "running":
            assert time.monotonic() < deadline
            time.sleep(0.05)
        workers = _children(proc.pid)
        assert len(workers) == 2
        proc.send_signal(signal.SIGINT)
        proc.wait(timeout=10.0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    assert not any(_running(pid) for pid in workers)
