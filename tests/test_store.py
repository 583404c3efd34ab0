"""One store under every cache (``repro.store``).

Sweep rows, lint findings, served job records and the rows ``repro
bound --audit`` reads all go through one :class:`~repro.store.Store`,
so they share one read contract: a damaged entry is one counted miss
(for the audit, one "unreadable cache entry" skip), never an exception
and never a hit, and the next put replaces it.  Entries written before
the store existed read back equal; rows and lint findings are also
rewritten byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.check.lint.cache as lint_cache
import repro.parallel.cache as parallel_cache
from repro.bounds import audit_cache
from repro.check import LintCache
from repro.check.diagnostics import Diagnostic, Severity
from repro.parallel import ResultCache
from repro.parallel.cache import row_entry
from repro.service import JobRecord, ResultStore, canonical_request
from repro.store import CacheStats, Store

KEY = "ab" * 32

#: damaged entries every consumer must read as a miss
DAMAGED = {
    "empty": b"",
    "array": b"[]",
    "null": b"null",
    "empty-object": b"{}",
    "invalid-utf8": b'{"metrics": {"total_cycles": "\xff"}}',
    "torn": b'{"key": "' + KEY.encode() + b'", "metrics": {"total_cyc',
    "metrics-not-object": b'{"metrics": [1]}',
}


def _entry(root: Path) -> Path:
    return root / KEY[:2] / f"{KEY}.json"


def _write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


# Each consumer: root -> (the directory its entries live in, a read
# returning ``(value or None on a miss, the consumer's miss count)``).

def _rows(root):
    cache = ResultCache(root)
    return root, lambda: (cache.get(KEY), cache.stats.misses)


def _lint(root):
    cache = LintCache(root)
    return root, lambda: (cache.get(KEY), cache.stats.misses)


def _jobs(root):
    store = ResultStore(root)
    return root / "jobs", lambda: (store.get_job(KEY),
                                   store.jobs.stats.misses)


def _audit(root):
    def read():
        result = audit_cache(str(root))
        (row,) = result.rows
        unreadable = row.get("reason") == "unreadable cache entry"
        return (None if unreadable else row), result.n_skipped
    return root, read


CONSUMERS = {"ResultCache.get": _rows, "LintCache.get": _lint,
             "ResultStore.get_job": _jobs, "audit_cache": _audit}


@pytest.mark.parametrize("damage", list(DAMAGED.values()), ids=list(DAMAGED))
@pytest.mark.parametrize("consumer", list(CONSUMERS.values()),
                         ids=list(CONSUMERS))
def test_damaged_entry_is_one_counted_miss(tmp_path, consumer, damage):
    entry_dir, read = consumer(tmp_path)
    _write(_entry(entry_dir), damage)
    assert read() == (None, 1)


def test_the_next_put_replaces_a_damaged_entry(tmp_path, monkeypatch):
    def no_stat(*args, **kwargs):
        raise AssertionError("a read is one open, with no stat first")

    store = Store(tmp_path)
    for damage in DAMAGED.values():
        _write(_entry(tmp_path), damage)
        with monkeypatch.context() as patch:
            patch.setattr(Path, "exists", no_stat)
            patch.setattr(Path, "stat", no_stat)
            assert store.get(KEY, row_entry) is None
        store.put(KEY, {"metrics": {"x": 1}})
        assert store.get(KEY, row_entry) == {"metrics": {"x": 1}}
    assert store.stats == CacheStats(hits=7, misses=7, stores=7)
    assert store.keys() == [KEY] and len(store) == 1


# -- entries in the exact format the pre-store code wrote --------------------

PARENT_ROW = """\
{
  "key": "abababababababababababababababababababababababababababababababab",
  "metrics": {
    "total_cycles": 1234.5,
    "latency": 7.25
  },
  "code_version": "0123456789abcdef",
  "workload_id": "w"
}"""

PARENT_LINT = """\
{
  "key": "abababababababababababababababababababababababababababababababab",
  "rules_version": "fedcba9876543210",
  "suppressed": 2,
  "diagnostics": [
    {
      "rule": "PL001",
      "severity": "warning",
      "message": "m",
      "subject": "s",
      "location": "f.py:3",
      "hint": "h"
    }
  ]
}"""

PARENT_JOB = """\
{
 "record": {
  "cache": {
   "hits": 0,
   "misses": 0,
   "stores": 0
  },
  "done": 1,
  "error": null,
  "id": "abababababab-1",
  "key": "abababababababababababababababababababababababababababababababab",
  "kind": "sweep",
  "lane": "normal",
  "request": {
   "axes": [
    "network.link_bandwidth=2,4"
   ],
   "faults": null,
   "kind": "sweep",
   "lane": "normal",
   "on_error": "capture",
   "preset": "t805-grid-2x2",
   "rounds": 2,
   "seed": 0,
   "set": [],
   "tenant": "default",
   "timeout_s": null,
   "timing": false,
   "workload": null
  },
  "state": "done",
  "tenant": "default",
  "total": 1
 },
 "result": {
  "id": "abababababab-1",
  "kind": "sweep",
  "rows": [
   {
    "bw": 2,
    "total_cycles": 10.5
   }
  ],
  "state": "done"
 }
}"""


def test_parent_row_entry(tmp_path, monkeypatch):
    metrics = {"total_cycles": 1234.5, "latency": 7.25}
    _entry(tmp_path).parent.mkdir()
    _entry(tmp_path).write_text(PARENT_ROW)
    cache = ResultCache(tmp_path)
    assert cache.get(KEY) == metrics
    monkeypatch.setattr(parallel_cache, "code_version",
                        lambda: "0123456789abcdef")
    cache.put(KEY, metrics, meta={"workload_id": "w"})
    assert _entry(tmp_path).read_text() == PARENT_ROW


def test_parent_lint_entry(tmp_path, monkeypatch):
    diag = Diagnostic(rule="PL001", severity=Severity.WARNING, message="m",
                      subject="s", location="f.py:3", hint="h")
    _entry(tmp_path).parent.mkdir()
    _entry(tmp_path).write_text(PARENT_LINT)
    cache = LintCache(tmp_path)
    diags, suppressed = cache.get(KEY)
    assert [d.to_dict() for d in diags] == [diag.to_dict()]
    assert suppressed == 2
    monkeypatch.setattr(lint_cache, "lint_rules_version",
                        lambda: "fedcba9876543210")
    cache.put(KEY, [diag], 2)
    assert _entry(tmp_path).read_text() == PARENT_LINT


def test_parent_job_entry(tmp_path):
    _write(_entry(tmp_path / "jobs"), PARENT_JOB.encode())
    store = ResultStore(tmp_path)
    assert store.get_job(KEY) == json.loads(PARENT_JOB)
    record = JobRecord("abababababab-1", KEY, canonical_request(
        {"kind": "sweep", "preset": "t805-grid-2x2",
         "axes": ["network.link_bandwidth=2,4"]}))
    record.rows = [{"bw": 2, "total_cycles": 10.5}]
    record.state, record.total, record.done = "done", 1, 1
    assert store.put_job(record) == _entry(tmp_path / "jobs")
    assert store.get_job(KEY) == json.loads(PARENT_JOB)
    assert len(store.jobs) == 1
