"""Content-addressed result cache for design-space sweeps.

A sweep point is a pure function of three inputs: the machine
configuration, the workload, and the simulator code itself (the Pearl
kernel's global-sequence tie-breaking makes every run deterministic,
see DESIGN.md).  The cache therefore keys each metric row by a stable
hash of ``(MachineConfig, workload id, code version)`` and re-running a
sweep only simulates variants whose key changed.

* The machine part is the canonical JSON of
  :meth:`~repro.core.config.MachineConfig.to_dict` (sorted keys), so
  two structurally equal configs share an entry no matter how they
  were built.
* The workload id is a caller-chosen string naming the workload (by
  default derived from the runner's qualified name).
* The code version is a digest over the ``repro`` package sources, so
  editing the simulator invalidates every entry automatically.

Entries are JSON files under ``<root>/<key[:2]>/<key>.json`` — safe to
share between concurrent processes (writes go through ``os.replace``)
and to delete wholesale at any time.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Optional

from ..core.config import MachineConfig

__all__ = ["CacheStats", "ResultCache", "code_version", "result_key",
           "sources_digest"]


def sources_digest(root: Path, pattern: str = "*.py") -> str:
    """Stable digest of every ``pattern`` file under ``root``.

    Paths (relative) and contents both feed the hash, so renames count
    as changes.  Shared by :func:`code_version` and the lint analyzer's
    rule-set version (``repro.check.lint.cache``).
    """
    digest = hashlib.sha256()
    for path in sorted(root.rglob(pattern)):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


@lru_cache(maxsize=1)
def code_version() -> str:
    """Digest of every ``.py`` source file in the ``repro`` package.

    Any change to the simulator produces a new version, invalidating
    cached results computed by older code.
    """
    return sources_digest(Path(__file__).resolve().parent.parent)


def _canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=str)


def result_key(machine: MachineConfig, workload_id: str,
               version: Optional[str] = None, faults=None,
               certificate: Optional[str] = None) -> str:
    """Stable content hash of ``(machine, workload, code version)``.

    ``faults`` — a normalized :class:`repro.faults.FaultPlan` (or
    ``None``) — extends the key with the plan's behaviour digest.
    ``certificate`` — a ``repro verify``
    :attr:`~repro.verify.VerifyResult.certificate` digest — extends the
    key with the explored schedule space, so rows produced under a
    verified schedule contract never collide with unverified ones (and
    a changed verification outcome invalidates them).  Either extension
    leaves the plain key unchanged from earlier releases, so existing
    caches stay valid.
    """
    payload = {
        "machine": machine.to_dict(),
        "workload": workload_id,
        "code": version if version is not None else code_version(),
    }
    if faults is not None:
        payload["faults"] = faults.digest()
    if certificate is not None:
        payload["verify"] = certificate
    return hashlib.sha256(_canonical_json(payload).encode()).hexdigest()


def atomic_write_text(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` atomically (creating its
    directory); last writer wins.

    The temp name is per writer (process and thread), so concurrent
    writers of one path — two sweeps storing the same row, two service
    frontends finishing the same job key — never share a temp file, and
    a reader sees either no file or a complete one.  A write that fails
    (full disk) removes its temp file and leaves ``path`` as it was.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise


@dataclass
class CacheStats:
    """Hit/miss/store counters for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    def format(self) -> str:
        return f"{self.hits} hits, {self.misses} misses, {self.stores} stored"


class ResultCache:
    """Directory-backed store of sweep metric rows, addressed by key.

    ::

        cache = ResultCache("~/.cache/repro-sweeps")
        key = cache.key_for(machine, "alltoall-16n")
        row = cache.get(key)
        if row is None:
            row = simulate(...)
            cache.put(key, row)
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def key_for(self, machine: MachineConfig, workload_id: str,
                faults=None, certificate: Optional[str] = None) -> str:
        return result_key(machine, workload_id, faults=faults,
                          certificate=certificate)

    def get(self, key: str) -> Optional[dict]:
        """The cached metric row for ``key``, or ``None`` on a miss."""
        path = self._path(key)
        try:
            with open(path) as fp:
                entry = json.load(fp)
        except (OSError, json.JSONDecodeError):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return entry["metrics"]

    def put(self, key: str, metrics: dict,
            meta: Optional[dict] = None) -> None:
        """Store one metric row (atomically; last writer wins)."""
        entry = {"key": key, "metrics": metrics,
                 "code_version": code_version(), **(meta or {})}
        atomic_write_text(self._path(key),
                          json.dumps(entry, indent=2, default=float))
        self.stats.stores += 1

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> None:
        for path in self.root.glob("*/*.json"):
            path.unlink()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ResultCache {str(self.root)!r} {self.stats.format()}>"
