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
"""

from __future__ import annotations

import hashlib
import json
import os
from functools import lru_cache
from pathlib import Path
from typing import Any, Optional

from ..core.config import MachineConfig
from ..store import Store

__all__ = ["ResultCache", "code_version", "result_key", "row_entry",
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


def row_entry(entry: dict[str, Any]) -> dict[str, Any]:
    """Decode a row entry: its ``metrics`` must be an object."""
    if not isinstance(entry["metrics"], dict):
        raise TypeError("cache entry metrics is not an object")
    return entry


class ResultCache:
    """Sweep metric rows by key, in a :class:`~repro.store.Store`.

    ::

        cache = ResultCache("~/.cache/repro-sweeps")
        key = cache.key_for(machine, "alltoall-16n")
        row = cache.get(key)
        if row is None:
            row = simulate(...)
            cache.put(key, row)
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.store = Store(root)
        self.root, self.stats = self.store.root, self.store.stats

    def key_for(self, machine: MachineConfig, workload_id: str,
                faults=None, certificate: Optional[str] = None) -> str:
        return result_key(machine, workload_id, faults=faults,
                          certificate=certificate)

    def get(self, key: str) -> Optional[dict]:
        """The cached metric row for ``key``, or ``None`` on a miss."""
        entry = self.store.get(key, row_entry)
        return None if entry is None else entry["metrics"]

    def put(self, key: str, metrics: dict,
            meta: Optional[dict] = None) -> None:
        """Store one metric row (atomically; last writer wins)."""
        self.store.put(key, {"key": key, "metrics": metrics,
                             "code_version": code_version(), **(meta or {})})
