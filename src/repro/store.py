"""One content-addressed store under every on-disk cache: sweep rows,
lint findings and served job records are each a :class:`Store` of JSON
objects at ``<root>/<key[:2]>/<key>.json``, and only this module builds
that path, writes an entry or lists entries.  :func:`sources_digest`
versions entries by the code that computed them."""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, TypeVar

__all__ = ["CacheStats", "Store", "atomic_write_text", "sources_digest"]

T = TypeVar("T")


def atomic_write_text(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` atomically; last writer wins.  The
    temp file is per writer (process and thread), and a failed write
    (full disk) removes it and leaves ``path`` as it was.  The parent
    directory is made only when the write finds it missing, so a put
    into an existing shard is one write and one rename."""
    tmp = path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}")
    try:
        try:
            tmp.write_text(text)
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(text)
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise


def sources_digest(root: Path, paths: Iterable[str] = (".",)) -> str:
    """Stable digest of the ``.py`` sources at ``paths`` under ``root``,
    where a directory stands for every ``.py`` file below it.

    Paths (relative to ``root``) and contents both feed the hash, so
    renames count as changes.  It versions what a store's entries were
    computed by: the sweep cache's ``code_version`` and the lint
    analyzer's rule-set version (``repro.check.lint.cache``).
    """
    digest = hashlib.sha256()
    for entry in paths:
        top = root / entry
        for path in sorted(top.rglob("*.py")) if top.is_dir() else [top]:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


@dataclass
class CacheStats:
    """Hit/miss/store counters for one :class:`Store`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    def __post_init__(self) -> None:
        # Puts a caller survived (full disk).  Not a field: the asdict
        # views (job records, campaign reports) keep their three keys.
        self.put_errors = 0

    def format(self) -> str:
        return f"{self.hits} hits, {self.misses} misses, {self.stores} stored"


class Store:
    """JSON objects by key under ``root``, each written as compact JSON
    (``json.dumps(entry, separators=(",", ":"), default=float)``: with
    no ``indent`` the C encoder writes it).  Any JSON object reads back,
    so entries written indented by earlier releases stay valid."""

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str,
            decode: Callable[[dict[str, Any]], T]) -> Optional[T]:
        """``decode(entry)`` of the entry at ``key`` (one open, no stat).
        ``None`` — one miss, which the next put replaces — if it is
        absent, unreadable, not a UTF-8 JSON object, or ``decode``
        raises ``KeyError``, ``TypeError`` or ``ValueError``."""
        try:
            with open(self._path(key), "rb") as fp:
                entry = json.loads(fp.read().decode())
            if not isinstance(entry, dict):
                raise TypeError(f"entry is a {type(entry).__name__}")
            value = decode(entry)
        except (OSError, KeyError, TypeError, ValueError):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return value

    def put(self, key: str, entry: dict[str, Any]) -> Path:
        """Write ``entry`` at ``key``; returns the entry's path."""
        path = self._path(key)
        atomic_write_text(path, json.dumps(entry, separators=(",", ":"),
                                           default=float))
        self.stats.stores += 1
        return path

    def keys(self) -> list[str]:
        """Every entry's key, sorted."""
        return sorted(path.stem for path in self.root.glob("*/*.json"))

    def __len__(self) -> int:
        return len(self.keys())
