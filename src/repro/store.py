"""One content-addressed store under every on-disk cache: sweep rows,
lint findings and served job records are each a :class:`Store` of JSON
objects at ``<root>/<key[:2]>/<key>.json``, and only this module builds
that path, writes an entry or lists entries."""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional, TypeVar

__all__ = ["CacheStats", "Store", "atomic_write_text"]

T = TypeVar("T")


def atomic_write_text(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` atomically; last writer wins.  The
    temp file is per writer (process and thread), and a failed write
    (full disk) removes it and leaves ``path`` as it was."""
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
    """JSON objects by key under ``root``, each written as
    ``json.dumps(entry, indent=2, default=float)``."""

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
        atomic_write_text(path, json.dumps(entry, indent=2, default=float))
        self.stats.stores += 1
        return path

    def keys(self) -> list[str]:
        """Every entry's key, sorted."""
        return sorted(path.stem for path in self.root.glob("*/*.json"))

    def __len__(self) -> int:
        return len(self.keys())
