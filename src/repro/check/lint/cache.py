"""Incremental result cache for ``repro lint``.

Linting is a pure function of ``(file bytes, rule set)``, so each
file's findings are cached under
``sha256(file bytes + rules version)`` where the rules version is a
:func:`~repro.store.sources_digest` over :data:`LINT_SOURCES` — editing
any analyzer source invalidates every entry, exactly like the sweep
cache's ``code_version``.  Entries store serialized
diagnostics *before* baseline filtering (baselines can change without
re-analyzing), plus the suppression count.  Entries live in a
:class:`repro.store.Store`, so a damaged one is a counted miss.
"""

from __future__ import annotations

import hashlib
import os
from functools import lru_cache
from pathlib import Path
from typing import Optional

from ...diagnostics import Diagnostic
from ...store import Store, sources_digest

__all__ = ["LINT_SOURCES", "LintCache", "lint_key", "lint_rules_version"]

#: What the lint's findings are computed by, relative to ``repro/``:
#: the analyzer package, the rule catalogue and entry format, and the
#: kernel API tables the Pearl passes read.
LINT_SOURCES = ("check", "diagnostics.py", "pearl/introspect.py")


@lru_cache(maxsize=1)
def lint_rules_version() -> str:
    """Digest over :data:`LINT_SOURCES` — the analyzer version."""
    return sources_digest(Path(__file__).resolve().parents[2], LINT_SOURCES)


def lint_key(source_bytes: bytes, version: Optional[str] = None) -> str:
    """Cache key of one file's lint result under one rule set."""
    digest = hashlib.sha256()
    digest.update(source_bytes)
    digest.update(b"\0")
    digest.update((version if version is not None
                   else lint_rules_version()).encode())
    return digest.hexdigest()


class LintCache:
    """Directory-backed store of per-file lint findings."""

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.store = Store(root)
        self.stats = self.store.stats

    def get(self, key: str) -> Optional[tuple[list[Diagnostic], int]]:
        """Cached ``(diagnostics, n_suppressed)``, or ``None`` on miss."""
        return self.store.get(key, lambda entry: (
            [Diagnostic.from_dict(d) for d in entry["diagnostics"]],
            int(entry["suppressed"])))

    def put(self, key: str, diagnostics: list[Diagnostic],
            suppressed: int) -> None:
        self.store.put(key, {
            "key": key,
            "rules_version": lint_rules_version(),
            "suppressed": suppressed,
            "diagnostics": [d.to_dict() for d in diagnostics],
        })
