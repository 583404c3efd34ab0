"""Finding baselines for ``repro lint``.

A baseline is a JSON set of finding *fingerprints* — the hash of
``(rule, subject, message)``, deliberately excluding line numbers so a
known finding survives unrelated edits that shift code around.  Linting
with ``--baseline`` splits findings into *known* (present in the file,
reported but not fatal) and *new* (absent — these gate CI).
``--update-baseline`` rewrites the file from the current findings.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from ...diagnostics import Diagnostic, Report

__all__ = ["Baseline", "fingerprint"]

_FORMAT = "repro-lint-baseline/v1"


def fingerprint(diag: Diagnostic) -> str:
    """Stable, line-number-free identity of a finding."""
    payload = "\x1f".join((diag.rule, diag.subject, diag.message))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]


@dataclass
class Baseline:
    """A set of accepted finding fingerprints, with display context."""

    #: fingerprint -> short human context ("PY001 path/to/file.py").
    entries: dict[str, str] = field(default_factory=dict)

    def __contains__(self, diag: Diagnostic) -> bool:
        return fingerprint(diag) in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    @classmethod
    def from_reports(cls, reports: Iterable[Report]) -> "Baseline":
        entries: dict[str, str] = {}
        for report in reports:
            for diag in report.diagnostics:
                entries[fingerprint(diag)] = \
                    f"{diag.rule} {diag.subject}"
        return cls(entries=entries)

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        """Read a baseline file; a missing file is an empty baseline."""
        if not path.exists():
            return cls()
        data = json.loads(path.read_text(encoding="utf-8"))
        if data.get("format") != _FORMAT:
            raise ValueError(
                f"{path}: not a {_FORMAT} file "
                f"(format={data.get('format')!r})")
        raw = data.get("findings", {})
        return cls(entries={str(k): str(v) for k, v in raw.items()})

    def save(self, path: Path) -> None:
        data = {
            "format": _FORMAT,
            "findings": dict(sorted(self.entries.items())),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")

    def split(self, diagnostics: Iterable[Diagnostic]
              ) -> tuple[list[Diagnostic], list[Diagnostic]]:
        """Partition into (new, known-from-baseline)."""
        new: list[Diagnostic] = []
        known: list[Diagnostic] = []
        for diag in diagnostics:
            (known if diag in self else new).append(diag)
        return new, known

    def stale(self, diagnostics: Iterable[Diagnostic]) -> dict[str, str]:
        """Baseline entries no current finding matched.

        A stale entry means the finding it suppressed was fixed (or its
        rule retired), but the baseline still carries the suppression —
        so the same issue could silently come back without gating CI.
        Returns ``{fingerprint: context}``; refresh the file with
        ``--update-baseline`` to drop them.
        """
        seen = {fingerprint(diag) for diag in diagnostics}
        return {fp: context for fp, context in self.entries.items()
                if fp not in seen}
