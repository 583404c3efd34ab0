"""Experiment records: persistable (machine, workload, metrics) tuples.

Every benchmark in :file:`benchmarks/` produces rows that can be wrapped
in an :class:`ExperimentRecord` and written to JSON, so paper-vs-measured
comparisons (EXPERIMENTS.md) are regenerable artifacts rather than
hand-copied numbers.
"""

from __future__ import annotations

import json
from typing import Any, Optional, Sequence

from ..config import MachineConfig

__all__ = ["ExperimentRecord"]


class ExperimentRecord:
    """One experiment: id, machine, parameters, and result rows."""

    def __init__(self, experiment_id: str, description: str,
                 machine: Optional[MachineConfig] = None,
                 parameters: Optional[dict] = None) -> None:
        self.experiment_id = experiment_id
        self.description = description
        self.machine = machine
        self.parameters = dict(parameters or {})
        self.rows: list[dict] = []

    def add_row(self, **row: Any) -> None:
        self.rows.append(row)

    def add_rows(self, rows: Sequence[dict]) -> None:
        self.rows.extend(rows)

    def to_dict(self) -> dict:
        return {
            "experiment_id": self.experiment_id,
            "description": self.description,
            "machine": self.machine.to_dict() if self.machine else None,
            "parameters": self.parameters,
            "rows": self.rows,
        }

    def save(self, path: str) -> None:
        with open(path, "w") as fp:
            json.dump(self.to_dict(), fp, indent=2, default=str)

    @classmethod
    def load(cls, path: str) -> "ExperimentRecord":
        with open(path) as fp:
            data = json.load(fp)
        machine = (MachineConfig.from_dict(data["machine"])
                   if data.get("machine") else None)
        record = cls(data["experiment_id"], data["description"], machine,
                     data.get("parameters"))
        record.rows = list(data.get("rows", []))
        return record

    def __repr__(self) -> str:
        return (f"<ExperimentRecord {self.experiment_id!r} "
                f"rows={len(self.rows)}>")
