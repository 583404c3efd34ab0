"""The DRAM component — "a simple DRAM memory" (Section 4.1).

Latency-only: a fixed first-word access cost plus a per-word streaming
cost for the remainder of a cache-line fill.  Contents are never
modelled (Section 6), so the component is a latency calculator with
traffic counters.
"""

from __future__ import annotations

from ..config import MemoryConfig

__all__ = ["DRAM"]


class DRAM:
    """DRAM latency model plus read/write traffic statistics."""

    __slots__ = ("cfg", "name", "reads", "writes", "bytes_read",
                 "bytes_written")

    def __init__(self, cfg: MemoryConfig, name: str = "memory") -> None:
        cfg.validate()
        self.cfg = cfg
        self.name = name
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0

    def read_cycles(self, nbytes: int) -> float:
        """Latency to read ``nbytes`` (e.g. a line fill)."""
        self.reads += 1
        self.bytes_read += nbytes
        return self.cfg.line_fill_cycles(nbytes)

    def write_cycles(self, nbytes: int) -> float:
        """Latency to write ``nbytes`` (e.g. a dirty-line writeback)."""
        self.writes += 1
        self.bytes_written += nbytes
        return self.cfg.line_fill_cycles(nbytes)

    def summary(self) -> dict:
        return {
            "reads": self.reads,
            "writes": self.writes,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<DRAM reads={self.reads} writes={self.writes}>"
