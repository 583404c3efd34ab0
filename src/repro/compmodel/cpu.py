"""The CPU component — abstract-instruction execution timing.

"The CPU component simulates a microprocessor within the node
architecture.  It supports the operation set described in section 3.3."
Costs come from :class:`~repro.config.CPUConfig`; memory operations
additionally pay whatever the attached memory system charges.

Because operations are register-less abstract instructions, the CPU is
a cycle-cost composer, not an interpreter — the paper's core trade-off
(higher simulation speed for a small accuracy loss, no pipeline
modelling).
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..config import CPUConfig
from ..operations.ops import OpCode, Operation
from ..operations.optypes import MEM_TYPE_BYTES, MemType
from .hierarchy import AccessKind, CacheHierarchy

__all__ = ["CPU", "CPUStats"]

#: raw ``dtype`` ints a fixed-cost row prices by index (valid MemTypes
#: and ArithTypes are < 6); cell ``N_DTYPES`` prices every other dtype.
N_DTYPES = 8


class CPUStats:
    """Executed-operation counters for one CPU."""

    __slots__ = ("cycles", "op_counts", "memory_accesses", "ifetches",
                 "instructions")

    def __init__(self) -> None:
        self.cycles = 0.0
        self.op_counts = [0] * 16       # indexed by OpCode
        self.memory_accesses = 0
        self.ifetches = 0
        self.instructions = 0

    def count(self, code: int) -> int:
        return self.op_counts[code]

    def summary(self) -> dict:
        return {
            "cycles": self.cycles,
            "instructions": self.instructions,
            "memory_accesses": self.memory_accesses,
            "ifetches": self.ifetches,
            "op_counts": {OpCode(i).name.lower(): n
                          for i, n in enumerate(self.op_counts) if n},
        }


class CPU:
    """Executes computational operations against a memory hierarchy.

    The CPU is analytic: :meth:`op_cycles` returns the cost of one
    operation and updates all cache/bus/memory state as a side effect.
    Communication operations are *not* accepted here — they belong to
    the communication model ("communication operations are not simulated
    by this model, but are directly forwarded", Section 3.2).
    """

    __slots__ = ("cfg", "memsys", "cpu_id", "stats", "fixed_rows")

    def __init__(self, cfg: CPUConfig, memsys: Optional[CacheHierarchy],
                 cpu_id: int = 0) -> None:
        cfg.validate()
        self.cfg = cfg
        self.memsys = memsys
        self.cpu_id = cpu_id
        self.stats = CPUStats()
        # The one cost table of every operation that never touches the
        # memory hierarchy: ``fixed_rows[code][dtype]``, None where the
        # config has no price.  loadc and control flow ignore their
        # dtype; arithmetic prices exactly its ArithType table.  A dict,
        # so ``.get(code)`` answers None for memory, communication and
        # non-OpCode ints alike (a list would index-wrap negatives).
        self.fixed_rows: dict[int, list] = {}
        for code, cost in ((OpCode.LOADC, cfg.loadc_cycles),
                           (OpCode.BRANCH, cfg.branch_cycles),
                           (OpCode.CALL, cfg.call_cycles),
                           (OpCode.RET, cfg.ret_cycles)):
            self.fixed_rows[int(code)] = [cost] * (N_DTYPES + 1)
        for code, table in ((OpCode.ADD, cfg.add_cycles),
                            (OpCode.SUB, cfg.sub_cycles),
                            (OpCode.MUL, cfg.mul_cycles),
                            (OpCode.DIV, cfg.div_cycles)):
            self.fixed_rows[int(code)] = [
                table.get(d) for d in range(N_DTYPES)] + [None]

    def op_cycles(self, op: Operation) -> float:
        """Cycle cost of one computational operation (updates stats)."""
        code = int(op.code)
        stats = self.stats
        stats.op_counts[code] += 1
        stats.instructions += 1
        cfg = self.cfg
        if code == OpCode.LOAD:
            stats.memory_accesses += 1
            cost = cfg.load_issue_cycles + self._mem(AccessKind.READ, op)
        elif code == OpCode.STORE:
            stats.memory_accesses += 1
            cost = cfg.store_issue_cycles + self._mem(AccessKind.WRITE, op)
        elif code == OpCode.IFETCH:
            stats.ifetches += 1
            if self.memsys is not None:
                cost = self.memsys.access_cycles(AccessKind.IFETCH,
                                                 op.arg, 4)
            else:
                cost = 1.0
        else:
            row = self.fixed_rows.get(code)
            if row is None:
                raise ValueError(
                    f"CPU cannot execute communication operation {op!r}; "
                    "forward it to the communication model")
            dtype = op.dtype
            cost = row[dtype if 0 <= dtype < N_DTYPES else N_DTYPES]
            if cost is None:
                raise KeyError(dtype)
        stats.cycles += cost
        return cost

    def _mem(self, kind: int, op: Operation) -> float:
        if self.memsys is None:
            return 0.0
        nbytes = MEM_TYPE_BYTES[MemType(op.dtype)]
        return self.memsys.access_cycles(kind, op.arg, nbytes)

    def execute(self, ops: Iterable[Operation]) -> float:
        """Execute a whole computational trace; returns total cycles."""
        total = 0.0
        op_cycles = self.op_cycles
        for op in ops:
            total += op_cycles(op)
        return total

    @property
    def seconds(self) -> float:
        """Simulated wall-clock time of everything executed so far."""
        return self.stats.cycles / self.cfg.clock_hz

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<CPU {self.cfg.name!r} id={self.cpu_id} "
                f"cycles={self.stats.cycles:.0f}>")
