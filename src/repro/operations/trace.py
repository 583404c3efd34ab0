"""Trace containers and file round-trip.

An *operation trace* is the interface between Mermaid's application
level and architecture level: "traces of events, called operations, are
generated from the workload descriptions at the application level".
Each trace accounts for one processor (node); a multicomputer workload
is a :class:`TraceSet`, one trace per node.

Traces can live in memory (:class:`Trace`), stream lazily from a
generator (:class:`TraceStream` — the execution-driven case), or round-
trip through a compact columnar ``.npz`` file for post-mortem reuse.
"""

from __future__ import annotations

import collections
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from .ops import (
    COMMUNICATION_OPS,
    COMPUTATIONAL_OPS,
    OpCode,
    Operation,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = ["Trace", "TraceSet", "TraceStream", "trace_mix"]


class Trace:
    """An in-memory operation trace for a single node.

    Behaves like a sequence of :class:`Operation`; also exposes summary
    statistics used by the analysis tools and the benchmarks.
    """

    __slots__ = ("node", "_ops",)

    def __init__(self, node: int = 0,
                 ops: Optional[Iterable[Operation]] = None) -> None:
        self.node = node
        self._ops: list[Operation] = list(ops) if ops is not None else []

    # -- sequence protocol -------------------------------------------------

    def append(self, op: Operation) -> None:
        self._ops.append(op)

    def extend(self, ops: Iterable[Operation]) -> None:
        self._ops.extend(ops)

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self._ops)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Trace(self.node, self._ops[i])
        return self._ops[i]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Trace) and self.node == other.node
                and self._ops == other._ops)

    # -- statistics -----------------------------------------------------------

    def op_histogram(self) -> dict[OpCode, int]:
        """Count of each op code present in the trace."""
        counts = collections.Counter(op.code for op in self._ops)
        return {OpCode(c): n for c, n in counts.items()}

    @property
    def computational_count(self) -> int:
        return sum(1 for op in self._ops if op.code in COMPUTATIONAL_OPS)

    @property
    def communication_count(self) -> int:
        return sum(1 for op in self._ops if op.code in COMMUNICATION_OPS)

    @property
    def bytes_sent(self) -> int:
        return sum(op.size for op in self._ops
                   if op.code in (OpCode.SEND, OpCode.ASEND))

    def __repr__(self) -> str:
        return f"<Trace node={self.node} ops={len(self._ops)}>"

    # -- columnar file round-trip ------------------------------------------

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Encode as four parallel columns (code, dtype, arg, arg2)."""
        import numpy as np   # only the .npz round-trip needs it
        n = len(self._ops)
        code = np.empty(n, dtype=np.uint8)
        dtyp = np.empty(n, dtype=np.uint8)
        arg = np.empty(n, dtype=np.int64)
        arg2 = np.empty(n, dtype=np.float64)
        for i, op in enumerate(self._ops):
            code[i] = op.code
            dtyp[i] = op.dtype
            arg[i] = op.arg
            arg2[i] = op.arg2
        return {"code": code, "dtype": dtyp, "arg": arg, "arg2": arg2}

    @classmethod
    def from_arrays(cls, node: int, cols: dict[str, np.ndarray]) -> "Trace":
        code = cols["code"]
        dtyp = cols["dtype"]
        arg = cols["arg"]
        arg2 = cols["arg2"]
        ops = [Operation(OpCode(int(code[i])), int(dtyp[i]),
                         int(arg[i]), float(arg2[i]))
               for i in range(len(code))]
        return cls(node, ops)

    def save(self, path: str) -> None:
        """Write the trace to a compressed columnar ``.npz`` file."""
        import numpy as np
        cols = self.to_arrays()
        np.savez_compressed(path, node=np.int64(self.node), **cols)

    @classmethod
    def load(cls, path: str) -> "Trace":
        import numpy as np
        with np.load(path) as data:
            return cls.from_arrays(int(data["node"]),
                                   {k: data[k] for k in
                                    ("code", "dtype", "arg", "arg2")})


class TraceStream:
    """A lazily-generated trace: wraps an operation *generator*.

    This is the execution-driven form: operations are produced on the
    fly by a trace generator under simulator control, so the stream can
    only be consumed once and its contents may depend on simulated time
    (physical-time interleaving, Section 3.1).
    """

    __slots__ = ("node", "_gen", "consumed")

    def __init__(self, node: int, gen: Iterator[Operation]) -> None:
        self.node = node
        self._gen = iter(gen)
        self.consumed = 0

    def __iter__(self) -> "TraceStream":
        return self

    def __next__(self) -> Operation:
        op = next(self._gen)
        self.consumed += 1
        return op

    def materialize(self) -> Trace:
        """Drain the stream into an in-memory :class:`Trace`."""
        t = Trace(self.node, list(self._gen))
        self.consumed += len(t)
        return t

    def __repr__(self) -> str:
        return f"<TraceStream node={self.node} consumed={self.consumed}>"


class TraceSet:
    """One trace per node of the multicomputer (Section 2: "multiple
    traces are simulated.  Each trace accounts for the execution
    behaviour of a single processor").
    """

    __slots__ = ("_traces",)

    def __init__(self, traces: Sequence[Trace]) -> None:
        self._traces = list(traces)
        for i, t in enumerate(self._traces):
            if t.node != i:
                raise ValueError(
                    f"trace at index {i} claims node {t.node}; traces must "
                    "be ordered by node id")

    @classmethod
    def from_lists(cls, per_node_ops: Sequence[Iterable[Operation]]) -> "TraceSet":
        return cls([Trace(i, ops) for i, ops in enumerate(per_node_ops)])

    def __len__(self) -> int:
        return len(self._traces)

    def __iter__(self) -> Iterator[Trace]:
        return iter(self._traces)

    def __getitem__(self, node: int) -> Trace:
        return self._traces[node]

    @property
    def total_ops(self) -> int:
        return sum(len(t) for t in self._traces)

    def op_histogram(self) -> dict[OpCode, int]:
        total: collections.Counter = collections.Counter()
        for t in self._traces:
            total.update(t.op_histogram())
        return dict(total)

    def save(self, path: str) -> None:
        """All node traces in a single ``.npz`` (columns per node)."""
        import numpy as np
        payload: dict[str, np.ndarray] = {"n_nodes": np.int64(len(self._traces))}
        for t in self._traces:
            for k, v in t.to_arrays().items():
                payload[f"n{t.node}_{k}"] = v
        np.savez_compressed(path, **payload)

    @classmethod
    def load(cls, path: str) -> "TraceSet":
        import numpy as np
        with np.load(path) as data:
            n = int(data["n_nodes"])
            traces = []
            for i in range(n):
                cols = {k: data[f"n{i}_{k}"]
                        for k in ("code", "dtype", "arg", "arg2")}
                traces.append(Trace.from_arrays(i, cols))
        return cls(traces)

    def __repr__(self) -> str:
        return f"<TraceSet nodes={len(self._traces)} ops={self.total_ops}>"


def trace_mix(trace: Trace) -> dict[str, float]:
    """Fractional instruction mix of a trace (for reports and tuning)."""
    n = len(trace)
    if n == 0:
        return {}
    hist = trace.op_histogram()
    return {code.name.lower(): count / n for code, count in sorted(hist.items())}
