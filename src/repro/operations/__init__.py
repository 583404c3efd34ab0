"""``repro.operations`` — abstract machine instructions (Table 1).

The traces that drive Mermaid's architecture models are sequences of
*operations*: abstract, register-less machine instructions covering
memory access, arithmetic, instruction fetching and message passing.
This package defines the operation vocabulary and trace containers;
traces are validated by :func:`repro.check.check_traces`.
"""

from .ops import (
    ARITHMETIC_OPS,
    COMMUNICATION_OPS,
    COMPUTATIONAL_OPS,
    CONTROL_OPS,
    GLOBAL_EVENT_OPS,
    MEMORY_OPS,
    OpCode,
    Operation,
    add,
    arecv,
    asend,
    branch,
    call,
    compute,
    div,
    ifetch,
    load,
    load_const,
    mul,
    recv,
    ret,
    send,
    store,
    sub,
)
from .optypes import MEM_TYPE_BYTES, ArithType, MemType
from .trace import Trace, TraceSet, TraceStream, trace_mix

__all__ = [
    "ARITHMETIC_OPS", "ArithType", "COMMUNICATION_OPS", "COMPUTATIONAL_OPS",
    "CONTROL_OPS", "GLOBAL_EVENT_OPS", "MEMORY_OPS", "MEM_TYPE_BYTES",
    "MemType", "OpCode", "Operation", "Trace", "TraceSet", "TraceStream",
    "add", "arecv", "asend", "branch", "call", "compute", "div", "ifetch",
    "load", "load_const", "mul", "recv", "ret", "send", "store", "sub",
    "trace_mix",
]
