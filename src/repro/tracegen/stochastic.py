"""The stochastic trace generator.

"The stochastic generator uses a probabilistic application description
to produce realistic synthetic traces of operations.  This technique
represents the behaviour of (a class of) applications with modest
accuracy, which can be useful when fast-prototyping new architectures."

The generator produces both abstraction levels of Fig 4:

* **instruction level** — abstract-machine-instruction traces (with an
  implicit ifetch per instruction, a basic-block loop model for the
  code address stream, and a locality model for the data stream) for
  the single-node computational model;
* **task level** — ``compute(duration)`` + message-passing traces for
  the multi-node communication model.

Communication is generated as matched, deadlock-free exchange rounds
(see :class:`~repro.tracegen.descriptions.CommunicationBehaviour`), so
every synthetic trace set passes
:func:`repro.check.check_traces` by construction.
"""

from __future__ import annotations

import math

import numpy as np

from ..operations.ops import (
    OpCode,
    Operation,
    arecv,
    asend,
    compute,
    recv,
    send,
)
from ..operations.optypes import ArithType, MemType
from ..operations.trace import Trace, TraceSet
from .descriptions import StochasticAppDescription

__all__ = ["StochasticGenerator"]

# Enum member reads cost ~0.2 us each on CPython 3.11: the per-op loop
# of _comp_segment reads these module constants instead.
_IFETCH = OpCode.IFETCH
_MEMORY, _ARITH, _CONST, _CONTROL = range(4)
#: kind -> (op code, the branch _comp_segment takes for it)
_KINDS = {
    "load": (OpCode.LOAD, _MEMORY), "store": (OpCode.STORE, _MEMORY),
    "loadc": (OpCode.LOADC, _CONST),
    "add": (OpCode.ADD, _ARITH), "sub": (OpCode.SUB, _ARITH),
    "mul": (OpCode.MUL, _ARITH), "div": (OpCode.DIV, _ARITH),
    "branch": (OpCode.BRANCH, _CONTROL), "call": (OpCode.CALL, _CONTROL),
    "ret": (OpCode.RET, _CONTROL),
}
_INT32, _INT32_BYTES = int(MemType.INT32), MemType.INT32.nbytes
_FLOAT64, _FLOAT64_BYTES = int(MemType.FLOAT64), MemType.FLOAT64.nbytes
_INT, _FLOAT, _DOUBLE = (int(ArithType.INT), int(ArithType.FLOAT),
                         int(ArithType.DOUBLE))


class _ExchangeRound:
    """One globally-scheduled communication round."""

    __slots__ = ("pairs", "sizes", "is_async")

    def __init__(self, pairs: list[tuple[int, int]],
                 sizes: dict[tuple[int, int], int], is_async: bool) -> None:
        self.pairs = pairs
        self.sizes = sizes
        self.is_async = is_async


class StochasticGenerator:
    """Synthetic multi-node trace generation from a probabilistic model.

    Parameters
    ----------
    desc:
        The application-class description.
    n_nodes:
        Number of node traces to generate.
    seed:
        Master seed; identical seeds give identical trace sets.
    """

    def __init__(self, desc: StochasticAppDescription, n_nodes: int,
                 seed: int = 0) -> None:
        desc.validate()
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        self.desc = desc
        self.n_nodes = n_nodes
        self.seed = seed
        ss = np.random.SeedSequence(seed)
        children = ss.spawn(n_nodes + 1)
        self._schedule_rng = np.random.default_rng(children[0])
        self._node_rngs = [np.random.default_rng(c) for c in children[1:]]

    # -- global communication schedule ------------------------------------

    def _make_rounds(self, n_rounds: int) -> list[_ExchangeRound]:
        """Draw the shared exchange-round schedule (same for all nodes)."""
        rng = self._schedule_rng
        comm = self.desc.comm
        n = self.n_nodes
        log_lo = math.log(comm.min_message_bytes)
        log_hi = math.log(comm.max_message_bytes)
        rounds = []
        for _ in range(n_rounds):
            if comm.pattern == "neighbour":
                pairs = [(i, i + 1) for i in range(0, n - 1, 2)]
            else:
                perm = rng.permutation(n)
                pairs = [(min(int(perm[i]), int(perm[i + 1])),
                          max(int(perm[i]), int(perm[i + 1])))
                         for i in range(0, n - 1, 2)]
            sizes: dict[tuple[int, int], int] = {}
            for a, b in pairs:
                for key in ((a, b), (b, a)):
                    u = rng.uniform(log_lo, log_hi)
                    sizes[key] = max(int(round(math.exp(u))),
                                     comm.min_message_bytes)
            is_async = bool(rng.random() < comm.async_fraction)
            rounds.append(_ExchangeRound(pairs, sizes, is_async))
        return rounds

    @staticmethod
    def _round_ops(node: int, rnd: _ExchangeRound) -> list[Operation]:
        """This node's operations for one exchange round (matched order)."""
        ops: list[Operation] = []
        for a, b in rnd.pairs:
            if node == a:
                if rnd.is_async:
                    ops.append(asend(rnd.sizes[(a, b)], b))
                    ops.append(arecv(b))
                else:
                    ops.append(send(rnd.sizes[(a, b)], b))
                    ops.append(recv(b))
            elif node == b:
                if rnd.is_async:
                    ops.append(arecv(a))
                    ops.append(asend(rnd.sizes[(b, a)], a))
                else:
                    ops.append(recv(a))
                    ops.append(send(rnd.sizes[(b, a)], a))
        return ops

    # -- instruction-level generation -----------------------------------------

    def _comp_segment(self, node: int, n_instructions: int,
                      state: dict) -> list[Operation]:
        """One run of computational ops, batch-sampled with numpy."""
        desc = self.desc
        rng = self._node_rngs[node]
        mix = desc.mix.weights()
        kinds = [k for k, _ in mix]
        probs = np.array([w for _, w in mix])
        kind_idx = rng.choice(len(kinds), size=n_instructions, p=probs)
        uni = rng.random(size=(n_instructions, 3))

        mem = desc.memory
        slot = max(int(math.ceil(desc.mean_block_len * 2)), 2)
        ws = mem.working_set_bytes
        ops: list[Operation] = []
        append = ops.append
        block = state.setdefault("block", 0)
        pos = state.setdefault("pos", 0)
        blen = state.setdefault("blen", self._block_len(rng))
        seq_cursor = state.setdefault("seq_cursor", 0)

        # Loop invariants, read once per segment.
        kind_table = [_KINDS[k] for k in kinds]
        code_base, instr_bytes = desc.code_base, desc.instr_bytes
        n_blocks = desc.n_basic_blocks
        loopback = desc.loopback_prob
        far_jump = loopback + desc.far_jump_prob
        stack_fraction = mem.stack_fraction
        sequential = stack_fraction + \
            (1 - stack_fraction) * mem.sequential_fraction
        stack_base, stack_bytes = mem.stack_base, mem.stack_bytes
        data_base = mem.data_base
        double_data = desc.mix.double_data_fraction
        float_fraction = desc.mix.float_fraction

        for k, (u0, u1, u2) in zip(kind_idx.tolist(), uni.tolist()):
            # Instruction fetch: the loop model drives the address.
            addr = code_base + (block * slot + min(pos, slot - 1)) \
                * instr_bytes
            append(Operation(_IFETCH, 0, addr))
            pos += 1
            if pos >= blen:
                pos = 0
                blen = self._block_len(rng)
                if u2 < loopback:
                    pass  # tight loop: same block again
                elif u2 < far_jump:
                    block = int(rng.integers(n_blocks))
                else:
                    block = (block + 1) % n_blocks
            code, cls = kind_table[k]
            if cls == _MEMORY:
                if u0 < stack_fraction:
                    daddr = stack_base + int(u1 * stack_bytes)
                elif u0 < sequential:
                    daddr = data_base + seq_cursor
                    seq_cursor = (seq_cursor + 8) % ws
                else:
                    daddr = data_base + int(u1 * ws)
                if u2 < double_data:
                    daddr -= daddr % _FLOAT64_BYTES
                    append(Operation(code, _FLOAT64, daddr))
                else:
                    daddr -= daddr % _INT32_BYTES
                    append(Operation(code, _INT32, daddr))
            elif cls == _ARITH:
                if u0 < float_fraction:
                    at = _FLOAT if u1 < 0.5 else _DOUBLE
                else:
                    at = _INT
                append(Operation(code, at))
            elif cls == _CONST:
                append(Operation(code, _INT32))
            else:
                # branch/call/ret target a block boundary.
                target = code_base + int(u1 * n_blocks) * slot * instr_bytes
                append(Operation(code, 0, target))

        state["block"] = block
        state["pos"] = pos
        state["blen"] = blen
        state["seq_cursor"] = seq_cursor
        return ops

    def _block_len(self, rng: np.random.Generator) -> int:
        return 1 + int(rng.geometric(1.0 / self.desc.mean_block_len))

    def generate_instruction_level(self, ops_per_node: int) -> TraceSet:
        """Synthetic instruction-level traces with matched communication.

        ``ops_per_node`` is a target for *computational* operations per
        node (communication rounds add a few ops on top).
        """
        if ops_per_node < 1:
            raise ValueError("ops_per_node must be >= 1")
        desc = self.desc
        n_rounds = max(int(round(ops_per_node
                                 / desc.comm.mean_ops_between_rounds)), 1) \
            if self.n_nodes > 1 else 0
        rounds = self._make_rounds(n_rounds)
        traces = []
        for node in range(self.n_nodes):
            rng = self._node_rngs[node]
            state: dict = {}
            ops: list[Operation] = []
            remaining = ops_per_node
            segments = n_rounds + 1
            for s in range(segments):
                if segments - s == 1:
                    seg = remaining
                else:
                    mean = remaining / (segments - s)
                    seg = int(rng.poisson(mean)) if mean > 0 else 0
                    seg = min(seg, remaining)
                # Each instruction expands to ifetch + op: halve the count.
                ops.extend(self._comp_segment(node, max(seg // 2, 1), state))
                remaining -= seg
                if s < n_rounds:
                    ops.extend(self._round_ops(node, rounds[s]))
            traces.append(Trace(node, ops))
        return TraceSet(traces)

    # -- task-level generation -----------------------------------------------------

    def generate_task_level(self, n_rounds: int,
                            imbalance: float = 0.1) -> TraceSet:
        """Synthetic task-level traces: compute tasks + exchange rounds.

        ``imbalance`` is the coefficient of variation of task durations
        across nodes within a round (load-balance realism).
        """
        if n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")
        if imbalance < 0:
            raise ValueError("imbalance must be >= 0")
        desc = self.desc
        rounds = self._make_rounds(n_rounds if self.n_nodes > 1 else 0)
        traces = []
        for node in range(self.n_nodes):
            rng = self._node_rngs[node]
            ops: list[Operation] = []
            for r in range(n_rounds):
                mean = desc.mean_task_cycles
                dur = rng.normal(mean, mean * imbalance) if imbalance else mean
                ops.append(compute(max(float(dur), 1.0)))
                if self.n_nodes > 1:
                    ops.extend(self._round_ops(node, rounds[r]))
            traces.append(Trace(node, ops))
        return TraceSet(traces)
