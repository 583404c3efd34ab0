"""Batched operation-cost evaluation — the computational model's fast lane.

The hybrid model spends almost all of its host time charging
computational operations between two communication operations (the
paper's "computational task" boundary).  The scalar loop
(:func:`~repro.compmodel.tasks._extract_tasks_scalar`) walks
``CPU.op_cycles`` per operation: a dispatch chain, two enum
constructions and five statistics updates per op.
:func:`extract_tasks_fast` is the one batched loop that charges whole
inter-communication stretches at once; ``SingleNodeModel.run_trace`` is
the same loop with no boundaries.

* **chunked trace pulls** — materialized traces and sources that offer
  ``chunks()`` (:class:`~repro.tracegen.threads.InterleavedStream`) are
  consumed a whole buffered stretch at a time (the stream's thread is
  suspended, so the operations already exist; bulk draining cannot run
  generation ahead of a global event), replacing one Python iterator
  call per operation with a plain list walk;
* **table-driven fixed costs** — every operation whose cost does not
  touch the memory hierarchy (``loadc``/``add``/``sub``/``mul``/
  ``div``/``branch``/``call``/``ret``) is priced from the CPU's own
  ``fixed_rows``, the table ``CPU.op_cycles`` reads too;
* **an inlined L1 lane** — the overwhelmingly common L1 hit
  (read, or write on a write-back cache, within one line) is served
  with the line state dict alone: same probe, same LRU touch, same
  state upgrade, same counters as ``Cache.lookup``, without the
  call chain.  Consecutive instruction fetches from one line skip even
  the probe (the line is resident and already most-recently-used, so
  the scalar loop's LRU touch would be a no-op).  Everything else
  (misses, write-through stores, line-spanning accesses) falls back to
  the untouched
  :meth:`~repro.compmodel.hierarchy.CacheHierarchy.access_cycles`;
* **batch-flushed statistics** — per-op counters accumulate in locals
  and flush at every task boundary (the only points where control can
  leave the loop), so every kernel-visible snapshot is identical to
  the scalar loop's.

Exactness, not approximation: cost values are the *same* Python floats
the scalar loop charges, accumulated one by one in the *same* order
(costs are never batch-summed), and cache state transitions happen in
the same relative order — pinned by ``tests/test_batch_equivalence.py``.
The PR-1 determinism goldens therefore hold byte for byte under this
path.  An operation the rows cannot price (an invalid dtype) is handed
to ``CPU.op_cycles`` for the identical exception.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..operations.ops import OpCode, Operation, compute
from ..operations.optypes import MEM_TYPE_BYTES, MemType
from ..operations.trace import Trace
from .cache import Cache, LineState
from .cpu import CPU, N_DTYPES
from .hierarchy import CacheHierarchy
from .node import SingleNodeModel

__all__ = ["extract_tasks_fast", "fast_eligible"]

_LOAD = int(OpCode.LOAD)
_STORE = int(OpCode.STORE)
_IFETCH = int(OpCode.IFETCH)
_N_CODES = 16

#: datum size per raw ``dtype`` int (None = invalid, ``op_cycles`` raises).
_BYTES_BY_DTYPE = [
    MEM_TYPE_BYTES[MemType(d)] if d < len(MemType) else None
    for d in range(N_DTYPES)
]


def fast_eligible(node_model) -> bool:
    """True when ``node_model`` is the plain analytic single-node
    template the batched lane mirrors instruction-for-instruction.

    Subclassed CPUs, coherent (contended) hierarchies and subclassed
    caches take the scalar loop — correctness over speed for anything the
    lane was not proven against.
    """
    return (type(node_model) is SingleNodeModel
            and type(node_model.cpu) is CPU
            and type(node_model.cpu.memsys) is CacheHierarchy
            and all(type(c) is Cache for c in node_model.cpu.memsys.caches))


def _lane(path: list):
    """(sets, mask, shift, hit_cycles, lru, write_back, line_bytes,
    stats) of a path's L1, or None when the path has no caches."""
    if not path:
        return None
    l1 = path[0]
    return (l1._sets, l1._set_mask, l1._line_shift, l1.cfg.hit_cycles,
            l1.cfg.replacement == "lru", l1.cfg.write_policy == "write-back",
            l1.cfg.line_bytes, l1.stats)


def _chunk_iter(ops: Iterable[Operation]):
    """``ops`` as an iterable of sequences to walk with a plain loop.

    Materialized sources become one big chunk; a source that offers
    ``chunks()`` (interleaved streams) is bulk-drained stretch by
    stretch; anything else stays a single lazy "chunk" (the inner
    per-op loop then pulls exactly like the scalar loop — important for
    execution-driven sources we cannot detect).
    """
    t = type(ops)
    if t is list or t is tuple:
        return (ops,)
    if t is Trace:
        return (ops._ops,)
    chunks = getattr(ops, "chunks", None)
    return (ops,) if chunks is None else chunks()


def extract_tasks_fast(node_model: SingleNodeModel,
                       ops: Iterable[Operation],
                       stats=None) -> Iterator[Operation]:
    """Batched twin of :func:`repro.compmodel.tasks.extract_tasks`.

    Same pull pattern (never beyond what the source already generated —
    safe for execution-driven streams), same yielded stream, same
    statistics at every yield point, same exceptions; only the
    per-operation host cost differs.
    """
    from .tasks import TaskExtractionStats          # circular-safe
    if stats is None:
        stats = TaskExtractionStats()
    cpu = node_model.cpu
    cstats = cpu.stats
    cfg = cpu.cfg
    hier = cpu.memsys
    rows = cpu.fixed_rows
    load_issue = cfg.load_issue_cycles
    store_issue = cfg.store_issue_cycles
    access = hier.access_cycles
    op_counts = cstats.op_counts
    modified = LineState.MODIFIED

    dl = _lane(hier.data_path)
    il = _lane(hier.instr_path)
    unified = (dl is not None and il is not None
               and hier.instr_path[0] is hier.data_path[0])
    if il is not None:
        isets, imask, ishift, ihit, ilru, _, iline, istats = il
    else:
        isets = istats = None
        imask = ishift = iline = 0
        ihit = 0.0
        ilru = False
    if dl is not None:
        dsets, dmask, dshift, dhit, dlru, dwb, dline, dstats = dl
        load_hit = load_issue + dhit
        store_hit = store_issue + dhit
    else:
        dsets = dstats = None
        dmask = dshift = dline = 0
        load_hit = store_hit = 0.0
        dlru = dwb = False

    acc = 0.0
    cyc = cstats.cycles
    counts = [0] * _N_CODES
    n_if = 0               # ifetches (op_counts[7] tracked separately)
    i_hits = 0             # L1i lane read hits
    d_rhits = 0            # L1d lane read hits
    d_whits = 0            # L1d lane write hits
    # Address range of the last lane-served ifetch line ([lo, hi] empty
    # when invalid): fetches inside it are resident, already MRU, and
    # cannot span lines.
    memo_lo, memo_hi = 1, 0

    n_mem = 0              # LOAD+STORE count (memory_accesses)

    def flush() -> None:
        nonlocal n_if, n_mem, i_hits, d_rhits, d_whits
        n = n_if
        if n_if:
            op_counts[7] += n_if
            cstats.ifetches += n_if
            n_if = 0
        for i in range(_N_CODES):
            c = counts[i]
            if c:
                op_counts[i] += c
                counts[i] = 0
                n += c
        if n_mem:
            cstats.memory_accesses += n_mem
            n_mem = 0
        if n:
            # Only with something charged: an extractor abandoned at a
            # boundary and collected later must not write a stale
            # cycle count back into a model that has moved on.
            cstats.cycles = cyc
            cstats.instructions += n
            stats.computational_ops += n
        if i_hits:
            istats.read_hits += i_hits
            i_hits = 0
        if d_rhits:
            dstats.read_hits += d_rhits
            d_rhits = 0
        if d_whits:
            dstats.write_hits += d_whits
            d_whits = 0

    try:
        for chunk in _chunk_iter(ops):
            for op in chunk:
                code = op.code
                if code == _IFETCH:
                    n_if += 1
                    addr = op.arg
                    if memo_lo <= addr <= memo_hi:
                        i_hits += 1
                        cyc += ihit
                        acc += ihit
                        continue
                    if isets is not None:
                        line = (addr >> ishift) << ishift
                        if addr - line + 4 <= iline:
                            cset = isets[(line >> ishift) & imask]
                            state = cset.get(line)
                            if state is not None and state:
                                if ilru:
                                    cset.move_to_end(line)
                                i_hits += 1
                                memo_lo = line
                                memo_hi = line + iline - 4
                                cyc += ihit
                                acc += ihit
                                continue
                    memo_lo, memo_hi = 1, 0
                    cost = access(2, addr, 4)
                    cyc += cost
                    acc += cost
                    continue
                row = rows.get(code)
                if row is not None:
                    d = op.dtype
                    cost = row[d] if 0 <= d < N_DTYPES else None
                    if cost is None:
                        # Invalid dtype: divert to CPU.op_cycles for
                        # the identical exception (and identical stats
                        # if it returns — loadc/control ignore dtype).
                        flush()
                        cost = cpu.op_cycles(op)
                        cyc = cstats.cycles
                        stats.computational_ops += 1
                        acc += cost
                        continue
                    counts[code] += 1
                    cyc += cost
                    acc += cost
                    continue
                if code == _LOAD or code == _STORE:
                    d = op.dtype
                    nb = _BYTES_BY_DTYPE[d] if 0 <= d < N_DTYPES else None
                    if nb is None:
                        flush()
                        cost = cpu.op_cycles(op)  # raises, like the scalar
                        cyc = cstats.cycles
                        stats.computational_ops += 1
                        acc += cost
                        continue
                    counts[code] += 1
                    n_mem += 1
                    if unified:
                        memo_lo, memo_hi = 1, 0
                    if dsets is not None:
                        addr = op.arg
                        line = (addr >> dshift) << dshift
                        if addr - line + nb <= dline:
                            cset = dsets[(line >> dshift) & dmask]
                            state = cset.get(line)
                            if state is not None and state:
                                if code == _LOAD:
                                    if dlru:
                                        cset.move_to_end(line)
                                    d_rhits += 1
                                    cyc += load_hit
                                    acc += load_hit
                                    continue
                                if dwb:
                                    if dlru:
                                        cset.move_to_end(line)
                                    cset[line] = modified
                                    d_whits += 1
                                    cyc += store_hit
                                    acc += store_hit
                                    continue
                    if code == _LOAD:
                        cost = load_issue + access(0, op.arg, nb)
                    else:
                        cost = store_issue + access(1, op.arg, nb)
                    cyc += cost
                    acc += cost
                    continue
                # Communication operation: task boundary.
                flush()
                if acc > 0.0:
                    stats.tasks_emitted += 1
                    stats.total_task_cycles += acc
                    yield compute(acc)
                    acc = 0.0
                stats.communication_ops += 1
                yield op
    finally:
        # Covers abrupt exits (source exceptions, diverted-op raises):
        # flush is idempotent, so the normal path below is unaffected.
        flush()
    if acc > 0.0:
        stats.tasks_emitted += 1
        stats.total_task_cycles += acc
        yield compute(acc)
