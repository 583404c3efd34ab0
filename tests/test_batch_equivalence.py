"""Property tests: the batched computational model is *exact*.

``repro.compmodel.batch`` claims byte-identical results to the seed
per-op loop — same yielded stream, same floating-point cycle totals
(sequential accumulation order preserved), same statistics, same
exceptions.  Hypothesis drives random mixed traces (valid and invalid
operations, all container types) and random cost tables (including
zero-cost operations) through both loops — ``extract_tasks`` and
``run_trace``, which is the extractor with no boundaries — and requires
exact equality, not approximate.  The spy tests pin which loop ran.
"""

from __future__ import annotations

import gc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compmodel.batch import extract_tasks_fast, fast_eligible
from repro.compmodel.cpu import CPU
from repro.compmodel.node import SingleNodeModel
from repro.compmodel.tasks import (
    TaskExtractionStats,
    _extract_tasks_scalar,
    extract_tasks,
)
from repro.core.config import (
    BusConfig,
    CacheConfig,
    CacheLevelConfig,
    CPUConfig,
    MemoryConfig,
    NodeConfig,
)
from repro.operations.ops import OpCode, Operation, add, load, recv, send
from repro.operations.optypes import ArithType, MemType
from repro.operations.trace import Trace
from repro.tracegen import InterleavedStream, NodeThread
from tests.reference_kernel import reference_stack


def _node_cfg(cpu: CPUConfig | None = None) -> NodeConfig:
    tiny = CacheConfig(name="tiny", size_bytes=128, line_bytes=16,
                       associativity=2, hit_cycles=1.0)
    return NodeConfig(
        cpu=cpu or CPUConfig(),
        cache_levels=[CacheLevelConfig(data=tiny)],
        bus=BusConfig(width_bytes=8, cycles_per_beat=1.0,
                      arbitration_cycles=1.0),
        memory=MemoryConfig(access_cycles=20.0, cycles_per_word=2.0,
                            word_bytes=8),
    )


# -- operation strategies -----------------------------------------------

_addr = st.integers(0, 2048)
_mem_dtype = st.integers(0, 5)
_bad_mem_dtype = st.integers(6, 9)
_arith_code = st.sampled_from([OpCode.ADD, OpCode.SUB, OpCode.MUL,
                               OpCode.DIV])
_flow_code = st.sampled_from([OpCode.BRANCH, OpCode.CALL, OpCode.RET])

_valid_op = st.one_of(
    st.builds(Operation, st.just(OpCode.LOAD), _mem_dtype, _addr),
    st.builds(Operation, st.just(OpCode.STORE), _mem_dtype, _addr),
    st.builds(Operation, st.just(OpCode.IFETCH), st.just(0), _addr),
    st.builds(Operation, st.just(OpCode.LOADC), _mem_dtype),
    st.builds(Operation, _arith_code, st.integers(0, 2)),
    st.builds(Operation, _flow_code, st.just(0), _addr),
)
_comm_op = st.one_of(
    st.builds(send, st.integers(1, 4096), st.integers(0, 3)),
    st.builds(recv, st.integers(0, 3)),
    # COMPUTE and reserved high codes pass through extraction as
    # communication-level operations.
    st.builds(Operation, st.sampled_from([OpCode.COMPUTE]),
              st.just(0), st.integers(0, 10)),
)
_invalid_op = st.one_of(
    st.builds(Operation, _arith_code, st.integers(3, 9)),     # KeyError
    st.builds(Operation, st.sampled_from([OpCode.LOAD, OpCode.STORE]),
              _bad_mem_dtype, _addr),                         # ValueError
)
_mixed_trace = st.lists(st.one_of(_valid_op, _comm_op), max_size=60)
_trace_with_invalid = st.tuples(
    st.lists(st.one_of(_valid_op, _comm_op), max_size=30),
    _invalid_op,
    st.lists(st.one_of(_valid_op, _comm_op), max_size=10),
).map(lambda t: t[0] + [t[1]] + t[2])


def _cpu_stats_tuple(model: SingleNodeModel) -> tuple:
    s = model.cpu.stats
    return (s.cycles, s.instructions, s.memory_accesses, s.ifetches,
            tuple(s.op_counts))


def _run_extraction(extractor, ops, wrap):
    """Drive one extractor; returns every observable plus any exception."""
    model = SingleNodeModel(_node_cfg())
    stats = TaskExtractionStats()
    yielded, error = [], None
    try:
        for op in extractor(model, wrap(ops), stats):
            yielded.append(op.to_tuple() if hasattr(op, "to_tuple")
                           else (op.code, op.dtype, op.arg, op.arg2))
    except (KeyError, ValueError) as exc:
        error = (type(exc).__name__, str(exc))
    return (yielded, error, stats.summary(), _cpu_stats_tuple(model),
            model.hierarchy.summary())


def _as_trace(ops) -> Trace:
    return Trace(0, ops)


_containers = pytest.mark.parametrize(
    "wrap", [list, tuple, iter, _as_trace],
    ids=["list", "tuple", "generator", "trace"])


@_containers
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=_mixed_trace)
def test_extraction_identical_on_valid_traces(ops, wrap):
    scalar = _run_extraction(_extract_tasks_scalar, ops, wrap)
    fast = _run_extraction(extract_tasks_fast, ops, wrap)
    assert scalar == fast
    assert scalar[1] is None


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=_trace_with_invalid)
def test_extraction_identical_exceptions(ops):
    """Invalid operations raise the same exception at the same point,
    with identical statistics accumulated up to the failure."""
    scalar = _run_extraction(_extract_tasks_scalar, ops, list)
    fast = _run_extraction(extract_tasks_fast, ops, list)
    assert scalar == fast
    assert scalar[1] is not None


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=_mixed_trace)
def test_eligible_model_dispatch(ops):
    """The public extract_tasks equals itself under reference_stack(),
    where no model is eligible and the scalar loop runs."""
    fast = _run_extraction(extract_tasks, ops, list)
    with reference_stack():
        seed = _run_extraction(extract_tasks, ops, list)
    assert fast == seed


# -- run_trace: the extractor with no boundaries ------------------------

def _run_trace(ops, wrap):
    """One ``run_trace`` call; every observable plus any exception."""
    model = SingleNodeModel(_node_cfg())
    result = error = None
    try:
        r = model.run_trace(wrap(ops))
        result = (r.cycles, r.instructions, r.cpu_summary, r.memory_summary,
                  r.clock_hz)
    except (KeyError, ValueError) as exc:
        error = (type(exc).__name__, str(exc))
    return (result, error, _cpu_stats_tuple(model),
            model.hierarchy.summary())


@_containers
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.one_of(st.lists(_valid_op, max_size=60), _trace_with_invalid,
                     _mixed_trace))
def test_run_trace_identical_to_scalar_loop(ops, wrap):
    """Valid traces return the same result; an invalid dtype or a
    communication operation (a literal ``compute`` included) raises the
    same exception with the same statistics charged before it."""
    fast = _run_trace(ops, wrap)
    with reference_stack():
        seed = _run_trace(ops, wrap)
    assert fast == seed
    assert (fast[0] is None) != (fast[1] is None)


# -- which loop ran ------------------------------------------------------

@pytest.fixture
def op_cycles_calls(monkeypatch):
    """Every operation handed to ``CPU.op_cycles`` (the scalar price)."""
    calls = []
    real = CPU.op_cycles

    def spy(self, op):
        calls.append(op)
        return real(self, op)

    monkeypatch.setattr(CPU, "op_cycles", spy)
    return calls


_SPY_TRACE = ([load(MemType.INT32, 64 * i) for i in range(6)]
              + [add(ArithType.INT)] * 5)


def _drive_run_trace(model, ops):
    model.run_trace(ops)


def _drive_extract_tasks(model, ops):
    list(extract_tasks(model, ops + [send(8, 1)]))


@pytest.mark.parametrize("drive", [_drive_run_trace, _drive_extract_tasks],
                         ids=["run_trace", "extract_tasks"])
def test_product_is_batched_and_oracle_is_scalar(op_cycles_calls, drive):
    drive(SingleNodeModel(_node_cfg()), _SPY_TRACE)
    assert op_cycles_calls == []
    with reference_stack():
        drive(SingleNodeModel(_node_cfg()), _SPY_TRACE)
    assert op_cycles_calls == _SPY_TRACE


def test_invalid_dtype_is_the_only_divert(op_cycles_calls):
    bad = Operation(OpCode.ADD, 7)
    with pytest.raises(KeyError):
        SingleNodeModel(_node_cfg()).run_trace(_SPY_TRACE + [bad])
    assert op_cycles_calls == [bad]


def test_abandoned_extractor_writes_nothing_back():
    """The traceback of a rejected trace keeps run_trace's frame, and
    the extractor suspended in it, alive; collecting that extractor
    later must not touch a model that has moved on."""
    model = SingleNodeModel(_node_cfg())
    with pytest.raises(ValueError) as caught:
        model.run_trace([add(ArithType.INT), send(8, 1)])
    model.run_trace(_SPY_TRACE)
    charged = _cpu_stats_tuple(model)
    del caught
    gc.collect()
    assert _cpu_stats_tuple(model) == charged


# -- bulk-drained sources -------------------------------------------------

class _PerOp:
    """``iter``-only view of a stream: the extractor pulls op by op."""

    def __init__(self, stream):
        self._stream = stream
        self.post_result = stream.post_result

    def __iter__(self):
        return iter(self._stream)


class _Drained:
    """A source that is not an ``InterleavedStream`` but offers its
    ``chunks()`` protocol, and refuses to be walked op by op."""

    def __init__(self, stream):
        self.chunks = stream.chunks
        self.post_result = stream.post_result

    def __iter__(self):
        raise AssertionError("a source with chunks() must be bulk-drained")


def _extract_live(view):
    """Extraction over a running program whose control flow depends on
    the values handed back at its global events."""
    handed_back = []

    def program(th):
        for i in range(40):
            th.emit(load(MemType.INT32, 8 * i))
        n = th.global_event(recv(1))
        handed_back.append(n)
        for _ in range(n):
            th.emit(add(ArithType.DOUBLE))
        handed_back.append(th.global_event(send(64, 1), payload="x"))
        th.emit(add(ArithType.INT))

    source = view(InterleavedStream(NodeThread(0, program)))
    model = SingleNodeModel(_node_cfg())
    stats = TaskExtractionStats()
    yielded = []
    for op in extract_tasks(model, source, stats):
        yielded.append((op.code, op.dtype, op.arg, op.arg2))
        if op.code == OpCode.RECV:
            source.post_result(7)
    return (yielded, handed_back, stats.summary(), _cpu_stats_tuple(model),
            model.hierarchy.summary())


@pytest.mark.parametrize("view", [lambda stream: stream, _Drained],
                         ids=["InterleavedStream", "duck-typed"])
def test_chunked_source_equals_per_op_pull(view):
    per_op = _extract_live(_PerOp)
    assert per_op[1] == [7, None] and per_op[2]["computational_ops"] == 48
    assert _extract_live(view) == per_op


def test_fast_eligible_guards_subclasses():
    class CustomNode(SingleNodeModel):
        pass

    assert fast_eligible(SingleNodeModel(_node_cfg()))
    assert not fast_eligible(CustomNode(_node_cfg()))


# -- the one cost table --------------------------------------------------

_cost = st.floats(min_value=0.0, max_value=64.0, allow_nan=False,
                  allow_infinity=False).map(lambda x: round(x, 2))


@st.composite
def _cpu_config(draw):
    """Random cost tables, explicitly including zero-cost operations."""
    def table():
        return {at: draw(_cost) for at in ArithType}
    return CPUConfig(
        add_cycles=table(), sub_cycles=table(),
        mul_cycles=table(), div_cycles=table(),
        loadc_cycles=draw(_cost), branch_cycles=draw(_cost),
        call_cycles=draw(_cost), ret_cycles=draw(_cost),
    )


# loadc and control flow are priced whatever their dtype says.
_fixed_op = st.one_of(
    st.builds(Operation, st.just(OpCode.LOADC), st.integers(-2, 12)),
    st.builds(Operation, _arith_code, st.integers(0, 2)),
    st.builds(Operation, _flow_code, st.integers(-2, 12), _addr),
)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=_cpu_config(), ops=st.lists(_fixed_op, max_size=80))
def test_fixed_costs_read_one_table(cfg, ops):
    """Every fixed-cost operation has one price: what ``CPU.op_cycles``
    charges is what the batched loop hands on as that op's task."""
    scalar = SingleNodeModel(_node_cfg(cpu=cfg))
    batched = SingleNodeModel(_node_cfg(cpu=cfg))
    for op in ops:
        price = scalar.cpu.op_cycles(op)
        tasks = list(extract_tasks_fast(batched, [op]))
        assert [t.duration for t in tasks] == ([price] if price > 0 else [])
    assert _cpu_stats_tuple(batched) == _cpu_stats_tuple(scalar)
