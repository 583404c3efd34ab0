"""Property tests: the batched computational model is *exact*.

``repro.compmodel.batch`` claims byte-identical results to the seed
per-op loop — same yielded stream, same floating-point cycle totals
(sequential accumulation order preserved), same statistics, same
exceptions.  Hypothesis drives random mixed traces (valid and invalid
operations, all container types) and random cost tables (including
zero-cost operations) through both implementations and requires exact
equality, not approximate.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compmodel.batch import (
    batched_fixed_cycles,
    extract_tasks_fast,
    fast_eligible,
    fixed_cost_table,
)
from repro.compmodel.node import SingleNodeModel
from repro.compmodel.tasks import TaskExtractionStats, _extract_tasks_scalar
from repro.core.config import (
    BusConfig,
    CacheConfig,
    CacheLevelConfig,
    CPUConfig,
    MemoryConfig,
    NodeConfig,
)
from repro.operations.ops import OpCode, Operation, recv, send
from repro.operations.optypes import ArithType


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


@pytest.mark.parametrize("wrap", [list, tuple, iter],
                         ids=["list", "tuple", "generator"])
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
    from repro.compmodel.tasks import extract_tasks
    from tests.reference_kernel import reference_stack

    fast = _run_extraction(
        lambda m, o, s: extract_tasks(m, o, s), ops, list)
    with reference_stack():
        seed = _run_extraction(
            lambda m, o, s: extract_tasks(m, o, s), ops, list)
    assert fast == seed


def test_fast_eligible_guards_subclasses():
    class CustomNode(SingleNodeModel):
        pass

    assert fast_eligible(SingleNodeModel(_node_cfg()))
    assert not fast_eligible(CustomNode(_node_cfg()))


# -- the fixed-cost batcher ---------------------------------------------

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


_fixed_op = st.one_of(
    st.builds(Operation, st.just(OpCode.LOADC), _mem_dtype),
    st.builds(Operation, _arith_code, st.integers(0, 2)),
    st.builds(Operation, _flow_code, st.just(0), _addr),
)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=_cpu_config(), ops=st.lists(_fixed_op, max_size=80),
       start=_cost)
def test_batched_fixed_cycles_exact(cfg, ops, start):
    """The vectorized total equals the scalar sequential sum EXACTLY —
    same accumulation order, so bit-equal floats, not approximately."""
    table = fixed_cost_table(cfg)
    scalar = start
    for op in ops:
        scalar += table[int(op.code), op.dtype]
    batched = batched_fixed_cycles(cfg, ops, start=start)
    assert batched == scalar


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=_cpu_config(), ops=st.lists(_fixed_op, max_size=40))
def test_batched_fixed_cycles_matches_cpu(cfg, ops):
    """And both equal what the seed CPU charges for the same ops."""
    model = SingleNodeModel(_node_cfg(cpu=cfg))
    before = model.cpu.stats.cycles
    for op in ops:
        model.cpu.op_cycles(op)
    charged = model.cpu.stats.cycles - before
    assert batched_fixed_cycles(cfg, ops) == charged


def test_batched_fixed_cycles_rejects_bad_ops():
    cfg = CPUConfig()
    with pytest.raises(ValueError):
        batched_fixed_cycles(cfg, [Operation(OpCode.ADD, 5)])
    with pytest.raises(ValueError):
        batched_fixed_cycles(cfg, [Operation(OpCode.LOAD, 0, 4)])
    with pytest.raises(ValueError):
        batched_fixed_cycles(cfg, [Operation(OpCode.ADD, -1)])


def test_fixed_cost_table_shape():
    table = fixed_cost_table(CPUConfig())
    assert table.shape == (16, 8)
    assert table[int(OpCode.LOADC), 0] == 1.0
    assert np.isnan(table[int(OpCode.LOAD), 0])
    assert np.isnan(table[int(OpCode.ADD), 3])
