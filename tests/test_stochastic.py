"""Stochastic trace generator: determinism, validity, mix fidelity."""

from __future__ import annotations

import pytest

from repro.operations import OpCode, trace_mix
from repro.tracegen import (
    CommunicationBehaviour,
    InstructionMix,
    MemoryBehaviour,
    StochasticAppDescription,
    StochasticGenerator,
)


def make_gen(n_nodes=4, seed=0, **desc_kw) -> StochasticGenerator:
    return StochasticGenerator(StochasticAppDescription(**desc_kw),
                               n_nodes, seed=seed)


class TestDeterminism:
    def test_same_seed_same_traces(self):
        a = make_gen(seed=42).generate_instruction_level(3000)
        b = make_gen(seed=42).generate_instruction_level(3000)
        for ta, tb in zip(a, b):
            assert ta == tb

    def test_different_seed_different_traces(self):
        a = make_gen(seed=1).generate_instruction_level(3000)
        b = make_gen(seed=2).generate_instruction_level(3000)
        assert any(ta != tb for ta, tb in zip(a, b))

    def test_task_level_deterministic(self):
        a = make_gen(seed=9).generate_task_level(30)
        b = make_gen(seed=9).generate_task_level(30)
        for ta, tb in zip(a, b):
            assert ta == tb


class TestValidity:
    @pytest.mark.parametrize("n_nodes", [1, 2, 3, 4, 7])
    def test_instruction_level_matched(self, n_nodes, assert_lint_clean):
        ts = make_gen(n_nodes=n_nodes).generate_instruction_level(2000)
        assert_lint_clean(traces=ts)

    @pytest.mark.parametrize("n_nodes", [1, 2, 5, 8])
    def test_task_level_matched(self, n_nodes, assert_lint_clean):
        ts = make_gen(n_nodes=n_nodes).generate_task_level(20)
        assert_lint_clean(traces=ts)

    def test_async_rounds_matched(self, assert_lint_clean):
        gen = make_gen(comm=CommunicationBehaviour(async_fraction=1.0))
        assert_lint_clean(traces=gen.generate_task_level(20))

    def test_neighbour_pattern(self, assert_lint_clean):
        gen = make_gen(comm=CommunicationBehaviour(pattern="neighbour"))
        ts = gen.generate_task_level(10)
        assert_lint_clean(traces=ts)
        for t in ts:
            for op in t:
                if op.code in (OpCode.SEND, OpCode.RECV):
                    assert op.peer == t.node ^ 1


class TestShape:
    def test_target_op_count_roughly_met(self):
        ts = make_gen().generate_instruction_level(10000)
        for t in ts:
            comp = t.computational_count
            assert 0.5 * 10000 < comp < 2.0 * 10000

    def test_one_ifetch_per_instruction(self):
        ts = make_gen(n_nodes=1).generate_instruction_level(5000)
        hist = ts[0].op_histogram()
        ifetches = hist.get(OpCode.IFETCH, 0)
        others = sum(n for c, n in hist.items()
                     if c != OpCode.IFETCH)
        assert ifetches == others

    def test_mix_tracks_weights(self):
        mix = InstructionMix(load=0.5, store=0.0, loadc=0.0, add=0.5,
                             sub=0.0, mul=0.0, div=0.0, branch=0.0,
                             call=0.0, ret=0.0)
        gen = make_gen(n_nodes=1, mix=mix)
        ts = gen.generate_instruction_level(8000)
        observed = trace_mix(ts[0])
        # Excluding ifetch (half the trace), load and add split the rest.
        assert observed.get("load", 0) == pytest.approx(0.25, abs=0.03)
        assert observed.get("add", 0) == pytest.approx(0.25, abs=0.03)
        assert "div" not in observed

    def test_addresses_within_regions(self):
        desc_mem = MemoryBehaviour(working_set_bytes=1 << 16)
        gen = make_gen(n_nodes=1, memory=desc_mem)
        ts = gen.generate_instruction_level(4000)
        for op in ts[0]:
            if op.code in (OpCode.LOAD, OpCode.STORE):
                in_data = (desc_mem.data_base <= op.address
                           < desc_mem.data_base + desc_mem.working_set_bytes)
                in_stack = (desc_mem.stack_base <= op.address
                            < desc_mem.stack_base + desc_mem.stack_bytes)
                assert in_data or in_stack

    def test_loop_model_repeats_addresses(self):
        ts = make_gen(n_nodes=1).generate_instruction_level(5000)
        fetches = [op.address for op in ts[0] if op.code is OpCode.IFETCH]
        # Loopy code: far fewer distinct fetch addresses than fetches.
        assert len(set(fetches)) < len(fetches) / 3

    def test_message_sizes_in_range(self):
        comm = CommunicationBehaviour(min_message_bytes=100,
                                      max_message_bytes=1000)
        gen = make_gen(comm=comm)
        ts = gen.generate_task_level(30)
        sizes = [op.size for t in ts for op in t
                 if op.code in (OpCode.SEND, OpCode.ASEND)]
        assert sizes
        assert all(100 <= s <= 1100 for s in sizes)

    def test_task_durations_near_mean(self):
        gen = make_gen(mean_task_cycles=5000.0)
        ts = gen.generate_task_level(50, imbalance=0.05)
        durations = [op.duration for t in ts for op in t
                     if op.code is OpCode.COMPUTE]
        mean = sum(durations) / len(durations)
        assert mean == pytest.approx(5000.0, rel=0.1)

    def test_zero_imbalance_exact(self):
        gen = make_gen(mean_task_cycles=1234.0)
        ts = gen.generate_task_level(5, imbalance=0.0)
        for t in ts:
            for op in t:
                if op.code is OpCode.COMPUTE:
                    assert op.duration == 1234.0


class TestErrors:
    def test_bad_n_nodes(self):
        with pytest.raises(ValueError):
            StochasticGenerator(StochasticAppDescription(), 0)

    def test_bad_targets(self):
        gen = make_gen()
        with pytest.raises(ValueError):
            gen.generate_instruction_level(0)
        with pytest.raises(ValueError):
            gen.generate_task_level(0)
        with pytest.raises(ValueError):
            gen.generate_task_level(5, imbalance=-1)

    def test_bad_description(self):
        with pytest.raises(ValueError):
            StochasticAppDescription(loopback_prob=1.5).validate()
        with pytest.raises(ValueError):
            StochasticAppDescription(
                comm=CommunicationBehaviour(pattern="gossip")).validate()
        with pytest.raises(ValueError):
            StochasticAppDescription(
                memory=MemoryBehaviour(sequential_fraction=2.0)).validate()
        with pytest.raises(ValueError):
            InstructionMix(load=0, store=0, loadc=0, add=0, sub=0, mul=0,
                           div=0, branch=0, call=0, ret=0).weights()
