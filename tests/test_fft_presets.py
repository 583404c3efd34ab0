"""The FFT workload and the stochastic workload-class presets."""

from __future__ import annotations

import pytest

from repro import Workbench, generic_multicomputer
from repro.apps import ThreadedApplication, make_fft
from repro.operations import OpCode
from repro.tracegen import (
    WORKLOAD_CLASSES,
    StochasticGenerator,
    comm_bound_class,
    dense_linear_algebra_class,
    irregular_class,
    stencil_class,
)


class TestFFT:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_traces_valid(self, n, assert_lint_clean):
        ts = ThreadedApplication(make_fft(points_per_node=8), n).record()
        assert_lint_clean(traces=ts)

    def test_exchange_count(self):
        """log2(P) stages, one exchange (send+recv) per node per stage."""
        n = 8
        ts = ThreadedApplication(make_fft(points_per_node=8), n).record()
        sends = sum(t.op_histogram().get(OpCode.SEND, 0) for t in ts)
        assert sends == n * 3       # log2(8) = 3 stages

    def test_partners_are_hypercube_neighbours(self):
        ts = ThreadedApplication(make_fft(points_per_node=8), 8).record()
        for t in ts:
            for op in t:
                if op.code is OpCode.SEND:
                    assert bin(t.node ^ op.peer).count("1") == 1

    def test_power_of_two_required(self):
        wb = Workbench(generic_multicomputer("ring", (3,)))
        with pytest.raises(Exception, match="power-of-two"):
            wb.run_hybrid(make_fft(points_per_node=8))
        with pytest.raises(ValueError):
            make_fft(points_per_node=12)

    def test_hypercube_beats_ring_for_fft(self):
        """Later butterfly stages are multi-hop on a ring but single-hop
        on the cube: the workbench quantifies the textbook claim."""
        fft = make_fft(points_per_node=32)
        cube = Workbench(generic_multicomputer("hypercube", (3,)))
        ring = Workbench(generic_multicomputer("ring", (8,)))
        t_cube = cube.run_hybrid(fft).total_cycles
        t_ring = ring.run_hybrid(fft).total_cycles
        assert t_cube < t_ring


class TestWorkloadClasses:
    @pytest.mark.parametrize("name", sorted(WORKLOAD_CLASSES))
    def test_presets_generate_valid_traces(self, name, assert_lint_clean):
        desc = WORKLOAD_CLASSES[name]()
        gen = StochasticGenerator(desc, 4, seed=5)
        assert_lint_clean(traces=gen.generate_task_level(10))
        assert_lint_clean(traces=gen.generate_instruction_level(3000))

    def test_classes_differ_in_character(self):
        """The presets must actually distinguish the classes they name."""
        def mix_of(desc):
            gen = StochasticGenerator(desc, 1, seed=1)
            trace = gen.generate_instruction_level(6000)[0]
            hist = trace.op_histogram()
            total = sum(n for c, n in hist.items()
                        if c is not OpCode.IFETCH)
            return {c: n / total for c, n in hist.items()}

        stencil = mix_of(stencil_class())
        irregular = mix_of(irregular_class())
        # Irregular code branches far more than stencils.
        assert irregular.get(OpCode.BRANCH, 0) > \
            2 * stencil.get(OpCode.BRANCH, 0)
        dla = mix_of(dense_linear_algebra_class())
        assert dla.get(OpCode.MUL, 0) > 2 * irregular.get(OpCode.MUL, 0)

    def test_comm_bound_heavier_on_network(self):
        wb = Workbench(generic_multicomputer("mesh", (2, 2)))
        comm = wb.run_stochastic(comm_bound_class(), level="task",
                                 rounds=20, seed=2)
        compute_heavy = wb.run_stochastic(dense_linear_algebra_class(),
                                          level="task", rounds=20, seed=2)
        assert comm.parallel_efficiency() < \
            compute_heavy.parallel_efficiency()

    def test_locality_shows_in_cache_behaviour(self):
        """Stencil (sequential) hits caches far better than irregular
        (random over 8 MiB)."""
        from repro import powerpc601_node
        wb = Workbench(powerpc601_node())

        def l1_hit_rate(desc):
            gen = StochasticGenerator(desc, 1, seed=3)
            trace = gen.generate_instruction_level(20_000)[0]
            res = wb.run_single_node(trace)
            caches = res.memory_summary["caches"]
            l1 = next(v for k, v in caches.items() if "L1" in k)
            return l1["hit_rate"]

        assert l1_hit_rate(stencil_class()) > \
            l1_hit_rate(irregular_class()) + 0.05
