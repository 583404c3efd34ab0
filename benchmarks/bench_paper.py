"""The paper's evaluation under pytest-benchmark.

One case per experiment of :data:`repro.experiments.EXPERIMENTS`: the
timed call is the whole experiment through the sweep engine, the table
is printed (visible with ``-s``) and the shape claims are asserted.
Nothing is written: refresh the committed records with
``repro reproduce --out benchmarks/results``.
"""

from __future__ import annotations

import pytest

from repro.experiments import EXPERIMENTS, format_experiment, run_experiment


@pytest.mark.benchmark(group="paper")
@pytest.mark.parametrize("exp", EXPERIMENTS.values(), ids=list(EXPERIMENTS))
def test_experiment(benchmark, exp):
    rows = benchmark.pedantic(run_experiment, args=(exp,), rounds=1,
                              iterations=1)
    print("\n" + format_experiment(exp, rows))
    exp.shape(rows)
