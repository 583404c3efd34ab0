"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.config import (
    BusConfig,
    CacheConfig,
    CacheLevelConfig,
    CPUConfig,
    MachineConfig,
    MemoryConfig,
    NetworkConfig,
    NodeConfig,
    TopologyConfig,
)
from repro.pearl import Simulator
from tests.reference_kernel import ReferenceSimulator


# The ids predate the move of the seed dispatcher into tests/ and are
# kept so test names stay stable.
@pytest.fixture(params=[ReferenceSimulator, Simulator],
                ids=["seed-kernel", "fast-kernel"])
def sim(request) -> Simulator:
    """A simulator under each dispatcher — every kernel-level test runs
    against both the reference oracle and the product ring dispatcher."""
    return request.param()


@pytest.fixture
def tiny_cache_cfg() -> CacheConfig:
    """4 sets x 2 ways x 16-byte lines = 128 bytes; easy to reason about."""
    return CacheConfig(name="tiny", size_bytes=128, line_bytes=16,
                       associativity=2, hit_cycles=1.0)


@pytest.fixture
def small_node_cfg(tiny_cache_cfg) -> NodeConfig:
    return NodeConfig(
        cpu=CPUConfig(),
        cache_levels=[CacheLevelConfig(data=tiny_cache_cfg)],
        bus=BusConfig(width_bytes=8, cycles_per_beat=1.0,
                      arbitration_cycles=1.0),
        memory=MemoryConfig(access_cycles=20.0, cycles_per_word=2.0,
                            word_bytes=8),
    )


@pytest.fixture
def ring4_machine() -> MachineConfig:
    return MachineConfig(
        name="ring4",
        network=NetworkConfig(
            topology=TopologyConfig(kind="ring", dims=(4,)))).validate()


@pytest.fixture
def mesh4_machine() -> MachineConfig:
    node = NodeConfig(cache_levels=[CacheLevelConfig(data=CacheConfig())])
    return MachineConfig(
        name="mesh2x2",
        node=node,
        network=NetworkConfig(
            topology=TopologyConfig(kind="mesh", dims=(2, 2)))).validate()


def run_process(sim: Simulator, gen, **kwargs):
    """Helper: run a single process to completion, return its result."""
    proc = sim.process(gen)
    sim.run(**kwargs)
    return proc.result


@pytest.fixture
def assert_lint_clean():
    """Assert an artifact passes ``repro check`` with zero errors.

    Usage: ``assert_lint_clean(machine=...)``, ``(traces=..., n_nodes=N)``
    or ``(description=..., n_nodes=N)`` — every bundled preset, app and
    workload class is held to this in ``tests/test_check.py``.
    """
    from repro.check import check_description, check_machine, check_traces

    def _check(*, machine=None, traces=None, description=None, n_nodes=None):
        if machine is not None:
            report = check_machine(machine)
            assert report.ok, report.format()
        if traces is not None:
            report = check_traces(traces, n_nodes=n_nodes)
            assert report.ok, report.format()
        if description is not None:
            report = check_description(description, n_nodes=n_nodes)
            assert report.ok, report.format()

    return _check
