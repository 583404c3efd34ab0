"""Cross-cutting property-based tests (hypothesis).

Deeper invariants than the per-module suites: kernel schedule laws,
channel/NIC ordering, network delivery completeness, cache inclusion,
and trace-generation determinism, each over randomized inputs.
"""

from __future__ import annotations

import collections
import copy
import dataclasses
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import (
    CacheConfig,
    MachineConfig,
    NetworkConfig,
    TopologyConfig,
)
from repro.commmodel import MultiNodeModel
from repro.compmodel import Cache, LineState
from repro.operations import ArithType, compute, recv, send
from repro.pearl import Channel, Simulator


# ---------------------------------------------------------------------------
# Kernel laws
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.floats(0.01, 50.0), min_size=1, max_size=8),
                min_size=1, max_size=6))
def test_kernel_final_time_is_max_process_time(delay_lists):
    """With independent processes, end time = max of per-process sums."""
    sim = Simulator()

    def proc(delays):
        for d in delays:
            yield d

    for delays in delay_lists:
        sim.process(proc(list(delays)))
    end = sim.run()
    assert end == pytest.approx(max(sum(d) for d in delay_lists))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=20))
def test_kernel_time_monotone(delays):
    """Observed simulation time never decreases."""
    sim = Simulator()
    observed = []

    def proc():
        for d in delays:
            yield d
            observed.append(sim.now)

    sim.process(proc())
    sim.run()
    assert observed == sorted(observed)


# ---------------------------------------------------------------------------
# Channel ordering
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 1000), min_size=1, max_size=30),
       st.integers(0, 3))
def test_channel_fifo_under_any_capacity(messages, cap_choice):
    """Messages always arrive in send order, whatever the capacity."""
    sim = Simulator()
    capacity = [None, 0, 1, 4][cap_choice]
    ch = Channel(sim, capacity=capacity)
    got = []

    def sender():
        for m in messages:
            yield ch.send(m)

    def receiver():
        for _ in messages:
            got.append((yield ch.receive()))

    sim.process(sender())
    sim.process(receiver())
    sim.run(check_deadlock=True)
    assert got == messages


# ---------------------------------------------------------------------------
# Network delivery completeness
# ---------------------------------------------------------------------------

def _machine(kind, dims, switching):
    return MachineConfig(
        name="prop",
        network=NetworkConfig(
            topology=TopologyConfig(kind=kind, dims=dims),
            switching=switching,
            send_overhead=10.0, recv_overhead=10.0,
            packet_bytes=128)).validate()


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_every_message_delivered_exactly_once(data):
    """Random matched traffic: delivered == injected, conservation."""
    kind, dims = data.draw(st.sampled_from([
        ("ring", (5,)), ("mesh", (2, 3)), ("hypercube", (3,))]))
    switching = data.draw(st.sampled_from(
        ["store_and_forward", "virtual_cut_through", "wormhole"]))
    machine = _machine(kind, dims, switching)
    n = machine.n_nodes
    n_msgs = data.draw(st.integers(1, 12))
    pairs = [data.draw(st.tuples(st.integers(0, n - 1),
                                 st.integers(0, n - 1)))
             for _ in range(n_msgs)]
    pairs = [(a, b) for a, b in pairs if a != b]
    streams = [[] for _ in range(n)]
    for a, b in pairs:
        size = data.draw(st.integers(1, 2000))
        streams[a].append(send(size, b))
        streams[b].append(recv(a))
    net = MultiNodeModel(machine)
    res = net.run(streams)
    assert res.messages_delivered == len(pairs)
    assert net.engine.messages_injected == len(pairs)
    total_sent = sum(nic.stats.messages_sent for nic in net.nics)
    total_recv = sum(nic.stats.messages_received for nic in net.nics)
    assert total_sent == total_recv == len(pairs)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_network_determinism_over_seeds(seed):
    """Same machine/traces => identical end time, regardless of host
    state (the kernel owns all ordering)."""
    from repro.tracegen import StochasticAppDescription, StochasticGenerator
    machine = _machine("mesh", (2, 2), "wormhole")
    gen = StochasticGenerator(StochasticAppDescription(), 4,
                              seed=seed % 1000)
    traces = gen.generate_task_level(5)
    a = MultiNodeModel(machine).run(traces).total_cycles
    b = MultiNodeModel(machine).run(traces).total_cycles
    assert a == b


# ---------------------------------------------------------------------------
# Cache inclusion (LRU stack property)
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2047), min_size=1, max_size=300))
def test_lru_fully_associative_inclusion(addresses):
    """A larger fully-associative LRU cache never misses more (the
    classic stack-algorithm inclusion property)."""
    def misses(size_bytes):
        cache = Cache(CacheConfig(size_bytes=size_bytes, line_bytes=16,
                                  associativity=0))
        for addr in addresses:
            if not cache.lookup(addr, is_write=False):
                cache.insert(addr, LineState.SHARED)
        return cache.stats.misses

    assert misses(256) >= misses(512) >= misses(1024)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 4095), min_size=1, max_size=200))
def test_cache_miss_count_bounds(addresses):
    """Misses are at least the number of distinct lines (cold) and at
    most the number of accesses."""
    cache = Cache(CacheConfig(size_bytes=512, line_bytes=32,
                              associativity=2))
    for addr in addresses:
        if not cache.lookup(addr, is_write=False):
            cache.insert(addr, LineState.SHARED)
    distinct_lines = len({a // 32 for a in addresses})
    assert distinct_lines <= cache.stats.misses + cache.stats.hits
    assert cache.stats.misses >= min(distinct_lines, 1)
    assert cache.stats.misses <= len(addresses)


# ---------------------------------------------------------------------------
# Compute conservation
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.floats(1.0, 10_000.0), max_size=6),
                min_size=4, max_size=4))
def test_compute_cycles_conserved(task_lists):
    """The network model charges exactly the compute cycles it is fed."""
    machine = _machine("mesh", (2, 2), "store_and_forward")
    streams = [[compute(d) for d in tasks] for tasks in task_lists]
    net = MultiNodeModel(machine)
    res = net.run(streams)
    for i, tasks in enumerate(task_lists):
        assert res.activity[i].compute_cycles == pytest.approx(sum(tasks))
    assert res.total_cycles == pytest.approx(
        max((sum(t) for t in task_lists), default=0.0))


# ---------------------------------------------------------------------------
# Sweep variant-generation laws (vary_machine)
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.5, 64.0), min_size=1, max_size=10))
def test_vary_machine_base_never_mutated(bandwidths):
    """The base config is untouched no matter how many variants spawn."""
    from repro import generic_multicomputer, vary_machine
    base = generic_multicomputer("mesh", (2, 2))
    snapshot = base.to_dict()
    vary_machine(base,
                 lambda m, v: setattr(m.network, "link_bandwidth", v),
                 bandwidths)
    assert base.to_dict() == snapshot


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.5, 64.0), min_size=1, max_size=10))
def test_vary_machine_one_valid_variant_per_value(bandwidths):
    """Variant count equals value count; every variant validates and
    carries its own value, independent of its siblings."""
    from repro import generic_multicomputer, vary_machine
    base = generic_multicomputer("mesh", (2, 2))
    variants = vary_machine(
        base, lambda m, v: setattr(m.network, "link_bandwidth", v),
        bandwidths)
    assert len(variants) == len(bandwidths)
    for machine, value in zip(variants, bandwidths):
        machine.validate()
        assert machine.network.link_bandwidth == value
    assert len({id(m) for m in variants}) == len(variants)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from([4, 8, 16, 32, 64, 128]),
                min_size=1, max_size=8))
def test_vary_machine_structural_mutations_validate(kib_sizes):
    """Cache-geometry mutations re-validate per variant and never leak
    into the base or each other."""
    from repro import generic_multicomputer, vary_machine

    def set_l1(machine, kib):
        machine.node.cache_levels[0].data.size_bytes = kib * 1024

    base = generic_multicomputer("mesh", (2, 2))
    original = base.node.cache_levels[0].data.size_bytes
    variants = vary_machine(base, set_l1, kib_sizes)
    assert base.node.cache_levels[0].data.size_bytes == original
    assert [m.node.cache_levels[0].data.size_bytes
            for m in variants] == [k * 1024 for k in kib_sizes]


# ---------------------------------------------------------------------------
# Copy semantics of a machine (MachineConfig.__deepcopy__, Sweep.points)
# ---------------------------------------------------------------------------

def _mutables(obj, found=None) -> dict:
    """id -> object of every dataclass, dict and list reachable from obj."""
    found = {} if found is None else found
    if id(obj) in found:
        return found
    if dataclasses.is_dataclass(obj):
        found[id(obj)] = obj
        children = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    elif isinstance(obj, dict):
        found[id(obj)] = obj
        children = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        if isinstance(obj, list):
            found[id(obj)] = obj
        children = list(obj)
    else:
        return found
    for child in children:
        _mutables(child, found)
    return found


@dataclass
class TaggedMachine(MachineConfig):
    """A subclass with a field of its own (a mutable one)."""

    tags: dict = field(default_factory=lambda: {"owner": ["lab"]})


def test_deepcopy_equals_its_source_and_shares_nothing_mutable():
    from repro.cli import PRESETS
    for name, factory in sorted(PRESETS.items()):
        machine = factory()
        clone = copy.deepcopy(machine)
        # to_dict spells ArithType keys by name, so it also holds the
        # key types (an IntEnum key compares equal to its int).
        assert clone == machine and clone.to_dict() == machine.to_dict(), name
        assert not set(_mutables(clone)) & set(_mutables(machine)), name


def test_deepcopy_keeps_aliasing_like_generic_deepcopy():
    """A level whose ``instr`` is its ``data`` object stays aliased, as
    the generic ``copy.deepcopy`` of the level alone keeps it."""
    from repro import generic_multicomputer, vary_machine
    base = generic_multicomputer("mesh", (2, 2))
    level = base.node.cache_levels[0]
    level.instr = level.data
    generic = copy.deepcopy(level)       # not a MachineConfig: generic path
    assert generic.instr is generic.data
    for clone in (copy.deepcopy(base),
                  vary_machine(base, lambda m, v: None, [0])[0]):
        copied = clone.node.cache_levels[0]
        assert copied.instr is copied.data
        assert copied.data is not level.data


def test_deepcopy_of_a_subclass_copies_its_own_fields():
    machine = TaggedMachine(name="tagged")
    clone = copy.deepcopy(machine)
    assert type(clone) is TaggedMachine and clone == machine
    assert list(clone.to_dict()) == ["name", "node", "network", "tags"]
    assert clone.tags is not machine.tags
    assert clone.tags["owner"] is not machine.tags["owner"]
    clone.tags["owner"].append("other")
    assert machine.tags == {"owner": ["lab"]}


def test_to_dict_encodes_every_sequence_as_a_list():
    """Tuples and dict/list/tuple subclasses encode as plain dicts and
    lists, as they always have (the cache key cannot tell them apart)."""
    class Tags(dict):
        pass

    pair = collections.namedtuple("pair", "a b")
    machine = TaggedMachine(tags=Tags(owner=pair(1, [2]), seen=(ArithType.INT,)))
    encoded = machine.to_dict()
    assert type(encoded["network"]["topology"]["dims"]) is list
    assert type(encoded["tags"]) is dict
    assert encoded["tags"] == {"owner": [1, [2]], "seen": [ArithType.INT]}
    clone = copy.deepcopy(machine)
    assert type(clone.tags) is Tags and clone.tags == machine.tags
    assert clone.tags["owner"].b is not machine.tags["owner"].b


#: axis path -> values it may take (every combination validates)
_AXIS_VALUES = {
    "network.link_bandwidth": st.floats(0.5, 64.0),
    "network.packet_bytes": st.sampled_from([64, 128, 256, 512]),
    "network.switching": st.sampled_from(
        ["store_and_forward", "virtual_cut_through", "wormhole"]),
    "node.memory.access_cycles": st.floats(0.0, 100.0),
}


@st.composite
def _sweep_axes(draw):
    paths = draw(st.lists(st.sampled_from(sorted(_AXIS_VALUES)),
                          min_size=1, max_size=3, unique=True))
    return [(path, draw(st.lists(_AXIS_VALUES[path], min_size=1,
                                 max_size=3)))
            for path in paths]


def _nested_points(base, axes):
    """The construction ``Sweep.points`` replaced: one deep copy per
    point per axis level."""
    def mutated(machine, mutator, value):
        variant = copy.deepcopy(machine)
        mutator(variant, value)
        return variant

    points = [({}, copy.deepcopy(base))]
    for name, mutator, values in axes:
        points = [({**coords, name: value}, mutated(machine, mutator, value))
                  for coords, machine in points for value in values]
    return points


@settings(max_examples=30, deadline=None)
@given(_sweep_axes())
def test_sweep_points_match_the_nested_construction(axes):
    """Same point order, same coordinate dicts (key order included),
    same machines; and a variant's nested dict is its own."""
    from repro import Sweep, generic_multicomputer
    from repro.core.experiment import _AxisSetter
    base = generic_multicomputer("mesh", (2, 2))
    snapshot = base.to_dict()
    axes = [(path, _AxisSetter(path), values) for path, values in axes]
    sweep = Sweep(base)
    for axis in axes:
        sweep.axis(*axis)
    points = sweep.points()
    expected = _nested_points(base, axes)
    assert [list(coords.items()) for coords, _ in points] == \
        [list(coords.items()) for coords, _ in expected]
    assert [machine for _, machine in points] == \
        [machine for _, machine in expected]

    points[0][1].node.cpu.add_cycles[ArithType.INT] = -1.0
    assert base.to_dict() == snapshot
    assert all(machine.node.cpu.add_cycles[ArithType.INT] ==
               base.node.cpu.add_cycles[ArithType.INT]
               for _, machine in points[1:])
