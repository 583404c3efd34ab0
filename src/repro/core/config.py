"""Machine parameterization — the workbench's design-space knobs.

"Every model has a set of machine parameters that is calibrated with
published information or by benchmarking" (Section 3).  All tunable
aspects of the single-node computational template (Fig 3a) and the
multi-node communication template (Fig 3b) are collected here as plain
dataclasses, so an architecture variant is *data*, never code.

All latencies are expressed in CPU **cycles**; ``CPUConfig.clock_hz``
converts simulated cycles to seconds for reporting.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional

from ..operations.optypes import ArithType

__all__ = [
    "CPUConfig", "CacheConfig", "CacheLevelConfig", "BusConfig",
    "MemoryConfig", "NodeConfig", "TopologyConfig", "NetworkConfig",
    "MachineConfig", "ConfigError",
]


class ConfigError(ValueError):
    """An inconsistent or out-of-range machine parameter."""


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


# -- the config walkers -------------------------------------------------------
#
# ``to_dict`` (whose output is the cache key's machine half) and
# ``__deepcopy__`` (one per sweep point) visit every node of a config.
# Both look each node's class up in one table of dataclass field names,
# filled on first use (one entry per class ever seen), instead of
# asking ``dataclasses`` about every node of every config.

#: leaf types ``copy.deepcopy`` shares rather than copies (exact types)
_ATOMIC = frozenset({str, int, float, bool, complex, bytes, type(None)})


@functools.cache
def _field_names(cls: type) -> Optional[tuple[str, ...]]:
    """The field names of dataclass ``cls`` in declaration order, or
    ``None`` when ``cls`` is not a dataclass."""
    try:
        return tuple(f.name for f in dataclasses.fields(cls))
    except TypeError:
        return None


def _encode(obj: Any) -> Any:
    """Dataclasses become field-ordered dicts, sequences lists and
    :class:`ArithType` keys their names; anything else is kept."""
    if type(obj) in _ATOMIC:
        return obj
    names = _field_names(type(obj))
    if names is not None:
        return {name: _encode(getattr(obj, name)) for name in names}
    if isinstance(obj, dict):
        return {(k.name if isinstance(k, ArithType) else k): _encode(v)
                for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    return obj


def _deepcopy(obj: Any, memo: dict[int, Any]) -> Any:
    """``copy.deepcopy(obj, memo)``, walking dataclasses, dicts and lists
    itself.  Immutable leaves (tuples of them included) are shared, as
    ``copy.deepcopy`` shares them; ``memo`` keeps aliasing; every other
    object is handed to ``copy.deepcopy``."""
    cls = type(obj)
    if cls in _ATOMIC or isinstance(obj, Enum):
        return obj
    if cls is tuple and all(type(v) in _ATOMIC for v in obj):
        return obj
    if id(obj) in memo:
        return memo[id(obj)]
    if _field_names(cls) is not None and hasattr(obj, "__dict__"):
        # What copy.deepcopy does with a plain instance, minus the
        # reduce protocol: a blank instance, then its attributes.
        new = cls.__new__(cls)
        memo[id(obj)] = new
        attrs = new.__dict__
        for name, value in obj.__dict__.items():
            attrs[name] = _deepcopy(value, memo)
        return new
    if cls is dict:
        new_dict: dict = {}
        memo[id(obj)] = new_dict
        for key, value in obj.items():
            new_dict[_deepcopy(key, memo)] = _deepcopy(value, memo)
        return new_dict
    if cls is list:
        new_list: list = []
        memo[id(obj)] = new_list
        new_list.extend(_deepcopy(value, memo) for value in obj)
        return new_list
    return copy.deepcopy(obj, memo)


@dataclass
class CPUConfig:
    """Microprocessor parameters: per-operation costs in cycles.

    The CPU "supports the operation set described in section 3.3"; its
    parameters are simply the cycle cost of each abstract instruction
    class.  Memory operations additionally pay the cache/bus/memory
    latency determined by the rest of the node model.
    """

    name: str = "generic-cpu"
    clock_hz: float = 100e6
    #: cycles per arithmetic op, keyed by :class:`ArithType`.
    add_cycles: dict[ArithType, float] = field(default_factory=lambda: {
        ArithType.INT: 1.0, ArithType.FLOAT: 2.0, ArithType.DOUBLE: 2.0})
    sub_cycles: dict[ArithType, float] = field(default_factory=lambda: {
        ArithType.INT: 1.0, ArithType.FLOAT: 2.0, ArithType.DOUBLE: 2.0})
    mul_cycles: dict[ArithType, float] = field(default_factory=lambda: {
        ArithType.INT: 4.0, ArithType.FLOAT: 4.0, ArithType.DOUBLE: 5.0})
    div_cycles: dict[ArithType, float] = field(default_factory=lambda: {
        ArithType.INT: 20.0, ArithType.FLOAT: 18.0, ArithType.DOUBLE: 32.0})
    loadc_cycles: float = 1.0
    branch_cycles: float = 2.0
    call_cycles: float = 3.0
    ret_cycles: float = 3.0
    #: issue cost of a load/store before any memory-hierarchy latency.
    load_issue_cycles: float = 1.0
    store_issue_cycles: float = 1.0

    def validate(self) -> None:
        if self.clock_hz <= 0:
            raise ConfigError(f"clock_hz must be positive, got {self.clock_hz}")
        for table_name in ("add_cycles", "sub_cycles", "mul_cycles",
                           "div_cycles"):
            table = getattr(self, table_name)
            for at in ArithType:
                if at not in table:
                    raise ConfigError(f"{self.name}: {table_name} missing {at.name}")
                if table[at] < 0:
                    raise ConfigError(f"{self.name}: negative {table_name}[{at.name}]")
        for attr in ("loadc_cycles", "branch_cycles", "call_cycles",
                     "ret_cycles", "load_issue_cycles", "store_issue_cycles"):
            if getattr(self, attr) < 0:
                raise ConfigError(f"{self.name}: negative {attr}")


@dataclass
class CacheConfig:
    """One cache in the hierarchy (tags only are simulated; never data)."""

    name: str = "L1"
    size_bytes: int = 32 * 1024
    line_bytes: int = 32
    associativity: int = 4          # 0 = fully associative
    hit_cycles: float = 1.0
    write_policy: str = "write-back"       # or "write-through"
    write_allocate: bool = True
    replacement: str = "lru"               # "lru" | "fifo" | "random"

    @property
    def n_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def n_sets(self) -> int:
        assoc = self.associativity if self.associativity else self.n_lines
        return self.n_lines // assoc

    def validate(self) -> None:
        if not _is_pow2(self.line_bytes):
            raise ConfigError(f"{self.name}: line_bytes must be a power of two")
        if self.size_bytes <= 0 or self.size_bytes % self.line_bytes:
            raise ConfigError(
                f"{self.name}: size_bytes must be a positive multiple of "
                f"line_bytes")
        assoc = self.associativity if self.associativity else self.n_lines
        if assoc <= 0 or self.n_lines % assoc:
            raise ConfigError(
                f"{self.name}: associativity {self.associativity} does not "
                f"divide {self.n_lines} lines")
        if not _is_pow2(self.n_sets):
            raise ConfigError(f"{self.name}: number of sets must be a power of two")
        if self.write_policy not in ("write-back", "write-through"):
            raise ConfigError(f"{self.name}: unknown write policy "
                              f"{self.write_policy!r}")
        if self.replacement not in ("lru", "fifo", "random"):
            raise ConfigError(f"{self.name}: unknown replacement "
                              f"{self.replacement!r}")
        if self.hit_cycles < 0:
            raise ConfigError(f"{self.name}: negative hit_cycles")


@dataclass
class CacheLevelConfig:
    """One level of the hierarchy: unified, or split I/D at level 1.

    ``instr is None`` means the level is unified (the ``data`` cache
    serves instruction fetches too).
    """

    data: CacheConfig = field(default_factory=CacheConfig)
    instr: Optional[CacheConfig] = None

    @property
    def split(self) -> bool:
        return self.instr is not None

    def validate(self) -> None:
        self.data.validate()
        if self.instr is not None:
            self.instr.validate()


@dataclass
class BusConfig:
    """The node bus: "a simple forwarding mechanism, carrying out
    arbitration upon multiple accesses"."""

    width_bytes: int = 8
    cycles_per_beat: float = 1.0      # cycles to move width_bytes once granted
    arbitration_cycles: float = 1.0   # per grant
    snoop_cycles: float = 1.0         # snoop-response time (coherent nodes)

    def transfer_cycles(self, nbytes: int) -> float:
        """Bus occupancy to move ``nbytes`` (excluding arbitration)."""
        beats = -(-max(nbytes, 1) // self.width_bytes)   # ceil
        return beats * self.cycles_per_beat

    def validate(self) -> None:
        if self.width_bytes <= 0:
            raise ConfigError("bus width_bytes must be positive")
        if self.cycles_per_beat <= 0:
            raise ConfigError("bus cycles_per_beat must be positive")
        if self.arbitration_cycles < 0:
            raise ConfigError("bus arbitration_cycles must be >= 0")


@dataclass
class MemoryConfig:
    """A simple DRAM model: fixed access latency plus per-line streaming."""

    access_cycles: float = 20.0       # first-word latency
    cycles_per_word: float = 2.0      # subsequent words of a line fill
    word_bytes: int = 8

    def line_fill_cycles(self, line_bytes: int) -> float:
        """Latency to read one cache line from DRAM."""
        words = -(-line_bytes // self.word_bytes)
        return self.access_cycles + max(words - 1, 0) * self.cycles_per_word

    def validate(self) -> None:
        if self.access_cycles < 0 or self.cycles_per_word < 0:
            raise ConfigError("memory latencies must be >= 0")
        if self.word_bytes <= 0:
            raise ConfigError("memory word_bytes must be positive")


@dataclass
class NodeConfig:
    """The single-node computational template (Fig 3a).

    ``n_cpus > 1`` models a shared-memory node: the CPUs share the cache
    hierarchy's lower levels and the bus, with private split/unified L1s
    kept coherent by a snoopy protocol (Section 4.1 / 4.3).
    """

    cpu: CPUConfig = field(default_factory=CPUConfig)
    cache_levels: list[CacheLevelConfig] = field(default_factory=list)
    bus: BusConfig = field(default_factory=BusConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    n_cpus: int = 1
    coherence: str = "mesi"                # "msi" | "mesi" (multi-CPU only)
    #: "snoopy" broadcasts on the shared bus; "directory" (Section 4.1's
    #: "other strategies, like directory schemes") tracks sharers at the
    #: memory side and sends targeted invalidations.
    coherence_style: str = "snoopy"
    #: directory lookup latency per request (directory style only).
    directory_lookup_cycles: float = 2.0
    #: interconnect between CPUs and memory: "bus" (one transaction at a
    #: time) or "crossbar" (Section 4.1's "more complex structure, such
    #: as a multistage network": one port per CPU plus a memory port).
    fabric: str = "bus"

    def validate(self) -> None:
        self.cpu.validate()
        for lvl in self.cache_levels:
            lvl.validate()
        self.bus.validate()
        self.memory.validate()
        if self.n_cpus < 1:
            raise ConfigError(f"n_cpus must be >= 1, got {self.n_cpus}")
        if self.coherence not in ("msi", "mesi"):
            raise ConfigError(f"unknown coherence protocol {self.coherence!r}")
        if self.coherence_style not in ("snoopy", "directory"):
            raise ConfigError(
                f"unknown coherence style {self.coherence_style!r}")
        if self.fabric not in ("bus", "crossbar"):
            raise ConfigError(f"unknown node fabric {self.fabric!r}")
        if self.coherence_style == "snoopy" and self.fabric != "bus":
            raise ConfigError(
                "snoopy coherence needs a broadcast medium: use the bus "
                "fabric, or switch to the directory style")
        if self.directory_lookup_cycles < 0:
            raise ConfigError("directory_lookup_cycles must be >= 0")
        if self.n_cpus > 1 and not self.cache_levels:
            raise ConfigError(
                "a multi-CPU node needs at least one cache level (private "
                "L1s) for the coherence protocol to act on")


@dataclass
class TopologyConfig:
    """Physical interconnect shape (Section 4.2: "the nodes are
    connected in a topology reflecting the physical interconnect")."""

    kind: str = "mesh"           # mesh|torus|hypercube|ring|star|tree|full
    dims: tuple[int, ...] = (2, 2)   # mesh/torus extents; (n,) for ring etc.

    def validate(self) -> None:
        known = ("mesh", "torus", "hypercube", "ring", "star", "tree",
                 "fat_tree", "full")
        if self.kind not in known:
            raise ConfigError(f"unknown topology kind {self.kind!r}")
        if not self.dims or any(d < 1 for d in self.dims):
            raise ConfigError(f"bad topology dims {self.dims}")


@dataclass
class NetworkConfig:
    """The multi-node communication template (Fig 3b)."""

    topology: TopologyConfig = field(default_factory=TopologyConfig)
    routing: str = "dimension_order"       # or "shortest_path"
    switching: str = "wormhole"            # store_and_forward |
    #                                        virtual_cut_through | wormhole
    link_bandwidth: float = 4.0            # bytes per cycle per link
    link_latency: float = 1.0              # wire cycles per hop
    packet_bytes: int = 256                # max payload per packet
    header_bytes: int = 8
    flit_bytes: int = 8                    # wormhole flit size
    routing_cycles: float = 2.0            # routing decision per router
    send_overhead: float = 100.0           # NIC software cycles per message
    recv_overhead: float = 100.0
    channel_buffers: int = 4               # input buffer (packets) per channel

    def validate(self) -> None:
        self.topology.validate()
        if self.routing not in ("dimension_order", "shortest_path",
                                "random_minimal"):
            raise ConfigError(f"unknown routing {self.routing!r}")
        if self.routing == "random_minimal" and self.switching == "wormhole":
            raise ConfigError(
                "random_minimal (adaptive) routing can deadlock wormhole "
                "switching (non-ordered channel dependencies); use "
                "store_and_forward or virtual_cut_through")
        if self.switching not in ("store_and_forward", "virtual_cut_through",
                                  "wormhole"):
            raise ConfigError(f"unknown switching {self.switching!r}")
        if self.link_bandwidth <= 0:
            raise ConfigError("link_bandwidth must be positive")
        if self.link_latency < 0:
            raise ConfigError("link_latency must be >= 0")
        if self.packet_bytes <= 0 or self.header_bytes < 0:
            raise ConfigError("bad packet/header size")
        if self.flit_bytes <= 0:
            raise ConfigError("flit_bytes must be positive")
        if self.routing_cycles < 0 or self.send_overhead < 0 \
                or self.recv_overhead < 0:
            raise ConfigError("overheads must be >= 0")
        if self.channel_buffers < 1:
            raise ConfigError("channel_buffers must be >= 1")


@dataclass
class MachineConfig:
    """A complete multicomputer: replicated nodes plus the interconnect."""

    name: str = "machine"
    node: NodeConfig = field(default_factory=NodeConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)

    def validate(self) -> "MachineConfig":
        self.node.validate()
        self.network.validate()
        return self

    @property
    def n_nodes(self) -> int:
        from ..topology import node_count
        return node_count(self.network.topology)

    def __deepcopy__(self, memo: dict[int, Any]) -> "MachineConfig":
        # A MachineConfig has a __dict__, so the walker copies it itself
        # and never hands it back to copy.deepcopy.
        return _deepcopy(self, memo)

    # -- serialization (experiment records) ------------------------------

    def to_dict(self) -> dict[str, Any]:
        # Key order and values are the cache key's: keep them
        # byte-identical (tests/golden/result_keys.json).
        return _encode(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MachineConfig":
        def arith_table(d: dict) -> dict[ArithType, float]:
            return {ArithType[k] if isinstance(k, str) else ArithType(k): v
                    for k, v in d.items()}

        cpu_d = dict(data["node"]["cpu"])
        for key in ("add_cycles", "sub_cycles", "mul_cycles", "div_cycles"):
            cpu_d[key] = arith_table(cpu_d[key])
        cpu = CPUConfig(**cpu_d)
        levels = []
        for lvl in data["node"]["cache_levels"]:
            instr = CacheConfig(**lvl["instr"]) if lvl["instr"] else None
            levels.append(CacheLevelConfig(data=CacheConfig(**lvl["data"]),
                                           instr=instr))
        node_extra = {k: v for k, v in data["node"].items()
                      if k not in ("cpu", "cache_levels", "bus", "memory")}
        node = NodeConfig(
            cpu=cpu, cache_levels=levels,
            bus=BusConfig(**data["node"]["bus"]),
            memory=MemoryConfig(**data["node"]["memory"]),
            **node_extra)
        net_d = dict(data["network"])
        topo_d = dict(net_d.pop("topology"))
        topo_d["dims"] = tuple(topo_d["dims"])
        network = NetworkConfig(topology=TopologyConfig(**topo_d), **net_d)
        return cls(name=data["name"], node=node, network=network).validate()
