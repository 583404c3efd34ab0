"""Job plans: the one definition of each kind of job ``repro`` runs.

A request is a JSON object: a job ``kind`` and its fields.
:data:`JOB_KINDS` has one :class:`JobKind` per kind (``sweep``,
``chaos``): its fields with their single defaults, the flags that set
them (shared by ``repro <kind>`` and ``repro submit <kind>``) and the
``plan(request)`` that runs it.  ``repro <kind>`` runs that plan in
process, ``repro submit <kind>`` posts the same request and the service
plans it with the same row, so a request means the same job, and gives
the same rows, on both front doors.  Also here: what plans are made of
(:data:`PRESETS`, :func:`build_machine`, the sweep point runner).  The
names a request carries resolve in their owners: bundled apps in
:func:`repro.apps.task_app`, sweep workloads and the sweep cache id in
:mod:`repro.tracegen`.  Bad input raises a one-line ``SystemExit``, or
the ``ValueError`` of the owner of a bad name.
"""

from __future__ import annotations

import argparse
import functools
import json
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional, Sequence

from .config import ConfigError, MachineConfig
from .core.experiment import Sweep, _AxisSetter
from .core.workbench import Workbench
from .machines import generic_multicomputer, powerpc601_node, smp_node, t805_grid
from .tracegen import (
    WORKLOAD_CLASSES,
    stochastic_task_traces,
    sweep_workload_id,
    workload_description,
)

__all__ = ["JOB_KINDS", "PRESETS", "REQUIRED", "Field", "JobKind", "Plan",
           "apply_override", "build_machine", "plan_sweep"]


def _fattree() -> MachineConfig:
    machine = generic_multicomputer("mesh", (2, 2))
    machine.network.topology.kind = "fat_tree"
    machine.network.topology.dims = (2, 4)
    machine.network.routing = "shortest_path"
    machine.name = "generic-fattree2x4"
    return machine.validate()


PRESETS: dict[str, Callable[[], MachineConfig]] = {
    "t805-grid": lambda: t805_grid(4, 4),
    "t805-grid-2x2": lambda: t805_grid(2, 2),
    "powerpc601": powerpc601_node,
    "generic-mesh": lambda: generic_multicomputer("mesh", (4, 4)),
    "generic-hypercube": lambda: generic_multicomputer("hypercube", (4,)),
    "generic-fattree": _fattree,
    "smp4": lambda: smp_node(4),
}


def _resolve_path(machine: MachineConfig, path: str) -> tuple[Any, str]:
    """Walk a ``dotted.path`` into the config; return (target, leaf)."""
    *parents, leaf = path.split(".")
    try:
        target: Any = functools.reduce(getattr, parents, machine)
        getattr(target, leaf)
    except AttributeError:
        raise SystemExit(f"unknown config path {path!r}")
    return target, leaf


def _parse_value(current: object, raw: str) -> object:
    """Parse ``raw`` to the type of the attribute's current value."""
    if isinstance(current, bool):
        return raw.lower() in ("1", "true", "yes")
    if isinstance(current, int):
        return int(raw)
    if isinstance(current, float):
        return float(raw)
    if isinstance(current, tuple):
        return tuple(int(x) for x in raw.split(","))
    return raw


def _split_spec(spec: str) -> tuple[str, str]:
    try:
        path, raw = spec.split("=", 1)
    except ValueError:
        raise SystemExit(f"bad override {spec!r}; expected key=value")
    return path, raw


def apply_override(machine: MachineConfig, spec: str) -> None:
    """Apply one ``dotted.path=value`` override onto the config."""
    path, raw = _split_spec(spec)
    target, leaf = _resolve_path(machine, path)
    setattr(target, leaf, _parse_value(getattr(target, leaf), raw))


def build_machine(preset: str, overrides: Sequence[str] = ()) -> MachineConfig:
    """Instantiate a preset and apply ``key=value`` overrides."""
    try:
        machine = PRESETS[preset]()
    except KeyError:
        raise SystemExit(
            f"unknown preset {preset!r}; choose from: "
            + ", ".join(sorted(PRESETS)))
    for spec in overrides:
        apply_override(machine, spec)
    return machine.validate()


#: the traces every point of a sweep job runs: they depend on the
#: workload, node count, rounds and seed only, so a job's points share one
#: generation per process (one entry: a worker serves one job at a time).
#: Safe to share because a run reads its traces and never changes them.
_task_traces = functools.lru_cache(maxsize=1)(stochastic_task_traces)


def _sweep_point_runner(machine: MachineConfig, workload: Optional[str],
                        rounds: int, seed: int, faults: Any = None) -> dict:
    """Per-variant runner of a sweep job (module-level: picklable):
    ``Workbench.run_stochastic`` at the task level, on traces shared
    across the job's points."""
    bench = Workbench(machine, faults=faults)
    res = bench.run_comm_only(_task_traces(workload, bench.n_nodes, rounds,
                                           seed))
    row = {
        "total_cycles": res.total_cycles,
        "mean_latency": res.message_latency.mean,
        "time_ms": res.total_cycles / machine.node.cpu.clock_hz * 1e3,
        "events": res.events_executed,
    }
    if res.fault_summary is not None:
        row["dropped"] = res.fault_summary["dropped"]
        row["retransmissions"] = res.retransmissions
        row["delivery_failed"] = res.delivery_failures
    return row


def plan_sweep(preset: str, overrides: Sequence[str], axes: Sequence[str],
               *, workload: Optional[str], rounds: int, seed: int
               ) -> tuple[Sweep, Callable[..., dict], str]:
    """``(sweep, runner, workload_id)`` of a sweep study.

    The one place ``PATH=v1,v2`` axis specs become a
    :class:`~repro.core.experiment.Sweep`, the point runner is bound
    and the cache workload id is spelled.
    """
    machine = build_machine(preset, overrides)
    sweep = Sweep(machine, label=preset)
    for spec in axes:
        path, raw = _split_spec(spec)
        target, leaf = _resolve_path(machine, path)
        current = getattr(target, leaf)
        try:
            values = [_parse_value(current, v) for v in raw.split(",")]
        except ValueError as exc:
            raise SystemExit(f"bad axis value in {spec!r}: {exc}")
        try:
            sweep.axis(path, _AxisSetter(path), values)
        except ValueError as exc:
            raise SystemExit(f"bad axis {spec!r}: {exc}")
    runner = functools.partial(_sweep_point_runner, workload=workload,
                               rounds=rounds, seed=seed)
    return sweep, runner, sweep_workload_id(workload, rounds, seed)


# -- the job-kind table -----------------------------------------------------

class Plan(NamedTuple):
    """What runs one job: its ``(coords, machine, fault plan)`` points
    (unvalidated: the job body pre-flights them), the point runner, the
    cache workload id, and the spec a campaign's rows reduce with."""
    points: list[tuple[dict, MachineConfig, Any]]
    runner: Callable[..., dict]
    workload_id: Optional[str]
    campaign: Any


#: the default of a field every request must carry
REQUIRED: Any = ...


class Field:
    """One request field: its single default and the flag that sets it
    (``None``: a positional); ``options`` are the rest of
    ``add_argument``'s keywords.  A ``submit_only`` field is a job
    option, a flag of ``repro submit`` only.  A ``json_file`` flag names
    a JSON file and the request carries the file's content."""

    def __init__(self, name: str, default: Any, flag: Optional[str] = None,
                 *, submit_only: bool = False, json_file: str = "",
                 **options: Any) -> None:
        self.name, self.default, self.flag = name, default, flag
        self.submit_only, self.json_file = submit_only, json_file
        self.options = options


class JobKind(NamedTuple):
    """One row of :data:`JOB_KINDS`."""
    name: str
    fields: tuple[Field, ...]
    plan: Callable[[dict], Plan]

    def add_arguments(self, parser: argparse.ArgumentParser, *,
                      submit: bool) -> None:
        """The kind's flags; ``submit`` adds the job options."""
        for field in self.fields:
            if field.flag is None:
                parser.add_argument(field.name, **field.options)
            elif submit or not field.submit_only:
                required = field.default is REQUIRED
                parser.add_argument(
                    field.flag, dest=field.name, required=required,
                    default=None if required else field.default,
                    **field.options)

    def request_from_args(self, args: argparse.Namespace) -> dict[str, Any]:
        """The request a parsed ``repro [submit] <kind>`` stands for."""
        given = vars(args)
        request: dict[str, Any] = {"kind": self.name}
        for field in self.fields:
            if field.name not in given:   # a job option ``repro <kind>`` lacks
                continue
            value = given[field.name]
            if field.json_file and value is not None:
                try:
                    value = json.loads(Path(value).read_text())
                except (OSError, ValueError) as exc:
                    raise SystemExit(f"cannot read {field.json_file} "
                                     f"{value!r}: {exc}")
            request[field.name] = value
        return request


def _plan_sweep(request: dict) -> Plan:
    axes = request["axes"]
    if not isinstance(axes, (list, tuple)) or not axes:
        raise SystemExit("axes must be a non-empty list of "
                         "'dotted.path=v1,v2' strings")
    workload = request["workload"]
    workload_description(workload)   # a bad name fails the request, not rows
    from .faults import as_fault_plan
    sweep, runner, workload_id = plan_sweep(
        request["preset"], request["set"] or (), axes,
        workload=workload, rounds=request["rounds"],
        seed=request["seed"])
    faults = as_fault_plan(request["faults"])
    points = [(coords, machine, faults)
              for coords, machine in sweep.points(validate=False)]
    return Plan(points, runner, workload_id, None)


def _plan_chaos(request: dict) -> Plan:
    from .chaos.runner import AppCampaignRunner, campaign_points
    from .chaos.spec import as_campaign_spec

    runner = AppCampaignRunner(request["app"], size=request["size"],
                               repeats=request["repeats"])
    machine = build_machine(request["preset"], request["set"] or ())
    try:
        spec = as_campaign_spec(request["campaign"])
        points = campaign_points(spec, machine)
    except ConfigError as exc:
        raise SystemExit(f"bad campaign spec: {exc}")
    return Plan(points, runner, None, spec)


def _set(help_text: str) -> Field:
    return Field("set", [], "--set", action="append", metavar="PATH=VALUE",
                 help=help_text)


#: the job options of every kind
_JOB_OPTIONS = (
    Field("timeout_s", None, "--timeout", type=float, metavar="SECONDS",
          help="job wall-time budget", submit_only=True),
    Field("tenant", "default", "--tenant", submit_only=True),
    Field("lane", "normal", "--lane", choices=("high", "normal", "low"),
          submit_only=True),
)

JOB_KINDS: dict[str, JobKind] = {kind.name: kind for kind in (
    JobKind("sweep", (
        Field("preset", REQUIRED, choices=sorted(PRESETS)),
        Field("axes", REQUIRED, "--axis", action="append",
              metavar="PATH=V1,V2,...",
              help="sweep axis, e.g. network.link_bandwidth=1,2,4,8 "
                   "(repeat for a cross product)"),
        _set("fixed config override applied before sweeping"),
        Field("workload", None, "--workload", choices=sorted(WORKLOAD_CLASSES),
              help="workload-class preset (default: generic stochastic "
                   "description)"),
        Field("rounds", 30, "--rounds", type=int),
        Field("seed", 0, "--seed", type=int),
        Field("timing", False, "--timing", action="store_true",
              help="add a per-variant wall_time_s column "
                   "(nondeterministic; not cached)"),
        Field("faults", None, "--faults", metavar="PLAN.json",
              json_file="fault plan",
              help="fault-injection plan applied to every variant (see "
                   "repro.faults.FaultPlan; cache keys include the plan "
                   "digest)"),
        Field("on_error", "capture", "--on-error",
              choices=("capture", "raise"), submit_only=True),
        *_JOB_OPTIONS), _plan_sweep),
    JobKind("chaos", (
        Field("app", REQUIRED,
              help="bundled app: pingpong, alltoall or pipeline"),
        Field("campaign", REQUIRED, "--campaign", metavar="SPEC.json",
              json_file="campaign spec",
              help="campaign spec JSON (see repro.chaos.CampaignSpec: "
                   "base plan + generators + SLOs)"),
        Field("preset", "t805-grid-2x2", "--preset", choices=sorted(PRESETS),
              help="machine preset to run the campaign on"),
        _set("config override, e.g. network.switching=wormhole"),
        Field("size", 1024, "--size", type=int, metavar="BYTES",
              help="app message/block size (default %(default)s)"),
        Field("repeats", 4, "--repeats", type=int, metavar="N",
              help="app repeats/rounds/items (default %(default)s)"),
        *_JOB_OPTIONS), _plan_chaos),
)}
