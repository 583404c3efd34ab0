"""One definition per job kind (``repro.plans.JOB_KINDS``).

``repro <kind>`` and ``repro submit <kind>`` parse the same plan flags
with the same defaults, and the service fills an omitted request field
with that same default, so a job means the same thing on every front
door whichever fields it spells out.
"""

from __future__ import annotations

import argparse
import json

import pytest

from repro.cli import _parser
from repro.plans import JOB_KINDS
from repro.service import canonical_request

PRESET = "t805-grid-2x2"
AXIS = "network.link_bandwidth=2000000,4000000"


def subparser(*path: str) -> argparse.ArgumentParser:
    parser = _parser()
    for name in path:
        sub = next(action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction))
        parser = sub.choices[name]
    return parser


def arguments(parser: argparse.ArgumentParser) -> dict[str, tuple]:
    """dest -> everything that decides what a flag parses to."""
    return {action.dest: (tuple(action.option_strings), type(action),
                          action.default, action.type, action.choices,
                          action.required, action.nargs, action.metavar)
            for action in parser._actions}


@pytest.mark.parametrize("kind", ["sweep", "chaos"])
def test_both_front_doors_share_the_plan_flags(kind):
    local = arguments(subparser(kind))
    submit = arguments(subparser("submit", kind))
    shared = sorted((set(local) & set(submit)) - {"help"})
    assert shared == sorted(field.name for field in JOB_KINDS[kind].fields
                            if not field.submit_only)
    assert {dest: local[dest] for dest in shared} == {
        dest: submit[dest] for dest in shared}


@pytest.fixture
def files(tmp_path):
    spec = {"name": "demo", "generators": [
        {"kind": "severity_ladder", "name": "sev", "factors": [0, 1]}],
        "base": {"seed": 1, "link_faults": [{"drop_prob": 0.01}]}}
    plan = {"seed": 7, "link_faults": [{"drop_prob": 0.05}]}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    return {"spec": str(tmp_path / "spec.json"), "spec_doc": spec,
            "plan": str(tmp_path / "plan.json")}


def argv_cases(files) -> list[tuple[str, list[str], dict | None]]:
    """(kind, argv, the same job as a bare request or ``None``)."""
    return [
        ("sweep", [PRESET, "--axis", AXIS],
         {"kind": "sweep", "preset": PRESET, "axes": [AXIS]}),
        ("sweep", ["generic-mesh", "--axis", AXIS, "--axis",
                   "network.packet_bytes=256,512", "--rounds", "3",
                   "--seed", "4", "--workload", "stencil", "--set",
                   "network.topology.dims=2,2", "--timing",
                   "--faults", files["plan"]], None),
        ("chaos", ["pingpong", "--campaign", files["spec"]],
         {"kind": "chaos", "app": "pingpong",
          "campaign": files["spec_doc"]}),
        ("chaos", ["alltoall", "--campaign", files["spec"], "--preset",
                   "generic-mesh", "--size", "64", "--repeats", "2",
                   "--set", "network.topology.dims=2,2"], None),
    ]


def test_argv_means_one_request_on_both_front_doors(files):
    parser = _parser()
    for kind, argv, bare in argv_cases(files):
        job = JOB_KINDS[kind]
        local = job.request_from_args(parser.parse_args([kind, *argv]))
        submit = job.request_from_args(
            parser.parse_args(["submit", kind, *argv]))
        assert canonical_request(local) == canonical_request(submit), argv
        if bare is not None:      # omitted fields: the command's defaults
            assert canonical_request(bare) == canonical_request(local)


def test_local_and_served_plans_agree(files):
    """The request both doors build plans to the same points, runner
    and workload id (the service plans the canonical request)."""
    parser = _parser()
    for kind, argv, _bare in argv_cases(files):
        job = JOB_KINDS[kind]
        local = job.plan(job.request_from_args(parser.parse_args(
            [kind, *argv])))
        served = job.plan(canonical_request(job.request_from_args(
            parser.parse_args(["submit", kind, *argv]))))
        assert [coords for coords, _, _ in local.points] == [
            coords for coords, _, _ in served.points]
        assert [machine.to_dict() for _, machine, _ in local.points] == [
            machine.to_dict() for _, machine, _ in served.points]
        assert repr(local.runner) == repr(served.runner)
        assert local.workload_id == served.workload_id


def test_unreadable_request_file_is_a_clean_error(tmp_path):
    with pytest.raises(SystemExit, match="cannot read fault plan"):
        JOB_KINDS["sweep"].request_from_args(_parser().parse_args(
            ["sweep", PRESET, "--axis", AXIS,
             "--faults", str(tmp_path / "missing.json")]))


# -- a sweep job's points share one trace generation --------------------------

#: every switching discipline, two link speeds: six points, one trace key
SWITCHED_AXES = ["network.switching=store_and_forward,virtual_cut_through,"
                 "wormhole", AXIS]


def _fresh_traces_point(machine, **kwargs):
    """The sweep point runner with its traces generated afresh, as every
    point did before they were shared."""
    from repro.plans import _sweep_point_runner, _task_traces
    _task_traces.cache_clear()
    return _sweep_point_runner(machine, **kwargs)


@pytest.mark.parametrize("faulty", [False, True], ids=["clean", "faults"])
def test_shared_traces_give_the_rows_of_fresh_ones(faulty):
    """Rows are byte-identical whether each point generates its traces
    or takes the job's shared ones, on every switching discipline, with
    and without a fault plan, serial and on two workers; and a fresh
    point is ``Workbench.run_stochastic``'s run."""
    import functools

    from repro.core.workbench import Workbench
    from repro.faults import FaultPlan, LinkFault, TransportConfig
    from repro.plans import plan_sweep
    from repro.tracegen import StochasticAppDescription

    faults = FaultPlan(seed=7, link_faults=[LinkFault(drop_prob=0.02)],
                       transport=TransportConfig(
                           timeout_cycles=50_000.0, backoff_factor=1.0,
                           max_retries=60)) if faulty else None
    sweep, runner, workload_id = plan_sweep(
        PRESET, (), SWITCHED_AXES, workload=None, rounds=2, seed=3)
    fresh = sweep.run(functools.partial(_fresh_traces_point, **runner.keywords),
                      workload_id=workload_id, faults=faults)
    assert len(fresh) == 6 and not any("error" in row for row in fresh)
    assert {row["network.switching"] for row in fresh} == {
        "store_and_forward", "virtual_cut_through", "wormhole"}
    if faulty:
        assert all("retransmissions" in row for row in fresh)
    for row, (_, machine) in zip(fresh, sweep.points()):
        res = Workbench(machine, faults=faults).run_stochastic(
            StochasticAppDescription(), rounds=2, seed=3)
        assert (row["total_cycles"], row["events"]) == (
            res.total_cycles, res.events_executed)
    want = json.dumps(fresh, sort_keys=True)
    for workers in (1, 2):
        shared = sweep.run(runner, workers=workers, workload_id=workload_id,
                           faults=faults)
        assert json.dumps(shared, sort_keys=True) == want, workers


def test_the_trace_memo_holds_one_entry():
    from repro.plans import _task_traces
    _task_traces.cache_clear()
    first = _task_traces(None, 4, 2, 0)
    assert _task_traces(None, 4, 2, 0) is first
    _task_traces("stencil", 4, 2, 0)
    info = _task_traces.cache_info()
    assert (info.currsize, info.maxsize) == (1, 1)
    assert _task_traces(None, 4, 2, 0) is not first
