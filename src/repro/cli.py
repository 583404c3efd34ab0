"""Command-line interface: ``python -m repro <command>``.

A thin operational layer over the workbench for the no-code-needed
tasks.  Each command describes itself in its parser (``repro --help``,
``repro <command> --help``): preset study (``info``, ``calibrate``,
``slowdown``, ``stochastic``), design-space and paper runs (``sweep``,
``reproduce``, ``chaos``), static analysis (``check``, ``lint``,
``bound``), schedule verification (``verify``), observation (``trace``,
``stats``) and the job service (``serve``, ``submit``, ``status``,
``fetch``).

Every name a command takes resolves in one owner: a machine is a preset
of :data:`repro.plans.PRESETS` with ``--set key=value`` overrides, a
bundled app goes through :func:`repro.apps.task_app` (``examples/<app>.py``
accepted), a stochastic workload through :mod:`repro.tracegen`, and a
saved trace set through :func:`_app_or_trace_set`.  A bad name, path or
value exits with one line, never a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, Optional, Sequence, TextIO

from .analysis import (
    SlowdownMeter,
    comm_report,
    format_table,
    trace_set_profile,
)
from .config import ConfigError
from .core.experiment import _AxisSetter  # noqa: F401 - benchmarks/layered; ROADMAP 1(c)
from .core.workbench import Workbench
from .machines import calibrate as run_calibration
from .operations.trace import TraceSet
from .plans import _sweep_point_runner  # noqa: F401 - benchmarks/layered; ROADMAP 1(c)
from .plans import JOB_KINDS, PRESETS, apply_override, build_machine
from .tracegen import (
    WORKLOAD_CLASSES,
    StochasticAppDescription,
    StochasticGenerator,
    stochastic_task_traces,
    workload_description,
)

__all__ = ["main"]


def _print_json(payload: object) -> None:
    """A ``--json`` report (or a service record) on stdout."""
    print(json.dumps(payload, indent=2, sort_keys=True, default=str))


def _print_cache(args: argparse.Namespace, cache,
                 stream: Optional[TextIO] = None) -> None:
    """A ``--cache-dir`` run's ``cache: ...`` line (default: stderr)."""
    if cache is not None:
        print(f"cache: {cache.stats.format()} (dir={args.cache_dir})",
              file=stream or sys.stderr)


def _app_or_trace_set(target: str) -> tuple[Optional[str], Optional[TraceSet]]:
    """The CLI's one trace-set loader: ``(app, None)`` for a bundled app,
    ``(None, traces)`` for a saved ``.npz`` trace set; anything else is
    a one-line exit naming the bundled apps."""
    from .apps import task_app
    try:
        return task_app(target), None
    except ConfigError as unknown:
        try:
            return None, TraceSet.load(target)
        except Exception as exc:  # noqa: BLE001 - unreadable: bad input
            raise SystemExit(f"{unknown}, or a readable .npz trace set "
                             f"({exc})") from None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_info(args: argparse.Namespace) -> int:
    rows = []
    for name, factory in sorted(PRESETS.items()):
        m = factory()
        rows.append({
            "preset": name,
            "nodes": m.n_nodes,
            "cpus/node": m.node.n_cpus,
            "clock_mhz": m.node.cpu.clock_hz / 1e6,
            "topology": m.network.topology.kind,
            "switching": m.network.switching,
            "coherence": f"{m.node.coherence_style}/{m.node.coherence}",
        })
    print(format_table(rows, title="machine presets:"))
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    machine = build_machine(args.preset, args.set or ())
    report = run_calibration(machine)
    print(report.format())
    return 0


def _cmd_slowdown(args: argparse.Namespace) -> int:
    machine = build_machine(args.preset, args.set or ())
    wb = Workbench(machine)
    meter = SlowdownMeter(host_clock_hz=args.host_clock_hz)
    desc = StochasticAppDescription()
    n = machine.n_nodes
    instr = StochasticGenerator(desc, n, seed=1).generate_instruction_level(
        args.ops)
    tasks = stochastic_task_traces(None, n, max(args.ops // 2000, 1), 1)
    if machine.node.n_cpus == 1:
        meter.measure("detailed (instruction level)", n,
                      lambda: wb.run_mixed_traces(instr))
    meter.measure("fast prototyping (task level)", n,
                  lambda: wb.run_comm_only(tasks))
    print(meter.format())
    return 0


def _cmd_stochastic(args: argparse.Namespace) -> int:
    machine = build_machine(args.preset, args.set or ())
    wb = Workbench(machine)
    desc = (workload_description(args.workload) if args.workload else
            StochasticAppDescription(mean_task_cycles=args.mean_task_cycles))
    result = wb.run_stochastic(desc, level="task", rounds=args.rounds,
                               seed=args.seed)
    print(comm_report(result))
    return 0


def _sweep_progress(done: int, total: int, row: dict) -> None:
    """Per-variant progress line on stderr (``sweep --progress``)."""
    status = "error" if "error" in row else "ok"
    wall = row.get("wall_time_s")
    timing = f" {wall:.2f}s" if wall is not None else ""
    print(f"  [{done}/{total}] {status}{timing}", file=sys.stderr)


def _run_local(kind: str, args: argparse.Namespace,
               progress: Callable[[int, int, dict], None]):
    """Run ``repro <kind>`` in process: the plan of the request the
    command stands for, the one the service runs for ``repro submit``.
    Returns ``(rows, plan, cache)``."""
    from .parallel import ParallelSweepRunner, ResultCache

    job = JOB_KINDS[kind]
    plan = job.plan(job.request_from_args(args))
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    rows = ParallelSweepRunner(workers=args.workers, cache=cache).run(
        plan.runner, plan.points, workload_id=plan.workload_id,
        progress=progress if args.progress else None, timing=args.timing)
    return rows, plan, cache


def _cmd_sweep(args: argparse.Namespace) -> int:
    rows, _plan, cache = _run_local("sweep", args, _sweep_progress)
    # Error rows carry the remote traceback for job records; the table
    # view keeps only the one-line message.
    shown = [{k: v for k, v in row.items() if k != "traceback"}
             for row in rows]
    print(format_table(
        shown, title=f"sweep of {args.preset} "
                     f"({len(rows)} variants, workers={args.workers}):"))
    _print_cache(args, cache, sys.stdout)
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    # Imported here: the experiment table pulls in every model package.
    from .experiments import (EXPERIMENTS, ShapeError, format_experiment,
                              run_experiment, save_experiment)
    from .parallel import ResultCache

    for exp_id in args.ids:
        if exp_id not in EXPERIMENTS:
            raise SystemExit(f"unknown experiment {exp_id!r}; choose from: "
                             + ", ".join(EXPERIMENTS))
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    failed = 0
    for exp_id in args.ids or EXPERIMENTS:
        exp = EXPERIMENTS[exp_id]
        rows = run_experiment(exp, workers=args.workers, cache=cache)
        print(format_experiment(exp, rows) + "\n")
        if args.out:
            save_experiment(exp, rows, args.out)
        try:
            exp.shape(rows)
        except ShapeError as exc:
            print(f"{exp.id}: shape claim failed: {exc}", file=sys.stderr)
            failed = 1
    # Bookkeeping goes to stderr so stdout is byte-identical cold and warm.
    _print_cache(args, cache)
    return failed


def _chaos_progress(done: int, total: int, row: dict) -> None:
    """Per-rung progress line on stderr (``chaos --progress``)."""
    status = "error" if "error" in row else "ok"
    print(f"  [{done}/{total}] {row.get('rung', '?')} {status}",
          file=sys.stderr)


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .chaos import ChaosResult

    rows, plan, cache = _run_local("chaos", args, _chaos_progress)
    result = ChaosResult.from_rows(plan.campaign, rows)
    # Reports go to stdout; run bookkeeping (cache stats, trace path)
    # goes to stderr, so stdout stays byte-identical between cold and
    # warm cache runs (tests/test_chaos.py compares it).
    print(result.to_json() if args.json else result.format())
    if args.trace_out:
        from .observe import Tracer
        tracer = Tracer()
        result.emit_trace(tracer)
        tracer.export_chrome(args.trace_out)
        print(f"wrote {args.trace_out} ({tracer.emitted} records)",
              file=sys.stderr)
    _print_cache(args, cache)
    return 0 if result.ok else 1


def _check_targets(args: argparse.Namespace) -> list:
    """Build (kind, name, artifact) check targets from the CLI selection.

    With no explicit ``--preset``/``--trace``/``--workload`` the whole
    bundle is checked: every machine preset, every workload-class
    description (plus the generic one), the bundled apps' task traces,
    and a generated task-level trace set per workload class.
    """
    from .apps import TASK_APPS

    explicit = bool(args.preset or args.trace or args.workload)
    targets: list = []

    for name in (args.preset or (() if explicit else sorted(PRESETS))):
        machine = PRESETS[name]()
        for spec in (args.set or ()):
            apply_override(machine, spec)
        targets.append(("machine", name, machine))

    for path in (args.trace or ()):
        app, traces = _app_or_trace_set(path)
        targets.append(("traces", path, traces if app is None
                        else TASK_APPS[app].build(args.nodes)))

    workloads = args.workload or (() if explicit
                                  else [None, *sorted(WORKLOAD_CLASSES)])
    for wl in workloads:
        label = wl or "generic"
        targets.append(("description", label, workload_description(wl)))
        targets.append(("traces", f"stochastic:{label}",
                        stochastic_task_traces(wl, args.nodes, 5, 0)))

    if not explicit:
        for app, spec in TASK_APPS.items():
            targets.append(("traces", f"app:{app}", spec.build(
                2 if app == "pingpong" else args.nodes)))
        # Static performance bounds (PB rules) of each bundled app on a
        # reference machine: catches statically link-limited workloads.
        bound_machine = PRESETS["t805-grid-2x2"]()
        n = bound_machine.n_nodes
        for app, spec in TASK_APPS.items():
            targets.append(("bounds", f"{app}:t805-grid-2x2",
                            (bound_machine, spec.build(n))))
    return targets


def _check_determinism(machine, preset: str):
    """Short sanitized task-level run; returns the sanitizer's report."""
    from .check import DeterminismSanitizer
    from .commmodel.network import MultiNodeModel

    model = MultiNodeModel(machine)
    sanitizer = DeterminismSanitizer()
    model.sim.observer = sanitizer
    model.run(list(stochastic_task_traces(None, model.n_nodes, 3, 0)))
    return sanitizer.report(subject=f"determinism:{preset}")


def _cmd_check(args: argparse.Namespace) -> int:
    from .bounds import check_bounds
    from .check import (RULES, check_description, check_machine,
                        check_traces, reports_to_dict)

    if args.rules:
        rows = [{"rule": rule, "description": text}
                for rule, text in sorted(RULES.items())]
        print(format_table(rows, title="check rules:"))
        return 0

    reports = []
    for kind, name, artifact in _check_targets(args):
        if kind == "machine":
            report = check_machine(artifact, subject=f"machine:{name}")
            if args.determinism and report.ok:
                report.merge(_check_determinism(artifact, name))
        elif kind == "traces":
            report = check_traces(artifact, subject=f"traces:{name}")
        elif kind == "bounds":
            machine, traces = artifact
            report = check_bounds(machine, traces, subject=f"bounds:{name}")
        else:
            report = check_description(artifact, n_nodes=args.nodes,
                                       subject=f"description:{name}")
        reports.append(report)

    if args.code:
        from pathlib import Path

        from .check.lint import iter_lint_targets, lint_file
        for path in iter_lint_targets([Path(p) for p in args.code]):
            reports.append(lint_file(path).report)

    n_errors = sum(len(r.errors) for r in reports)
    if args.json:
        _print_json(reports_to_dict(reports))
    else:
        for report in reports:
            print(report.format())
        n_warn = sum(len(r.warnings) for r in reports)
        print(f"checked {len(reports)} artifact(s): "
              f"{n_errors} error(s), {n_warn} warning(s)")
    return 1 if n_errors else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .check import reports_to_dict
    from .check.lint import (Baseline, LintCache, iter_lint_targets,
                             lint_file)
    from .diagnostics import Severity

    cache = LintCache(args.cache_dir) if args.cache_dir else None
    targets = iter_lint_targets([Path(p) for p in args.paths])
    results = [lint_file(p, cache=cache) for p in targets]
    reports = [r.report for r in results]
    all_diags = [d for r in reports for d in r.diagnostics]
    suppressed = sum(r.suppressed for r in results)

    baseline_path = Path(args.baseline) if args.baseline else None
    if args.update_baseline:
        if baseline_path is None:
            raise SystemExit("--update-baseline requires --baseline FILE")
        baseline = Baseline.from_reports(reports)
        baseline.save(baseline_path)
        print(f"wrote {baseline_path} ({len(baseline)} finding(s) "
              f"baselined)")
        return 0

    baseline = Baseline.load(baseline_path) if baseline_path else Baseline()
    new, known = baseline.split(all_diags)
    new_errors = [d for d in new if d.severity is Severity.ERROR]
    stale = baseline.stale(all_diags)

    if args.json:
        payload = reports_to_dict(
            reports, ok=not new_errors, n_new=len(new),
            n_baselined=len(known), n_suppressed=suppressed,
            n_stale=len(stale))
        if cache is not None:
            payload["cache"] = {"hits": cache.stats.hits,
                                "misses": cache.stats.misses,
                                "stores": cache.stats.stores}
        _print_json(payload)
    else:
        for report in reports:
            if report.diagnostics:
                print(report.format())
        n_errors = sum(len(r.errors) for r in reports)
        n_warn = sum(len(r.warnings) for r in reports)
        print(f"linted {len(results)} file(s): {n_errors} error(s) "
              f"({len(new_errors)} new), {n_warn} warning(s), "
              f"{len(known)} baselined, {suppressed} suppressed")
        if stale:
            shown = ", ".join(sorted(stale.values())[:5])
            more = "" if len(stale) <= 5 else f" (+{len(stale) - 5} more)"
            print(f"warning: {len(stale)} stale baseline entry(ies) no "
                  f"longer match any finding: {shown}{more}; refresh "
                  f"with --update-baseline")
        if cache is not None:
            print(f"cache: {cache.stats.format()}")
    return 1 if new_errors else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .check import reports_to_dict
    from .verify import (ScheduleExplorer, VerifyError, app_verify_target,
                         verify_app)

    app = verify_app(args.app)
    machine = build_machine(args.preset, args.set or ())
    target = app_verify_target(machine, app)
    explorer = ScheduleExplorer(budget=args.budget,
                                mode="naive" if args.naive else "dpor")
    try:
        result = explorer.explore(target, workers=args.workers)
    except VerifyError as err:
        raise SystemExit(f"verification failed: {err}")
    report = result.report(subject=f"verify:{app}:{args.preset}")
    if args.json:
        _print_json(reports_to_dict([report], verify=result.to_dict()))
    else:
        print(report.format())
        status = ("schedule-independent" if result.ok
                  else "NOT schedule-independent")
        print(f"verified {app} on {args.preset} ({result.mode}): "
              f"{status}; explored {result.schedules_explored}/"
              f"{result.schedules_planned} schedule(s), "
              f"{result.skipped} skipped, "
              f"frontier {len(result.frontier)}")
        print(f"certificate {result.certificate}")
    return 0 if result.ok else 1


def _cmd_bound(args: argparse.Namespace) -> int:
    from .bounds import audit_cache, compute_bounds, static_diagnostics
    from .check import Report, reports_to_dict

    threshold = args.gap_threshold if args.gap_threshold > 0 else None

    if args.audit:
        if args.target:
            raise SystemExit("--audit audits a cache directory; drop the "
                             "app/trace argument")
        try:
            result = audit_cache(args.audit, workers=args.workers,
                                 gap_threshold=threshold)
        except FileNotFoundError as exc:
            raise SystemExit(str(exc))
        if args.json:
            _print_json(result.to_dict())
        else:
            print(result.format())
        return 0 if result.ok else 1

    if not args.target:
        raise SystemExit("pass a bundled app name or .npz trace-set path "
                         "(or --audit CACHE_DIR)")
    machine = build_machine(args.preset, args.set or ())
    app, traces = _app_or_trace_set(args.target)
    if app is not None:
        from .apps import TASK_APPS
        traces = TASK_APPS[app].build(machine.n_nodes)
        subject = f"bounds:{app}:{args.preset}"
    else:
        subject = f"bounds:{args.target}"
    bound = compute_bounds(machine, traces, subject=subject)
    report = Report(subject=subject)
    report.extend(static_diagnostics(bound, subject=subject))
    if args.json:
        _print_json(reports_to_dict([report], bound=bound.to_dict()))
    else:
        print(bound.format())
        if report.diagnostics:
            print(report.format())
    return 1 if report.errors else 0


def _run_app_traced(app: str, preset: str, overrides: Sequence[str],
                    ring: Optional[int] = None,
                    faults: Optional[str] = None):
    """Run a bundled app on a preset with a tracer attached (and the
    fault plan at path ``faults``, if given).

    Returns ``(model, tracer, result)``; shared by the ``trace`` and
    ``stats`` commands.
    """
    from .apps import TASK_APPS
    from .commmodel.network import MultiNodeModel
    from .faults import DeliveryFailed, as_fault_plan
    from .observe import Tracer

    machine = build_machine(preset, overrides)
    model = MultiNodeModel(machine, faults=as_fault_plan(faults))
    tracer = Tracer(capacity=ring)
    model.sim.observer = tracer
    try:
        result = model.run(list(TASK_APPS[app].build(model.n_nodes)))
    except DeliveryFailed as err:
        raise SystemExit(
            f"fault plan defeated the transport: {err} "
            f"(raise transport.max_retries/timeout_cycles or lower "
            f"the drop probability)")
    return model, tracer, result


def _cmd_trace(args: argparse.Namespace) -> int:
    app, traces = _app_or_trace_set(args.path)
    if app is None:
        rows = trace_set_profile(traces)
        print(format_table(rows, title=f"trace profile ({args.path}):"))
        if args.dump is not None:
            from .analysis import dump_trace
            dump_trace(traces[args.dump_node], sys.stdout, limit=args.dump)
        return 0

    from .observe import validate_chrome_trace
    model, tracer, result = _run_app_traced(app, args.preset,
                                            args.set or (), args.ring,
                                            faults=args.faults)
    doc = tracer.export_chrome(args.out)
    counts = validate_chrome_trace(doc)
    print(f"traced {app} on {args.preset}: "
          f"{result.events_executed} kernel events, "
          f"{tracer.emitted} trace records "
          f"({tracer.dropped} dropped by the ring buffer)")
    rows = [{"category": cat, "records": n}
            for cat, n in sorted(tracer.counts_by_category().items())]
    print(format_table(rows, title="records by category:"))
    print(f"wrote {args.out} "
          f"({sum(counts.values())} events; open in Perfetto or "
          f"about://tracing)")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .apps import task_app
    app = task_app(args.app)
    model, _tracer, result = _run_app_traced(app, args.preset,
                                             args.set or (),
                                             faults=args.faults)
    registry = model.registry
    if args.json:
        _print_json(registry.snapshot())
        return 0
    print(format_table(
        registry.rows(),
        title=f"{app} on {args.preset} "
              f"({len(registry)} metric sources, "
              f"{result.events_executed} kernel events):"))
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _cmd_serve(args: argparse.Namespace) -> int:
    from .parallel.executor import Executor
    from .service import JobManager, JobScheduler, ResultStore, run_server

    executor = Executor(workers=args.workers, job_timeout_s=args.job_timeout)
    store = ResultStore(args.store) if args.store else None
    try:
        scheduler = JobScheduler(tenant_quota=args.tenant_quota,
                                 starvation_bound=args.starvation_bound)
    except ValueError as exc:
        raise SystemExit(str(exc))
    manager = JobManager(executor=executor, store=store,
                         scheduler=scheduler)

    def announce(url: str) -> None:
        # Parsed by clients discovering an ephemeral --port 0 bind.
        print(f"repro service listening on {url}", flush=True)

    run_server(manager, args.host, args.port, announce=announce)
    return 0


def _ask_service(args: argparse.Namespace, call: Callable) -> dict:
    """``call(client)`` against ``--server``; a service error or an
    unreachable server is a one-line exit."""
    from .service import ServiceClient, ServiceError
    try:
        return call(ServiceClient(args.server))
    except ServiceError as exc:
        raise SystemExit(f"service error ({exc.status}): {exc.message}")
    except OSError as exc:
        raise SystemExit(f"cannot reach {args.server}: {exc}")


def _cmd_submit(args: argparse.Namespace) -> int:
    request = JOB_KINDS[args.job_kind].request_from_args(args)

    def submit(client) -> dict:
        record = client.submit(request)
        return client.wait(record["id"]) if args.wait else record
    record = _ask_service(args, submit)
    _print_json(record)
    return 1 if args.wait and record["state"] != "done" else 0


def _cmd_status(args: argparse.Namespace) -> int:
    record = _ask_service(args, lambda client: client.status(args.job))
    _print_json(record)
    return 1 if record["state"] == "failed" else 0


def _cmd_fetch(args: argparse.Namespace) -> int:
    result = _ask_service(args, lambda client: client.result(args.job))
    # Sweep rows / chaos verdicts only, dumped exactly like an
    # in-process run would dump them — tests/test_service_api.py
    # compares the bytes.
    _print_json(result.get("rows", result.get("campaign")))
    return 0


_SET_BANDWIDTH = "config override, e.g. network.link_bandwidth=8"


def _machine_args(p: argparse.ArgumentParser,
                  preset_help: Optional[str] = None,
                  set_help: str = "config override, e.g. "
                                  "network.switching=wormhole",
                  *, flag: str = "--preset", **preset: Any) -> None:
    """Machine selection, declared once for every command that takes it:
    the preset (``flag``; ``"preset"`` makes it positional) and repeatable
    ``--set PATH=VALUE`` overrides."""
    p.add_argument(flag, choices=sorted(PRESETS), help=preset_help, **preset)
    p.add_argument("--set", action="append", metavar="PATH=VALUE",
                   help=set_help)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Mermaid architecture workbench (IPPS 1997 "
                    "reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="list machine presets")

    for name, help_text in (("calibrate", "calibration micro-benchmarks"),
                            ("slowdown", "Section-6 slowdown measurement"),
                            ("stochastic", "fast-prototype a preset")):
        p = sub.add_parser(name, help=help_text)
        _machine_args(p, set_help=_SET_BANDWIDTH, flag="preset")
        if name == "slowdown":
            p.add_argument("--ops", type=int, default=20_000,
                           help="instructions per node (default 20000)")
            p.add_argument("--host-clock-hz", type=float, default=2e9)
        if name == "stochastic":
            p.add_argument("--rounds", type=int, default=30)
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--mean-task-cycles", type=float,
                           default=20_000.0)
            p.add_argument("--workload", choices=sorted(WORKLOAD_CLASSES),
                           default=None,
                           help="use a workload-class preset instead of "
                                "the generic description")

    p = sub.add_parser(
        "sweep", help="parameter sweep over a preset (parallel, cached)")
    JOB_KINDS["sweep"].add_arguments(p, submit=False)
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="process-pool size (default 1 = serial)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="content-addressed result cache; re-runs only "
                        "simulate changed variants")
    p.add_argument("--progress", action="store_true",
                   help="print per-variant progress on stderr")

    p = sub.add_parser(
        "reproduce", help="regenerate the paper's evaluation "
                          "(EXPERIMENTS.md) through the sweep engine")
    p.add_argument("ids", nargs="*", metavar="ID",
                   help="experiment ids, e.g. T1 F3a-size V1 "
                        "(default: all of repro.experiments.EXPERIMENTS)")
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="process-pool size per sweep (default 1 = serial)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="content-addressed result cache (experiments with "
                        "host-time columns always run)")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="also write <id>.json and <id>.txt records there")

    p = sub.add_parser(
        "check", help="static analysis of machine configs, traces and "
                      "stochastic descriptions")
    _machine_args(p, "machine preset to check (repeatable; default: "
                     "every bundled preset, app and description)",
                  "config override applied to each --preset before "
                  "checking", action="append")
    p.add_argument("--trace", action="append", metavar="PATH",
                   help="saved .npz trace set to check (repeatable)")
    p.add_argument("--workload", action="append",
                   choices=sorted(WORKLOAD_CLASSES),
                   help="workload-class description to check (repeatable)")
    p.add_argument("--nodes", type=int, default=4, metavar="N",
                   help="node count for description/trace-generation "
                        "checks (default 4)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable diagnostics on stdout")
    p.add_argument("--rules", action="store_true",
                   help="print the rule-id table and exit")
    p.add_argument("--determinism", action="store_true",
                   help="also run a short sanitized simulation per "
                        "machine, flagging tie-break-sensitive schedules")
    p.add_argument("--code", action="append", metavar="PATH",
                   help="also lint Python model source at PATH "
                        "(file or directory, repeatable; PY rules)")

    p = sub.add_parser(
        "lint", help="source-level lint of model/app Python code "
                     "(determinism hazards, pearl-API misuse, hygiene)")
    p.add_argument("paths", nargs="+", metavar="PATH",
                   help="Python files or directories to lint")
    p.add_argument("--baseline", default=None, metavar="FILE",
                   help="JSON baseline of accepted findings; only new "
                        "findings gate the exit code")
    p.add_argument("--update-baseline", action="store_true",
                   help="rewrite --baseline FILE from current findings "
                        "and exit")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="incremental cache keyed by file content and "
                        "analyzer version")
    p.add_argument("--json", action="store_true",
                   help="machine-readable diagnostics on stdout "
                        "(same schema as `repro check --json`)")

    p = sub.add_parser(
        "verify", help="schedule-space verification of a bundled app: "
                       "race/deadlock verdicts under same-time "
                       "tie-break perturbation")
    p.add_argument("app",
                   help="bundled app: pingpong, alltoall, pipeline or "
                        "masterworker")
    _machine_args(p, "machine preset to verify the app on",
                  default="t805-grid-2x2")
    p.add_argument("--budget", type=int, default=64, metavar="N",
                   help="max schedules to execute, baseline included "
                        "(default 64); unexplored orderings are "
                        "reported as the frontier")
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="shard independent schedules over N processes "
                        "(default 1 = serial; results are identical)")
    p.add_argument("--naive", action="store_true",
                   help="disable partial-order reduction: permute every "
                        "same-time dispatch burst, not just contention "
                        "clusters")
    p.add_argument("--json", action="store_true",
                   help="machine-readable verdicts + certificate on "
                        "stdout (check/lint diagnostic schema)")

    p = sub.add_parser(
        "chaos", help="fault-sweep campaign over a bundled app with SLO "
                      "verdicts (severity ladders, single-link-down "
                      "packs, correlated failures, rolling outages)")
    JOB_KINDS["chaos"].add_arguments(p, submit=False)
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="run the campaign's rungs on N worker processes "
                        "(default 1 = serial; results are identical)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="content-addressed result cache shared across "
                        "rungs; keys include each rung's plan digest")
    p.add_argument("--timing", action="store_true",
                   help="add a per-rung wall_time_s column "
                        "(nondeterministic; excluded from --json)")
    p.add_argument("--progress", action="store_true",
                   help="print per-rung progress on stderr (cached "
                        "rungs first, then executed rungs in order)")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="also export the campaign as Chrome "
                        "trace_event JSON")
    p.add_argument("--json", action="store_true",
                   help="machine-readable rows + verdicts on stdout "
                        "(deterministic: byte-identical across reruns "
                        "and worker counts)")

    p = sub.add_parser(
        "bound", help="static performance bounds (critical path, hot "
                      "links, LogP latency) of an app or trace set — no "
                      "simulation; --audit cross-checks cached sweep rows")
    p.add_argument("target", nargs="?", default=None,
                   help="bundled app (pingpong/alltoall/pipeline) or a "
                        ".npz trace-set path; omit with --audit")
    _machine_args(p, "machine preset to bound the workload on",
                  _SET_BANDWIDTH, default="t805-grid-2x2")
    p.add_argument("--audit", default=None, metavar="CACHE_DIR",
                   help="cross-check every cached sweep row in CACHE_DIR "
                        "against its static bounds (PB001/PB003)")
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="audit rows on N processes (default 1 = serial; "
                        "output is byte-identical for any N)")
    p.add_argument("--gap-threshold", type=float, default=10.0,
                   dest="gap_threshold", metavar="X",
                   help="PB003 note when simulated > X * bound "
                        "(default 10; <= 0 disables)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable bounds + diagnostics on stdout "
                        "(check/lint schema plus a 'bound' block)")

    p = sub.add_parser(
        "trace", help="trace a bundled app to Chrome JSON, or profile a "
                      "saved .npz trace set")
    p.add_argument("path",
                   help="app name (pingpong/alltoall/pipeline, "
                        "'examples/pingpong.py' also accepted) or a "
                        ".npz trace-set path")
    p.add_argument("--out", default="trace.json", metavar="FILE",
                   help="Chrome trace_event JSON output (app mode; "
                        "default trace.json)")
    _machine_args(p, "machine preset to trace the app on",
                  default="t805-grid-2x2")
    p.add_argument("--ring", type=int, default=None, metavar="N",
                   help="ring-buffer mode: keep only the last N records")
    p.add_argument("--faults", default=None, metavar="PLAN.json",
                   help="fault-injection plan (drops/corruption/stalls "
                        "show up as 'faults' instant records)")
    p.add_argument("--dump", type=int, default=None, metavar="N",
                   help="(.npz mode) also dump the first N ops of one node")
    p.add_argument("--dump-node", type=int, default=0)

    p = sub.add_parser(
        "stats", help="run a bundled app and print the metric-registry "
                      "snapshot")
    p.add_argument("app", nargs="?", default="pingpong",
                   help="app name (default pingpong)")
    _machine_args(p, default="t805-grid-2x2")
    p.add_argument("--faults", default=None, metavar="PLAN.json",
                   help="fault-injection plan; adds faults.* metric "
                        "sources to the snapshot")
    p.add_argument("--json", action="store_true",
                   help="machine-readable snapshot on stdout")

    p = sub.add_parser(
        "serve", help="run the HTTP job server (simulation as a "
                      "service)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8421,
                   help="TCP port (0 binds an ephemeral port; the "
                        "chosen one is announced on stdout)")
    p.add_argument("--workers", type=int, default=None, metavar="N",
                   help="variant worker processes (default: CPU count)")
    p.add_argument("--store", default=None, metavar="DIR",
                   help="content-addressed result store (rows + job "
                        "records); shared with repro sweep --cache-dir")
    p.add_argument("--tenant-quota", type=int, default=4,
                   dest="tenant_quota", metavar="N",
                   help="max active (queued+running) jobs per tenant")
    p.add_argument("--starvation-bound", type=int, default=8,
                   dest="starvation_bound", metavar="N",
                   help="times a queued lane head may be passed over "
                        "before it runs regardless of priority")
    p.add_argument("--job-timeout", type=float, default=None,
                   dest="job_timeout", metavar="SECONDS",
                   help="default per-job wall-time budget")

    p = sub.add_parser(
        "submit", help="submit a sweep or chaos job to a running server")
    kind = p.add_subparsers(dest="job_kind", required=True)
    for job_kind, job in JOB_KINDS.items():
        k = kind.add_parser(job_kind)
        job.add_arguments(k, submit=True)
        k.add_argument("--server", default="http://127.0.0.1:8421")
        k.add_argument("--wait", action="store_true",
                       help="block until the job ends; exit 1 unless it "
                            "finishes 'done'")

    for name, help_text in (
            ("status", "print a job's record"),
            ("fetch", "print a finished job's rows / campaign verdicts")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("job", help="job id from repro submit")
        p.add_argument("--server", default="http://127.0.0.1:8421")
    return parser


_COMMANDS = {
    "info": _cmd_info,
    "calibrate": _cmd_calibrate,
    "slowdown": _cmd_slowdown,
    "stochastic": _cmd_stochastic,
    "sweep": _cmd_sweep,
    "reproduce": _cmd_reproduce,
    "check": _cmd_check,
    "lint": _cmd_lint,
    "verify": _cmd_verify,
    "chaos": _cmd_chaos,
    "bound": _cmd_bound,
    "trace": _cmd_trace,
    "stats": _cmd_stats,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "fetch": _cmd_fetch,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    workers = getattr(args, "workers", None)
    if workers is not None and workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {workers}")
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:   # a bad name or value: one line
        raise SystemExit(str(exc)) from None


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
