"""Command-line interface: ``python -m repro <command>``.

A thin operational layer over the workbench for the common
no-code-needed tasks:

* ``info``        — list machine presets and their key parameters;
* ``calibrate``   — run the calibration micro-benchmarks on a preset;
* ``slowdown``    — measure detailed- and task-level slowdown (Sec 6);
* ``stochastic``  — fast-prototype a preset under a synthetic workload;
* ``sweep``       — parameter sweep over a preset, optionally fanned
  out over worker processes (``--workers``) with content-addressed
  result caching (``--cache-dir``);
* ``reproduce``   — regenerate the paper's evaluation: the experiments
  of :mod:`repro.experiments` (all, or by id) run as sweeps, printed as
  tables, optionally saved (``--out``); exit 1 if a shape claim fails;
* ``chaos``       — fault-sweep campaign over a bundled app: expand a
  campaign spec into a fault-plan family (severity ladders, exhaustive
  single-link-down packs, correlated failures, rolling outages), run
  the rungs as a sharded cached sweep, and fold the rows into SLO
  verdicts plus the ladder monotonicity invariant;
* ``verify``      — schedule-space verification of a bundled app:
  enumerate alternative same-time orderings (with partial-order
  reduction) and reduce every sanitizer contention cluster to a
  race/benign/deadlock verdict plus a certificate digest;
* ``bound``       — static performance bounds of a bundled app or saved
  trace set (critical path, hot-link ranking, LogP latency floors) with
  no simulation at all; ``--audit CACHE_DIR`` instead cross-checks every
  cached sweep row against its own bounds (PB rules);
* ``trace``       — run a bundled app with the event tracer attached
  and export Chrome ``trace_event`` JSON (``repro trace pingpong --out
  trace.json``, opens in Perfetto / ``about://tracing``); also still
  profiles (or dumps) a saved ``.npz`` trace set by path;
* ``stats``       — run a bundled app and print every registered
  metric (the :class:`~repro.observe.MetricRegistry` snapshot);
* ``serve``       — run the async HTTP job server (simulation as a
  service: sweeps and chaos campaigns as submitted jobs with
  progress streaming, quotas and priority lanes);
* ``submit``      — submit a sweep or chaos job to a running server;
* ``status``      — print a job's deterministic record;
* ``fetch``       — print a finished job's rows / campaign verdicts
  (byte-identical to the in-process run of the same request).

Machines are named by preset, with overrides as ``key=value`` pairs
(e.g. ``--set network.link_bandwidth=8``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence

from .analysis import (
    SlowdownMeter,
    comm_report,
    format_table,
    trace_set_profile,
)
from .core.config import MachineConfig
from .core.experiment import Sweep, _AxisSetter
from .core.workbench import Workbench
from .machines import calibrate as run_calibration
from .machines import generic_multicomputer, powerpc601_node, smp_node, t805_grid
from .operations.trace import TraceSet
from .tracegen import StochasticAppDescription

__all__ = ["main", "build_machine", "PRESETS"]

PRESETS: dict[str, Callable[[], MachineConfig]] = {
    "t805-grid": lambda: t805_grid(4, 4),
    "t805-grid-2x2": lambda: t805_grid(2, 2),
    "powerpc601": powerpc601_node,
    "generic-mesh": lambda: generic_multicomputer("mesh", (4, 4)),
    "generic-hypercube": lambda: generic_multicomputer("hypercube", (4,)),
    "generic-fattree": lambda: _fattree(),
    "smp4": lambda: smp_node(4),
}


def _app_traces() -> dict[str, Callable]:
    """Bundled task-level apps runnable by name (trace/stats commands)."""
    from .apps import TASK_APPS
    return TASK_APPS


def _resolve_app(name: str) -> Optional[str]:
    """Map ``examples/pingpong.py`` / ``pingpong`` to an app name."""
    app = name
    if app.startswith("examples/"):
        app = app[len("examples/"):]
    if app.endswith(".py"):
        app = app[:-3]
    return app if app in _app_traces() else None


def _fattree() -> MachineConfig:
    machine = generic_multicomputer("mesh", (2, 2))
    machine.network.topology.kind = "fat_tree"
    machine.network.topology.dims = (2, 4)
    machine.network.routing = "shortest_path"
    machine.name = "generic-fattree2x4"
    return machine.validate()


def _resolve_path(machine: MachineConfig, path: str):
    """Walk a ``dotted.path`` into the config; return (target, leaf)."""
    target = machine
    parts = path.split(".")
    for part in parts[:-1]:
        if not hasattr(target, part):
            raise SystemExit(f"unknown config path {path!r}")
        target = getattr(target, part)
    leaf = parts[-1]
    if not hasattr(target, leaf):
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


def _apply_override(machine: MachineConfig, spec: str) -> None:
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
        _apply_override(machine, spec)
    return machine.validate()


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
    from .tracegen import StochasticGenerator
    machine = build_machine(args.preset, args.set or ())
    wb = Workbench(machine)
    meter = SlowdownMeter(host_clock_hz=args.host_clock_hz)
    desc = StochasticAppDescription()
    n = machine.n_nodes
    instr = StochasticGenerator(desc, n, seed=1).generate_instruction_level(
        args.ops)
    tasks = StochasticGenerator(desc, n, seed=1).generate_task_level(
        max(args.ops // 2000, 1))
    if machine.node.n_cpus == 1:
        meter.measure("detailed (instruction level)", n,
                      lambda: wb.run_mixed_traces(instr))
    meter.measure("fast prototyping (task level)", n,
                  lambda: wb.run_comm_only(tasks))
    print(meter.format())
    return 0


def _cmd_stochastic(args: argparse.Namespace) -> int:
    from .tracegen import WORKLOAD_CLASSES
    machine = build_machine(args.preset, args.set or ())
    wb = Workbench(machine)
    if args.workload:
        desc = WORKLOAD_CLASSES[args.workload]()
    else:
        desc = StochasticAppDescription(
            mean_task_cycles=args.mean_task_cycles)
    result = wb.run_stochastic(desc, level="task", rounds=args.rounds,
                               seed=args.seed)
    print(comm_report(result))
    return 0


def _sweep_point_runner(machine: MachineConfig, workload: Optional[str],
                        rounds: int, seed: int, faults=None) -> dict:
    """Per-variant runner for ``repro sweep`` (module-level: picklable)."""
    from .tracegen import WORKLOAD_CLASSES
    desc = (WORKLOAD_CLASSES[workload]() if workload
            else StochasticAppDescription())
    res = Workbench(machine, faults=faults).run_stochastic(
        desc, level="task", rounds=rounds, seed=seed)
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


def _load_faults(path: Optional[str]):
    """Load ``--faults FILE`` into a normalized plan (None when absent)."""
    if not path:
        return None
    from .faults import as_fault_plan
    return as_fault_plan(path)


def _sweep_progress(done: int, total: int, row: dict) -> None:
    """Per-variant progress line on stderr (``sweep --progress``)."""
    status = "error" if "error" in row else "ok"
    wall = row.get("wall_time_s")
    timing = f" {wall:.2f}s" if wall is not None else ""
    print(f"  [{done}/{total}] {status}{timing}", file=sys.stderr)


def plan_sweep(preset: str, overrides: Sequence[str], axes: Sequence[str],
               *, workload: Optional[str], rounds: int, seed: int):
    """``(sweep, runner, workload_id)`` of a ``repro sweep``-style study.

    The one place ``PATH=v1,v2`` axis specs become a
    :class:`~repro.core.experiment.Sweep`, the point runner is bound
    and the cache workload id is spelled — ``repro sweep`` and the
    service both run exactly this plan, so their rows and cache
    entries are interchangeable.
    """
    import functools

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
    workload_id = (f"cli-stochastic:{workload or 'generic'}"
                   f":rounds={rounds}:seed={seed}")
    return sweep, runner, workload_id


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .parallel import ResultCache

    if args.workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {args.workers}")
    sweep, runner, workload_id = plan_sweep(
        args.preset, args.set or (), args.axis, workload=args.workload,
        rounds=args.rounds, seed=args.seed)
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    rows = sweep.run(runner, workers=args.workers, cache=cache,
                     workload_id=workload_id,
                     progress=_sweep_progress if args.progress else None,
                     timing=args.timing, faults=_load_faults(args.faults))
    # Error rows carry the remote traceback for job records; the table
    # view keeps only the one-line message.
    shown = [{k: v for k, v in row.items() if k != "traceback"}
             for row in rows]
    print(format_table(
        shown, title=f"sweep of {args.preset} "
                     f"({len(rows)} variants, workers={args.workers}):"))
    if cache is not None:
        print(f"cache: {cache.stats.format()} (dir={args.cache_dir})")
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    # Imported here: the experiment table pulls in every model package.
    from .experiments import (EXPERIMENTS, ShapeError, format_experiment,
                              run_experiment, save_experiment)
    from .parallel import ResultCache

    if args.workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {args.workers}")
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
    if cache is not None:
        print(f"cache: {cache.stats.format()} (dir={args.cache_dir})",
              file=sys.stderr)
    return failed


def _chaos_progress(done: int, total: int, row: dict) -> None:
    """Per-rung progress line on stderr (``chaos --progress``)."""
    status = "error" if "error" in row else "ok"
    print(f"  [{done}/{total}] {row.get('rung', '?')} {status}",
          file=sys.stderr)


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .chaos import AppCampaignRunner, run_campaign
    from .core.config import ConfigError

    app = _resolve_app(args.app)
    if app is None:
        raise SystemExit(
            f"unknown app {args.app!r}; choose from: "
            + ", ".join(sorted(_app_traces())))
    if args.workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {args.workers}")
    machine = build_machine(args.preset, args.set or ())
    tracer = None
    if args.trace_out:
        from .observe import Tracer
        tracer = Tracer()
    runner = AppCampaignRunner(app, size=args.size, repeats=args.repeats)
    try:
        result = run_campaign(
            args.campaign, machine, runner, workers=args.workers,
            cache=args.cache_dir,
            progress=_chaos_progress if args.progress else None,
            timing=args.timing, tracer=tracer)
    except ConfigError as exc:
        raise SystemExit(f"bad campaign spec: {exc}")
    # Reports go to stdout; run bookkeeping (cache stats, trace path)
    # goes to stderr, so stdout stays byte-identical between cold and
    # warm cache runs (tests/test_chaos.py compares it).
    if args.json:
        print(result.to_json())
    else:
        print(result.format())
    if tracer is not None:
        tracer.export_chrome(args.trace_out)
        print(f"wrote {args.trace_out} ({tracer.emitted} records)",
              file=sys.stderr)
    if result.cache_stats is not None:
        stats = result.cache_stats
        print(f"cache: {stats['hits']} hits, {stats['misses']} misses, "
              f"{stats['stores']} stored (dir={args.cache_dir})",
              file=sys.stderr)
    return 0 if result.ok else 1


def _check_targets(args: argparse.Namespace) -> list:
    """Build (kind, name, artifact) check targets from the CLI selection.

    With no explicit ``--preset``/``--trace``/``--workload`` the whole
    bundle is checked: every machine preset, every workload-class
    description (plus the generic one), the bundled apps' task traces,
    and a generated task-level trace set per workload class.
    """
    from .tracegen import WORKLOAD_CLASSES, StochasticGenerator

    explicit = bool(args.preset or args.trace or args.workload)
    targets: list = []

    for name in (args.preset or (() if explicit else sorted(PRESETS))):
        machine = PRESETS[name]()
        for spec in (args.set or ()):
            _apply_override(machine, spec)
        targets.append(("machine", name, machine))

    for path in (args.trace or ()):
        targets.append(("traces", path, TraceSet.load(path)))

    workloads = args.workload or (() if explicit
                                  else [None, *sorted(WORKLOAD_CLASSES)])
    for wl in workloads:
        desc = WORKLOAD_CLASSES[wl]() if wl else StochasticAppDescription()
        label = wl or "generic"
        targets.append(("description", label, desc))
        gen = StochasticGenerator(desc, args.nodes, seed=0)
        targets.append(("traces", f"stochastic:{label}",
                        gen.generate_task_level(5)))

    if not explicit:
        for app, build in _app_traces().items():
            targets.append(("traces", f"app:{app}",
                            build(2 if app == "pingpong" else args.nodes)))
        # Static performance bounds (PB rules) of each bundled app on a
        # reference machine: catches statically link-limited workloads.
        bound_machine = PRESETS["t805-grid-2x2"]()
        n = bound_machine.n_nodes
        for app, build in _app_traces().items():
            targets.append(("bounds", f"{app}:t805-grid-2x2",
                            (bound_machine, build(n))))
    return targets


def _check_determinism(machine, preset: str):
    """Short sanitized task-level run; returns the sanitizer's report."""
    from .check import DeterminismSanitizer
    from .commmodel.network import MultiNodeModel
    from .tracegen import StochasticGenerator

    model = MultiNodeModel(machine)
    sanitizer = DeterminismSanitizer()
    model.sim.attach_sanitizer(sanitizer)
    gen = StochasticGenerator(StochasticAppDescription(), model.n_nodes,
                              seed=0)
    model.run(list(gen.generate_task_level(3)))
    return sanitizer.report(subject=f"determinism:{preset}")


def _cmd_check(args: argparse.Namespace) -> int:
    from .check import (RULES, check_bounds, check_description,
                        check_machine, check_traces, reports_to_dict)

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
        import json
        print(json.dumps(reports_to_dict(reports), indent=2,
                         sort_keys=True))
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
    from .check.diagnostics import Severity

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
        import json
        payload = reports_to_dict(
            reports, ok=not new_errors, n_new=len(new),
            n_baselined=len(known), n_suppressed=suppressed,
            n_stale=len(stale))
        if cache is not None:
            payload["cache"] = {"hits": cache.stats.hits,
                                "misses": cache.stats.misses,
                                "stores": cache.stats.stores}
        print(json.dumps(payload, indent=2, sort_keys=True))
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
    from .verify import (VERIFY_APPS, ScheduleExplorer, VerifyError,
                         app_verify_target)

    if args.app not in VERIFY_APPS:
        raise SystemExit(f"unknown app {args.app!r}; choose from: "
                         + ", ".join(VERIFY_APPS))
    machine = build_machine(args.preset, args.set or ())
    target = app_verify_target(machine, args.app)
    explorer = ScheduleExplorer(budget=args.budget,
                                mode="naive" if args.naive else "dpor")
    try:
        result = explorer.explore(target, workers=args.workers)
    except VerifyError as err:
        raise SystemExit(f"verification failed: {err}")
    report = result.report(subject=f"verify:{args.app}:{args.preset}")
    if args.json:
        import json
        print(json.dumps(reports_to_dict([report], verify=result.to_dict()),
                         indent=2, sort_keys=True))
    else:
        print(report.format())
        status = ("schedule-independent" if result.ok
                  else "NOT schedule-independent")
        print(f"verified {args.app} on {args.preset} ({result.mode}): "
              f"{status}; explored {result.schedules_explored}/"
              f"{result.schedules_planned} schedule(s), "
              f"{result.skipped} skipped, "
              f"frontier {len(result.frontier)}")
        print(f"certificate {result.certificate}")
    return 0 if result.ok else 1


def _cmd_bound(args: argparse.Namespace) -> int:
    import json

    from .bounds import audit_cache, compute_bounds, static_diagnostics
    from .check import Report, reports_to_dict

    if args.workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {args.workers}")
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
            print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        else:
            print(result.format())
        return 0 if result.ok else 1

    if not args.target:
        raise SystemExit("pass a bundled app name or .npz trace-set path "
                         "(or --audit CACHE_DIR)")
    machine = build_machine(args.preset, args.set or ())
    app = _resolve_app(args.target)
    if app is not None:
        traces = _app_traces()[app](machine.n_nodes)
        subject = f"bounds:{app}:{args.preset}"
    else:
        traces = TraceSet.load(args.target)
        subject = f"bounds:{args.target}"
    bound = compute_bounds(machine, traces, subject=subject)
    report = Report(subject=subject)
    report.extend(static_diagnostics(bound, subject=subject))
    if args.json:
        print(json.dumps(reports_to_dict([report], bound=bound.to_dict()),
                         indent=2, sort_keys=True))
    else:
        print(bound.format())
        if report.diagnostics:
            print(report.format())
    return 1 if report.errors else 0


def _run_app_traced(app: str, preset: str, overrides: Sequence[str],
                    ring: Optional[int] = None, faults=None):
    """Run a bundled app on a preset with a tracer attached.

    Returns ``(model, tracer, result)``; shared by the ``trace`` and
    ``stats`` commands.
    """
    from .commmodel.network import MultiNodeModel
    from .observe import Tracer

    machine = build_machine(preset, overrides)
    model = MultiNodeModel(machine, faults=faults)
    tracer = Tracer(capacity=ring)
    model.sim.attach_tracer(tracer)
    traces = _app_traces()[app](model.n_nodes)
    if faults is not None:
        from .faults import DeliveryFailed
        try:
            result = model.run(list(traces))
        except DeliveryFailed as err:
            raise SystemExit(
                f"fault plan defeated the transport: {err} "
                f"(raise transport.max_retries/timeout_cycles or lower "
                f"the drop probability)")
    else:
        result = model.run(list(traces))
    return model, tracer, result


def _cmd_trace(args: argparse.Namespace) -> int:
    app = _resolve_app(args.path)
    if app is None:
        traces = TraceSet.load(args.path)
        rows = trace_set_profile(traces)
        print(format_table(rows, title=f"trace profile ({args.path}):"))
        if args.dump is not None:
            from .analysis import dump_trace
            dump_trace(traces[args.dump_node], sys.stdout, limit=args.dump)
        return 0

    from .observe import validate_chrome_trace
    model, tracer, result = _run_app_traced(app, args.preset,
                                            args.set or (), args.ring,
                                            faults=_load_faults(args.faults))
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
    app = _resolve_app(args.app)
    if app is None:
        raise SystemExit(
            f"unknown app {args.app!r}; choose from: "
            + ", ".join(sorted(_app_traces())))
    model, _tracer, result = _run_app_traced(app, args.preset,
                                             args.set or (),
                                             faults=_load_faults(args.faults))
    registry = model.registry
    if args.json:
        import json
        print(json.dumps(registry.snapshot(), indent=2, sort_keys=True,
                         default=str))
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

    if args.workers is not None and args.workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {args.workers}")
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


def _submit_request(args: argparse.Namespace) -> dict:
    """Build the JSON job request from ``repro submit`` arguments."""
    import json

    request: dict = {"kind": args.job_kind, "preset": args.preset,
                     "set": args.set or [], "tenant": args.tenant,
                     "lane": args.lane}
    if args.timeout is not None:
        request["timeout_s"] = args.timeout
    if args.job_kind == "sweep":
        request.update({"axes": args.axis, "workload": args.workload,
                        "rounds": args.rounds, "seed": args.seed,
                        "on_error": args.on_error, "timing": args.timing})
        if args.faults:
            try:
                request["faults"] = json.loads(
                    Path(args.faults).read_text())
            except (OSError, ValueError) as exc:
                raise SystemExit(f"cannot read fault plan "
                                 f"{args.faults!r}: {exc}")
    else:
        try:
            request["campaign"] = json.loads(
                Path(args.campaign).read_text())
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot read campaign spec "
                             f"{args.campaign!r}: {exc}")
        request.update({"app": args.app, "size": args.size,
                        "repeats": args.repeats})
    return request


def _service_client(args: argparse.Namespace):
    from .service import ServiceClient
    return ServiceClient(args.server)


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from .service import ServiceError

    client = _service_client(args)
    request = _submit_request(args)
    try:
        record = client.submit(request)
        if args.wait:
            record = client.wait(record["id"], poll_s=args.poll)
    except ServiceError as exc:
        raise SystemExit(f"service error ({exc.status}): {exc.message}")
    except OSError as exc:
        raise SystemExit(f"cannot reach {args.server}: {exc}")
    print(json.dumps(record, indent=2, sort_keys=True))
    if args.wait and record["state"] != "done":
        return 1
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    import json

    from .service import ServiceError

    client = _service_client(args)
    try:
        record = client.status(args.job)
    except ServiceError as exc:
        raise SystemExit(f"service error ({exc.status}): {exc.message}")
    except OSError as exc:
        raise SystemExit(f"cannot reach {args.server}: {exc}")
    print(json.dumps(record, indent=2, sort_keys=True))
    return 1 if record["state"] == "failed" else 0


def _cmd_fetch(args: argparse.Namespace) -> int:
    import json

    from .service import ServiceError

    client = _service_client(args)
    try:
        result = client.result(args.job)
    except ServiceError as exc:
        raise SystemExit(f"service error ({exc.status}): {exc.message}")
    except OSError as exc:
        raise SystemExit(f"cannot reach {args.server}: {exc}")
    # Sweep rows / chaos verdicts only, dumped exactly like an
    # in-process run would dump them — tests/test_service_api.py
    # compares the bytes.
    payload = (result.get("rows") if result["kind"] == "sweep"
               else result.get("campaign"))
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


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
        p.add_argument("preset", choices=sorted(PRESETS))
        p.add_argument("--set", action="append", metavar="PATH=VALUE",
                       help="config override, e.g. "
                            "network.link_bandwidth=8")
        if name == "slowdown":
            p.add_argument("--ops", type=int, default=20_000,
                           help="instructions per node (default 20000)")
            p.add_argument("--host-clock-hz", type=float, default=2e9)
        if name == "stochastic":
            p.add_argument("--rounds", type=int, default=30)
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--mean-task-cycles", type=float,
                           default=20_000.0)
            from .tracegen import WORKLOAD_CLASSES as _classes
            p.add_argument("--workload", choices=sorted(_classes),
                           default=None,
                           help="use a workload-class preset instead of "
                                "the generic description")

    p = sub.add_parser(
        "sweep", help="parameter sweep over a preset (parallel, cached)")
    p.add_argument("preset", choices=sorted(PRESETS))
    p.add_argument("--axis", action="append", required=True,
                   metavar="PATH=V1,V2,...",
                   help="sweep axis, e.g. network.link_bandwidth=1,2,4,8 "
                        "(repeat for a cross product)")
    p.add_argument("--set", action="append", metavar="PATH=VALUE",
                   help="fixed config override applied before sweeping")
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="process-pool size (default 1 = serial)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="content-addressed result cache; re-runs only "
                        "simulate changed variants")
    p.add_argument("--rounds", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    from .tracegen import WORKLOAD_CLASSES as _wl
    p.add_argument("--workload", choices=sorted(_wl), default=None,
                   help="workload-class preset (default: generic "
                        "stochastic description)")
    p.add_argument("--timing", action="store_true",
                   help="add a per-variant wall_time_s column "
                        "(nondeterministic; not cached)")
    p.add_argument("--progress", action="store_true",
                   help="print per-variant progress on stderr")
    p.add_argument("--faults", default=None, metavar="PLAN.json",
                   help="fault-injection plan applied to every variant "
                        "(see repro.faults.FaultPlan; cache keys include "
                        "the plan digest)")

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
    p.add_argument("--preset", action="append", choices=sorted(PRESETS),
                   help="machine preset to check (repeatable; default: "
                        "every bundled preset, app and description)")
    p.add_argument("--set", action="append", metavar="PATH=VALUE",
                   help="config override applied to each --preset "
                        "before checking")
    p.add_argument("--trace", action="append", metavar="PATH",
                   help="saved .npz trace set to check (repeatable)")
    from .tracegen import WORKLOAD_CLASSES as _wl2
    p.add_argument("--workload", action="append", choices=sorted(_wl2),
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
    p.add_argument("--preset", choices=sorted(PRESETS),
                   default="t805-grid-2x2",
                   help="machine preset to verify the app on")
    p.add_argument("--set", action="append", metavar="PATH=VALUE",
                   help="config override, e.g. network.switching=wormhole")
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
    p.add_argument("app",
                   help="bundled app: pingpong, alltoall or pipeline")
    p.add_argument("--campaign", required=True, metavar="SPEC.json",
                   help="campaign spec JSON (see repro.chaos."
                        "CampaignSpec: base plan + generators + SLOs)")
    p.add_argument("--preset", choices=sorted(PRESETS),
                   default="t805-grid-2x2",
                   help="machine preset to run the campaign on")
    p.add_argument("--set", action="append", metavar="PATH=VALUE",
                   help="config override, e.g. network.switching=wormhole")
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="run the campaign's rungs on N worker processes "
                        "(default 1 = serial; results are identical)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="content-addressed result cache shared across "
                        "rungs; keys include each rung's plan digest")
    p.add_argument("--size", type=int, default=1024, metavar="BYTES",
                   help="app message/block size (default 1024)")
    p.add_argument("--repeats", type=int, default=4, metavar="N",
                   help="app repeats/rounds/items (default 4)")
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
    p.add_argument("--preset", choices=sorted(PRESETS),
                   default="t805-grid-2x2",
                   help="machine preset to bound the workload on")
    p.add_argument("--set", action="append", metavar="PATH=VALUE",
                   help="config override, e.g. network.link_bandwidth=8")
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
    p.add_argument("--preset", choices=sorted(PRESETS),
                   default="t805-grid-2x2",
                   help="machine preset to trace the app on")
    p.add_argument("--set", action="append", metavar="PATH=VALUE",
                   help="config override, e.g. network.switching=wormhole")
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
    p.add_argument("--preset", choices=sorted(PRESETS),
                   default="t805-grid-2x2")
    p.add_argument("--set", action="append", metavar="PATH=VALUE",
                   help="config override, e.g. network.switching=wormhole")
    p.add_argument("--faults", default=None, metavar="PLAN.json",
                   help="fault-injection plan; adds faults.* metric "
                        "sources to the snapshot")
    p.add_argument("--json", action="store_true",
                   help="machine-readable snapshot on stdout")

    p = sub.add_parser(
        "serve", help="run the async HTTP job server (simulation as a "
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
    for job_kind in ("sweep", "chaos"):
        k = kind.add_parser(job_kind)
        if job_kind == "sweep":
            k.add_argument("preset", choices=sorted(PRESETS))
            k.add_argument("--axis", action="append", required=True,
                           metavar="PATH=V1,V2,...",
                           help="sweep axis (repeatable)")
            k.add_argument("--workload", default=None,
                           help="stochastic workload class (default: "
                                "generic)")
            k.add_argument("--rounds", type=int, default=2)
            k.add_argument("--seed", type=int, default=0)
            k.add_argument("--on-error", choices=("capture", "raise"),
                           default="capture", dest="on_error")
            k.add_argument("--timing", action="store_true",
                           help="add wall_time_s columns "
                                "(nondeterministic)")
            k.add_argument("--faults", default=None, metavar="PLAN.json",
                           help="fault-injection plan file")
        else:
            k.add_argument("app", help="bundled app "
                                       "(pingpong/alltoall/pipeline)")
            k.add_argument("--campaign", required=True,
                           metavar="SPEC.json",
                           help="campaign spec file")
            k.add_argument("--preset", choices=sorted(PRESETS),
                           default="t805-grid-2x2")
            k.add_argument("--size", type=int, default=256)
            k.add_argument("--repeats", type=int, default=1)
        k.add_argument("--set", action="append", metavar="PATH=VALUE",
                       help="config override")
        k.add_argument("--server", default="http://127.0.0.1:8421")
        k.add_argument("--tenant", default="default")
        k.add_argument("--lane", choices=("high", "normal", "low"),
                       default="normal")
        k.add_argument("--timeout", type=float, default=None,
                       metavar="SECONDS", help="job wall-time budget")
        k.add_argument("--wait", action="store_true",
                       help="poll until the job ends; exit 1 unless it "
                            "finishes 'done'")
        k.add_argument("--poll", type=float, default=0.2,
                       metavar="SECONDS", help="--wait poll interval")

    p = sub.add_parser("status", help="print a job's record")
    p.add_argument("job", help="job id from repro submit")
    p.add_argument("--server", default="http://127.0.0.1:8421")

    p = sub.add_parser(
        "fetch", help="print a finished job's rows / campaign verdicts")
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
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
