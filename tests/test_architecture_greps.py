"""Lint by grep: constructs a simplification removed must stay removed.

Each case names a pattern that may not appear in the Python sources
under ``src/`` (optionally only in some files, optionally allowed in
some), because one place now does that job.  The CI workflow gets the
same treatment: what must hold is a test, so the workflow only
installs, runs pytest and the two benchmark gates, and lints.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: the former homes of the two leaf modules, barred from every import
_LEAVES = ("one import order: configuration and diagnostics are the leaves "
           "repro.config and repro.diagnostics (tests/test_layers.py)",
           r"core\.config|core import config|check\.diagnostics")

#: every multi-node mode hands its node processes to the network's one
#: run loop, which alone attaches the deadlock and delivery-failure detail
_ONE_RUN_LOOP = ("one multi-node run loop: MultiNodeModel.run_bodies starts "
                 "the node processes and runs the kernel",
                 r"sim\.(run|process)\(")

#: (what it protects, pattern, glob under the repo root, allowed files)
CASES = [
    ("one worker pool: processes belong to parallel.pool.WorkerPool",
     r"ProcessPoolExecutor", "src/**/*.py", ()),
    ("one pool per process: only process_pool builds a WorkerPool; "
     "executors borrow it",
     r"WorkerPool\(", "src/**/*.py", ("src/repro/parallel/pool.py",)),
    ("one kernel, no selector: the reference dispatcher lives in tests/",
     r"REPRO_KERNEL|FastSimulator", "src/**/*.py", ()),
    ("one batched cost loop, one cost table (CPU.fixed_rows)",
     r"run_trace_fast|batched_fixed_cycles|fixed_cost_table",
     "src/**/*.py", ()),
    ("one execution path: the fault plan is a coordinate of the point",
     r"FaultedRunner|_RungTask|_run_rung", "src/**/*.py", ()),
    ("one execution path: run_sharded serves only the two fan-outs that "
     "are not sweeps",
     r"(?<!def )run_sharded\(", "src/**/*.py",
     ("src/repro/verify/explorer.py", "src/repro/bounds/audit.py")),
    ("one pre-flight site: the job body decides whether a variant may run",
     r"check_machine|preflight=", "src/repro/core/experiment.py", ()),
    ("one pre-flight site: the job body decides whether a variant may run",
     r"check_machine|preflight=", "src/repro/service/*.py", ()),
    ("one paper runner: the benches take no environment knobs",
     r"REPRO_SWEEP_", "benchmarks/*.py", ()),
    ("one trace validator: repro.check.check_traces",
     r"validate_trace_set|ValidationError|operations\.validate",
     "src/**/*.py", ()),
    ("one trace validator: repro.check.check_traces",
     r"validate_trace_set|ValidationError|operations\.validate",
     "tests/**/*.py", ("tests/test_architecture_greps.py",)),
    ("one field table: the config walkers read the cached field names",
     r"dataclasses\.is_dataclass", "src/repro/config.py", ()),
    (*_LEAVES, "src/**/*.py", ("src/repro/core/config.py",)),
    (*_LEAVES, "tests/**/*.py", ("tests/test_architecture_greps.py",)),
    (*_LEAVES, "examples/**/*.py", ()),
    ("one description of the checks: CI runs tests, not heredocs or the "
     "CLI",
     r"<<|python3? -m repro", ".github/workflows/*.yml", ()),
    ("one job table: only the service's JobManager keeps jobs by id",
     r"_jobs\b|def (poll|stream)\b|JobStatus", "src/repro/parallel/*.py", ()),
    ("one job thread: a job runs on its submitter's thread",
     r"\bqueue\b|threading\.Thread\(|def _start",
     "src/repro/parallel/executor.py", ()),
    ("one job queue: the dispatcher blocks and is woken by close()",
     r"acquire\(timeout=", "src/repro/service/jobs.py", ()),
    ("one concurrency model: threads and conditions, no event loop",
     r"asyncio", "src/**/*.py", ()),
    ("observers wait on the record's condition, clients included: "
     "ServiceClient.wait long-polls it",
     r"sleep\(|events_since", "src/repro/service/*.py", ()),
    ("one store: only repro.store maps a key to its entry, writes an "
     "entry or lists entries",
     r'atomic_write_text|key\[:2\]|glob\("\*/\*\.json"\)',
     "src/repro/**/*.py", ("src/repro/store.py",)),
    ("one store: the audit reads cache entries through Store.get",
     r"json\.loads?\(", "src/repro/bounds/audit.py", ()),
    ("one observer slot: the tracer, the sanitizer and every other watcher "
     "of a run is sim.observer (module paths such as check.sanitizer "
     "are not attributes)",
     r"trace_hook|attach_(tracer|sanitizer|tie_break)"
     r"|\.(tracer|sanitizer)\b(?! import|\.[A-Z])",
     "src/**/*.py", ()),
    ("one node pipeline: VSM nodes run the hybrid model's driver, and a "
     "page fault is a global event its network hands to the protocol",
     r"extract_tasks|sim\.run\(", "src/repro/vsm/*.py", ()),
    (*_ONE_RUN_LOOP, "src/repro/hybrid/*.py", ()),
    (*_ONE_RUN_LOOP, "src/repro/vsm/model.py", ()),
    (*_ONE_RUN_LOOP, "src/repro/sharedmem/hybridarch.py", ()),
    (*_ONE_RUN_LOOP, "examples/*.py", ()),
]

@pytest.mark.parametrize("why, pattern, glob, allowed", CASES,
                         ids=[f"{c[1]} in {c[2]}" for c in CASES])
def test_pattern_stays_out(why, pattern, glob, allowed):
    files = sorted(ROOT.glob(glob))
    assert files, f"{glob} matches no file"
    regex = re.compile(pattern)
    hits = [f"{path.relative_to(ROOT)}:{n}: {line.strip()}"
            for path in files
            if str(path.relative_to(ROOT)) not in allowed
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if regex.search(line)]
    assert not hits, f"{why}\n" + "\n".join(hits)


#: (what has one owner, pattern, glob under the repo root): each
#: pattern appears exactly once in the files the glob matches
ONCE = [
    ("one unknown-app wording: repro.apps.task_app",
     r"unknown (verify )?app(lication)? \{", "src/**/*.py"),
    ("one workload rule: repro.tracegen.workload_description",
     r"WORKLOAD_CLASSES\[", "src/**/*.py"),
    ("one sweep workload id, spelled and read in repro.tracegen",
     r'"cli-stochastic', "src/**/*.py"),
    ("one CLI trace-set loader", r"TraceSet\.load\(", "src/repro/cli.py"),
    ("one declaration of machine selection in the CLI", r'"--set"',
     "src/repro/cli.py"),
]


@pytest.mark.parametrize("why, pattern, glob", ONCE,
                         ids=[f"{c[1]} once in {c[2]}" for c in ONCE])
def test_name_has_one_owner(why, pattern, glob):
    regex = re.compile(pattern)
    hits = [f"{path.relative_to(ROOT)}:{n}: {line.strip()}"
            for path in sorted(ROOT.glob(glob))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if regex.search(line)]
    assert len(hits) == 1, f"{why}\n" + "\n".join(hits)


def test_executor_stream_is_the_job_states_follow():
    """One event-follow loop: ``JobState.follow``, which the service's
    ``/events`` handler rides."""
    source = (ROOT / "src/repro/service/server.py").read_text()
    handler = next(node for node in ast.parse(source).body
                   if isinstance(node, ast.ClassDef)
                   and node.name == "_Handler")
    stream = next(node for node in handler.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "_stream_events")
    assert ".follow()" in ast.get_source_segment(source, stream)


def test_line_numbers_resolved_only_on_a_site_memo_miss():
    """Reading ``f_lineno`` walks the code's line table (a constant site
    took fft generation from 121 to 49 ms): only the site memo's miss
    path may."""
    hits = [f"{path.relative_to(ROOT)}:{n}"
            for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if "f_lineno" in line]
    assert len(hits) == 1, hits
    source = (ROOT / "src/repro/apps/api.py").read_text()
    miss_path = ast.get_source_segment(source, next(
        node for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef)
        and node.name == "_resolve_site"))
    assert "f_lineno" in miss_path


def test_one_site_wraps_a_program_into_an_application():
    """Every execution-driven entry point accepts a bare ``program(ctx)``
    through ``repro.apps.api.as_application``, the one type test."""
    hits = [f"{path.relative_to(ROOT)}:{node.lineno}"
            for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2
            and "ThreadedApplication" in ast.unparse(node.args[1])]
    assert len(hits) == 1, hits
    assert hits[0].startswith("src/repro/apps/api.py:"), hits


@pytest.mark.parametrize("relpath", ["src/repro/tracegen/annotate.py",
                                     "src/repro/tracegen/stochastic.py"])
def test_no_enum_member_read_in_a_function_body(relpath):
    """``OpCode.LOAD`` costs ~180 ns and ``MemType.FLOAT64.nbytes``
    ~220 ns on CPython 3.11, several per emitted op: the per-op paths
    read module constants bound once at import."""
    tree = ast.parse((ROOT / relpath).read_text())
    hits = [f"{relpath}:{node.lineno}: {ast.unparse(node)}"
            for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            for stmt in fn.body for node in ast.walk(stmt)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("OpCode", "MemType", "ArithType")]
    assert not hits, "\n".join(hits)


#: The only commands a CI ``run:`` step may execute.
CI_COMMAND = re.compile(
    r"(PYTHONPATH=src )?(python3? -m (pip install|pytest)"
    r"|python3? benchmarks/(layered/run|bench_perf_kernel)\.py"
    r"|ruff|mypy)( |$)")


def ci_commands(text: str) -> list[str]:
    """Every command line of every ``run:`` step of a workflow."""
    lines = text.splitlines()
    commands: list[str] = []
    for i, line in enumerate(lines):
        match = re.match(r"(\s*)(- )?run: (.*)$", line)
        if not match:
            continue
        indent, value = len(match.group(1)), match.group(3).strip()
        if value == "|":
            value = ""
            for nxt in lines[i + 1:]:
                if nxt.strip() and len(nxt) - len(nxt.lstrip()) <= indent:
                    break
                value += nxt.strip() + "\n"
            value = value.replace("\\\n", " ")
        commands += [c.strip() for c in value.splitlines() if c.strip()]
    return commands


def test_ci_runs_only_tests_gates_and_linters():
    workflow = ROOT / ".github" / "workflows" / "ci.yml"
    commands = ci_commands(workflow.read_text())
    assert commands, f"{workflow} has no run: step"
    odd = [c for c in commands if not CI_COMMAND.match(c)]
    assert not odd, ("what must hold is a tier-1 test, not a CI step:\n"
                     + "\n".join(odd))
