"""Lint by grep: constructs a simplification removed must stay removed.

Each case names a pattern that may not appear in the Python sources
under ``src/`` (optionally only in some files, optionally allowed in
some), because one place now does that job.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: (what it protects, pattern, glob under the repo root, allowed files)
CASES = [
    ("one worker pool: processes belong to parallel.pool.WorkerPool",
     r"ProcessPoolExecutor", "src/**/*.py", ()),
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
