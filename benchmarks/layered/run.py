"""Layered end-to-end benchmark: Pearl kernel to HTTP job server.

One command runs every workload with tracing off, checks every
simulated result against ``expected.json`` and prints every
end-to-end metric by name with its unit::

    PYTHONPATH=src python benchmarks/layered/run.py --seed 1

``--trace`` adds a second, shorter run of each workload with a span
around each call into a layer's public functions, plus the per-layer
probes, and prints the per-layer numbers.  With ``--workload NAME
--seconds S --trace 0|1`` it measures one workload for ``S`` seconds
and ends with one JSON line (the form ``BENCHMARK.json`` names as its
command).  See README.md next to this file for the metric definitions,
the workload table and how to compare two commits.

Each measurement runs in a fresh child interpreter (``child.py``); this
file only starts children, aggregates, prints, and compares.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

SPEC_PATH = ROOT / "BENCHMARK.json"
#: scratch: one directory per child, removed when the child has ended
WORK = HERE / ".work"
SCHEMA = "repro-bench-layered/1"
#: seeds whose facts are committed in expected.json
DEFAULT_SEED, HELD_OUT_SEED = 1, 20260930
#: set-ups per run; ``setup_s`` is their median
SETUPS = 3
#: a child still running after this is interrupted, and killed when it
#: has not ended ``CHILD_GRACE_S`` later (the contract's cap is 180 s)
CHILD_TIMEOUT_S = 150
CHILD_GRACE_S = 20


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def kill_session(sid: int) -> None:
    """SIGKILL every process of session ``sid``: a child's server,
    executor and pool workers, whatever process group they are in."""
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # "pid (comm) state ppid pgrp session ..."
            session = int(stat.read_text().rsplit(")", 1)[1].split()[3])
            if session == sid:
                os.kill(int(stat.parent.name), signal.SIGKILL)
        except (OSError, ValueError, IndexError):
            pass                        # the process ended meanwhile


def child(workload: str, seed: int, **options: Any) -> dict:
    """Run ``child.py`` once; its last stdout line is the result.

    The child leads a session of its own.  However this function is
    left (result, time-out, Ctrl-C, SIGTERM), the child has ended, no
    process of its session is alive and its scratch directory is gone.
    """
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    argv = [sys.executable, str(HERE / "child.py"), "--workload", workload,
            "--seed", str(seed), "--workdir", workdir,
            "--t0", repr(time.perf_counter())]
    for key, value in options.items():
        if value is True:
            argv.append(f"--{key.replace('_', '-')}")
        elif value not in (None, False):
            argv += [f"--{key.replace('_', '-')}", str(value)]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload}: child still running after "
                         f"{CHILD_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            # Interrupt it first, so that its own teardown (server
            # shutdown, pool exit) runs; then make sure.
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(CHILD_GRACE_S)
            except subprocess.TimeoutExpired:
                pass
        kill_session(proc.pid)
        proc.communicate()
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: child exited with code "
                         f"{proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, *, seconds: Optional[float] = None,
                 ops: Optional[int] = None, trace: bool, setups: int) -> dict:
    """One workload, one mode (traced or not), as one result object."""
    if trace:
        return child(name, seed, seconds=seconds, ops=ops, trace=1)
    extra = [child(name, seed, setup_only=True) for _ in range(setups - 1)]
    result = child(name, seed, seconds=seconds, ops=ops)
    setup_runs = [r["setup_s"] for r in extra] + [result["setup_s"]]
    result["setup_runs_s"] = setup_runs
    result["attempted"] += sum(r["attempted"] for r in extra)
    result["failed"] += sum(r["failed"] for r in extra)
    result["errors"] = sorted({e for r in [*extra, result]
                               for e in r["errors"]})[:5]
    result["metrics"]["setup_s"] = statistics.median(setup_runs)
    result["metrics"]["peak_rss_mb"] = result.pop("peak_rss_mb")
    return result


def units(spec: dict) -> dict[str, str]:
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def print_metrics(title: str, metrics: dict, unit_of: dict[str, str],
                  note: str = "") -> None:
    print(f"\n== {title} {note}".rstrip())
    for name in sorted(metrics):
        value = metrics[name]
        if isinstance(value, (int, float)):
            print(f"  {name:42s} {value:16.6g} {unit_of.get(name, '')}")


def driver_line(result: dict, names: list[str], unit_of: dict) -> str:
    """The contract's last line: exactly the named metrics."""
    metrics = result["metrics"]
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {n: {"value": metrics[n], "unit": unit_of[n]}
                    for n in names}})


# -- modes --------------------------------------------------------------------


def single(args: argparse.Namespace, spec: dict) -> int:
    """``--workload NAME``: one workload, the driver's form."""
    unit_of = units(spec)
    traced = bool(args.trace)
    if args.quick and not args.seconds:
        length: dict = {"ops": 6}
    else:
        length = {"seconds": args.seconds or float(spec["run_seconds"])}
    result = run_workload(args.workload, args.seed, trace=traced,
                          setups=1 if args.quick else SETUPS, **length)
    if traced:
        result["metrics"].update(child("probes", args.seed)["metrics"])
    names = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]
    print_metrics(args.workload, result["metrics"], unit_of,
                  "(traced)" if traced else "")
    for error in result["errors"]:
        print(f"  FAILED: {error}", file=sys.stderr)
    if args.out:
        append_run(args.out, {args.workload: result}, args)
    print(driver_line(result, names, unit_of))
    return 1 if result["failed"] else 0


def full(args: argparse.Namespace, spec: dict) -> int:
    """Every workload untraced; with ``--trace`` also traced + probes."""
    from workloads import WORKLOADS

    unit_of = units(spec)
    run: dict = {}
    started = time.perf_counter()
    def length(cls: type, share: int = 1) -> dict:
        """The run's length: --seconds, else the workload's op count."""
        if args.seconds:
            return {"seconds": args.seconds / share}
        ops = 3 * cls.clients if args.quick else cls.full_ops
        return {"ops": max(cls.clients, ops // share)}

    for name, cls in WORKLOADS.items():
        result = run_workload(name, args.seed, trace=False,
                              setups=1 if args.quick else SETUPS,
                              **length(cls))
        m = result["metrics"]
        print_metrics(name, m, unit_of,
                      f"(tail = p{m['tail_percentile']} of {m['samples']} "
                      f"samples, kernel {result['kernel_mode']})")
        run[name] = result
    print(f"\nuntraced run: {time.perf_counter() - started:.1f} s wall")
    if args.trace:
        started = time.perf_counter()
        for name, cls in WORKLOADS.items():
            traced = run_workload(name, args.seed, trace=True, setups=1,
                                  **length(cls, share=5))
            print_metrics(name, traced["metrics"], unit_of,
                          f"(traced, {traced['traced_ops']} ops, "
                          f"{traced['trace_file']})")
            run[name]["traced"] = traced
        probes = child("probes", args.seed)
        print_metrics("layer probes", probes["metrics"], unit_of,
                      f"({probes['trace_file']})")
        run["probes"] = probes
        print(f"\ntraced run: {time.perf_counter() - started:.1f} s wall")
    results = [r for r in run.values() if "attempted" in r]
    results += [r["traced"] for r in results if "traced" in r]
    failed = sum(r["failed"] for r in results)
    for error in sorted({e for r in results for e in r["errors"]}):
        print(f"FAILED: {error}", file=sys.stderr)
    print(f"\n{sum(r['attempted'] for r in results)} ops attempted, "
          f"{failed} failed")
    if args.out:
        append_run(args.out, run, args)
    return 1 if failed else 0


def append_run(path: str, run: dict, args: argparse.Namespace) -> None:
    """Add one run to ``path`` (created if missing): repeated runs of a
    commit accumulate in one file, which is what ``--compare`` reads."""
    target = Path(path)
    doc = (json.loads(target.read_text()) if target.exists()
           else {"schema": SCHEMA, "runs": []})
    doc["runs"].append({
        "seed": args.seed, "seconds": args.seconds, "quick": args.quick,
        "python": platform.python_version(),
        "platform": platform.platform(), "workloads": run})
    target.write_text(json.dumps(doc, indent=1) + "\n")


def compare(base_path: str, change_path: str, spec: dict) -> int:
    """One row per (workload, end-to-end metric): medians, ratio, verdict."""
    def collect(path: str) -> dict[tuple[str, str], list[float]]:
        values: dict[tuple[str, str], list[float]] = {}
        for run in json.loads(Path(path).read_text())["runs"]:
            for name, result in run["workloads"].items():
                for metric in spec["end_to_end"]:
                    value = result.get("metrics", {}).get(metric["name"])
                    if value is not None:
                        values.setdefault((name, metric["name"]),
                                          []).append(value)
        return values
    base, change = collect(base_path), collect(change_path)
    print(f"base = {base_path}, change = {change_path}; ratio = "
          f"change median / base median")
    print(f"{'workload':16s} {'metric':14s} {'base':>12s} {'change':>12s} "
          f"{'ratio':>7s} {'spread':>7s} {'bound':>6s}  verdict")
    worse = 0
    for metric in spec["end_to_end"]:
        for (name, key), values in sorted(base.items()):
            if key != metric["name"] or (name, key) not in change:
                continue
            row = stats.compare_metric(values, change[name, key],
                                       metric["better"], metric["bound"])
            worse += row["verdict"] == "worse"
            print(f"{name:16s} {key:14s} {row['base_median']:12.5g} "
                  f"{row['change_median']:12.5g} {row['ratio']:7.3f} "
                  f"{row['spread']:7.3f} {metric['bound']:6.2f}  "
                  f"{row['verdict']} ({len(values)} vs "
                  f"{len(change[name, key])} runs)")
    return 1 if worse else 0


def regen_expected() -> int:
    """Rewrite expected.json from this tree, for both committed seeds.

    Only a change that is *meant* to alter simulated results may commit
    the outcome; a speed-up must leave the file untouched.
    """
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import EXPECTED_PATH, WORKLOADS

    WORK.mkdir(exist_ok=True)
    out: dict = {}
    for name, cls in WORKLOADS.items():
        entry: dict = {"fixed": {}, "seeds": {}}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            workdir = Path(tempfile.mkdtemp(prefix="regen-", dir=WORK))
            # The facts come from the tree, not from the file.
            workload = cls(seed, workdir, references=False)
            seeded: dict = {}
            try:
                workload.setup()
                # 8 ops per client cover every fact: all of sweep_cold's
                # runner seeds, the first 4 cold jobs of each client.
                for client in range(cls.clients):
                    for i in range(8):
                        result = workload.op(i, client)
                        problem = workload.verify(result)
                        if problem:
                            raise SystemExit(f"inconsistent: {problem}")
                        fixed, more = workload.expected_entry(result)
                        entry["fixed"].update(fixed)
                        for key, value in more.items():
                            if isinstance(value, dict):
                                seeded.setdefault(key, {}).update(value)
                            else:
                                seeded[key] = value
                        if result.cleanup:
                            result.cleanup()
            finally:
                workload.teardown()
                shutil.rmtree(workdir, ignore_errors=True)
            entry["seeds"][str(seed)] = seeded
        out[name] = entry
    EXPECTED_PATH.write_text(json.dumps(
        {"schema": SCHEMA, "seeds": [DEFAULT_SEED, HELD_OUT_SEED],
         "facts": "per simulation: [total_cycles, kernel events, trace "
                  "ops, messages delivered, mean message latency]; rows: "
                  "sha256[:16] of the row list's canonical JSON",
         "workloads": out}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED_PATH}")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="all inputs derive from it (default "
                             f"{DEFAULT_SEED}; held out: {HELD_OUT_SEED})")
    parser.add_argument("--workload", default=None,
                        help="measure this workload only and end with the "
                             "driver's JSON line")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure each workload for this long instead "
                             "of a fixed op count")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        help="also (with --workload: only) make the traced "
                             "run and print the per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="3 ops per client, one set-up: a smoke run")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="append this run's JSON to FILE")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two --out files, A as the base")
    parser.add_argument("--regen-expected", action="store_true",
                        help="rewrite expected.json from this tree")
    args = parser.parse_args(argv)
    # A terminated run unwinds like an interrupted one: child() reaps.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    if args.regen_expected:
        return regen_expected()
    if args.workload is not None:
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            parser.error(f"unknown workload {args.workload!r}")
        return single(args, spec)
    return full(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
