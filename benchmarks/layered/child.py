"""One workload, measured inside a fresh interpreter.

``run.py`` starts this file once per measurement so that no workload
inherits another's imports, caches, heap or pool workers.  It sets the
workload up, runs the warm-up ops, then either

* measures a closed loop of ops with tracing off (end-to-end numbers),
* or, with ``--trace 1``, measures a short untraced stretch, installs
  the spans of :mod:`spans`, measures a traced stretch of the same op,
  and derives the per-layer numbers and the tracing overhead,
* or, with ``--setup-only``, stops after the warm-up and reports only
  the set-up time (``run.py`` takes the median of several set-ups).

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
RESULTS = HERE / "results"
sys.path[:0] = [str(HERE), str(SRC)]

import spans  # noqa: E402
import stats  # noqa: E402

#: share of a traced run's budget spent on the untraced stretch that
#: the tracing overhead is measured against
BASELINE_SHARE = 1 / 3


def run_ops(workload: Any, op: Callable[[int, int], Any], first: int, *,
            seconds: Optional[float], ops: Optional[int]) -> list[dict]:
    """Closed loop: each client starts its next op when the last one
    returned, until ``seconds`` have passed or ``ops`` ops (all clients
    together) are done.  Returns one record per op, in completion order.
    """
    records: list[dict] = []
    clients = workload.clients
    deadline = None if seconds is None else time.perf_counter() + seconds
    quota = None if ops is None else max(1, ops // clients)

    def loop(client: int) -> None:
        i = first
        while (quota is None or i - first < quota) and (
                deadline is None or time.perf_counter() < deadline
                or i == first):
            record = {"client": client, "op": i, "ok": False,
                      "events": 0, "executed": 0}
            result = None
            start = time.perf_counter()
            try:
                result = op(i, client)
            except Exception as exc:  # noqa: BLE001 - a failed op is data
                record["error"] = f"{type(exc).__name__}: {exc}"
            record["latency_s"] = time.perf_counter() - start
            if result is not None:
                record["error"] = workload.verify(result)
                record["ok"] = record["error"] is None
                if record["ok"]:
                    record["events"] = result.events
                    record["executed"] = result.executed
                if result.cleanup is not None:
                    result.cleanup()
            records.append(record)      # list.append is atomic
            i += 1

    if clients == 1:
        loop(0)
    else:
        # daemon: an interrupted child ends without its clients' leave
        threads = [threading.Thread(target=loop, args=(c,),
                                    name=f"client{c}", daemon=True)
                   for c in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return records


def rates(records: list[dict], clients: int) -> tuple[float, float]:
    """(verified ops / s, delivered events / s), as block medians."""
    latencies = [r["latency_s"] for r in records]
    return (stats.block_rate(latencies, [1.0 if r["ok"] else 0.0
                                        for r in records], clients),
            stats.block_rate(latencies, [float(r["events"])
                                        for r in records], clients))


def end_to_end(records: list[dict], clients: int) -> dict:
    """The per-run end-to-end numbers (set-up and memory are added by
    the caller).  A failed op has no latency sample."""
    ok_ms = [r["latency_s"] * 1e3 for r in records if r["ok"]]
    ops_per_s, events_per_s = rates(records, clients)
    tail = stats.tail_percentile(len(ok_ms))
    return {
        "ops_per_s": ops_per_s,
        "events_per_s": events_per_s,
        "op_p50_ms": statistics.median(ok_ms) if ok_ms else 0.0,
        "op_tail_ms": stats.percentile(ok_ms, tail) if ok_ms else 0.0,
        "tail_percentile": tail,
        "samples": len(ok_ms),
        "failed_frac": (sum(1 for r in records if not r["ok"])
                        / len(records)),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for
    (pool workers, the server and the server's workers)."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def traced_metrics(workload: Any, tracer: spans.Tracer,
                   traced: list[dict], baseline: list[dict]) -> dict:
    """Per-layer numbers of one workload from its traced ops."""
    n = len(traced)
    roots = [s for s in tracer.spans if s.parent is None]
    op_wall = sum(s.duration for s in roots)
    own = spans.layer_self_seconds(tracer.spans)
    metrics = {f"{layer}.self_ms_per_op": own[layer] * 1e3 / n
               for layer in (*spans.LAYERS, spans.HARNESS)}
    base_rate, _ = rates(baseline, workload.clients)
    traced_rate, _ = rates(traced, workload.clients)
    counters = workload.counters
    lookups = counters["cache_lookups"]
    metrics.update({
        "traced_op_ms": op_wall * 1e3 / n,
        "layers_covered_frac": (1.0 - own[spans.HARNESS] / op_wall
                                if op_wall else 0.0),
        "trace_overhead_frac": (1.0 - traced_rate / base_rate
                                if base_rate else 0.0),
        "spans_per_op": len(tracer.spans) / n,
        "pearl.executed_events_per_op":
            sum(r["executed"] for r in traced) / n,
        "parallel.cache_hit_rate":
            counters["cache_hits"] / lookups if lookups else 0.0,
        "parallel.error_rows": counters["error_rows"],
        "service.rejected": counters["rejected"],
        "service.failed_jobs": counters["failed_jobs"],
    })
    return metrics


def write_trace(tracer: spans.Tracer, label: str) -> str:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"trace-{label}.json"
    path.write_text(json.dumps(spans.chrome_trace(tracer.spans, label)))
    return str(path.relative_to(HERE))


def op_of(workload: Any, traced: bool,
          tracer: Any) -> Callable[[int, int], Any]:
    """The op a run times.  A traced run of a workload whose layers
    interleave inside one public call times the staged path instead,
    on both sides of the switch: like is compared with like."""
    if traced and workload.staged_op is not None:
        return lambda i, client: workload.staged_op(i, tracer)
    return workload.op


def traced_stretch(workload: Any, tracer: spans.Tracer, first: int,
                   args: argparse.Namespace) -> tuple[list[dict], list[dict]]:
    """``(baseline, traced)`` records: an untraced stretch, then the
    same op with the spans installed.  A time budget is split 1:2
    between them; an op budget is the traced stretch's, and the
    baseline runs a third as many on top."""
    share = BASELINE_SHARE
    baseline = run_ops(
        workload, op_of(workload, True, spans.NullTracer()), first,
        seconds=None if args.seconds is None else args.seconds * share,
        ops=None if args.ops is None
        else max(workload.clients, int(args.ops * share)))
    for key in workload.counters:       # count the traced ops only
        workload.counters[key] = 0

    op = op_of(workload, True, tracer)

    def traced_op(i: int, client: int) -> Any:
        with tracer.span(spans.HARNESS, "op", op=f"{client}:{i}"):
            return op(i, client)
    undo = spans.install(tracer)
    try:
        traced = run_ops(
            workload, traced_op, first + len(baseline),
            seconds=None if args.seconds is None
            else args.seconds * (1 - share),
            ops=args.ops)
    finally:
        undo()
    return baseline, traced


def measure(args: argparse.Namespace, workdir: Path) -> dict:
    from repro.pearl import kernel_mode
    from workloads import WARMUP_OPS, WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, workdir)
    out: dict = {"workload": workload.name, "seed": args.seed,
                 "clients": workload.clients, "kernel_mode": kernel_mode(),
                 "nproc": os.cpu_count(), "python": platform.python_version(),
                 "platform": platform.platform()}
    tracer = spans.Tracer()
    op = op_of(workload, bool(args.trace), spans.NullTracer())
    records: list[dict] = []
    try:
        workload.setup()
        warmup = run_ops(workload, op, 0, seconds=None,
                         ops=WARMUP_OPS * workload.clients)
        out["setup_s"] = time.perf_counter() - args.t0
        if args.setup_only:
            pass
        elif args.trace:
            baseline, traced = traced_stretch(workload, tracer, WARMUP_OPS,
                                              args)
            records = baseline + traced
        else:
            records = run_ops(workload, op, WARMUP_OPS,
                              seconds=args.seconds, ops=args.ops)
    finally:
        workload.teardown()
    if args.setup_only:
        pass
    elif args.trace:
        out["metrics"] = traced_metrics(workload, tracer, traced, baseline)
        out["traced_ops"] = len(traced)
        out["trace_file"] = write_trace(tracer, workload.name)
    else:
        out["metrics"] = end_to_end(records, workload.clients)
        out["samples_ms"] = [round(r["latency_s"] * 1e3, 4)
                             for r in records if r["ok"]]
    # A failed warm-up op is a failed op too, though it has no sample.
    failed = [r for r in warmup + records if not r["ok"]]
    out["attempted"] = len(warmup) + len(records)
    out["failed"] = len(failed)
    out["errors"] = sorted({str(r["error"]) for r in failed})[:5]
    out["counters"] = dict(workload.counters)
    out["peak_rss_mb"] = peak_rss_mb()
    return out


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True,
                        help="scratch directory; run.py makes and "
                             "removes it")
    parser.add_argument("--t0", type=float, default=None,
                        help="parent's perf_counter() when it started "
                             "this child (set-up time counts from there)")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--ops", type=int, default=None)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.t0 is None:
        args.t0 = time.perf_counter()
    # run.py interrupts a child it gives up on; unwind through the
    # teardown even when SIGINT was inherited as ignored (background).
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, signal.default_int_handler)
    if args.workload == "probes":
        import probes
        tracer = spans.Tracer()
        out = {"workload": "probes", "seed": args.seed,
               "metrics": probes.run_all(args.seed, args.workdir, tracer),
               "trace_file": write_trace(tracer, "probes")}
    else:
        out = measure(args, args.workdir)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
