"""Text reports over simulation results — the analysis-tool front end."""

from __future__ import annotations

from typing import Any, Optional, Sequence

__all__ = ["format_table", "comm_report", "node_report", "smp_report"]


def format_table(rows: Sequence[dict], columns: Optional[Sequence[str]] = None,
                 floatfmt: str = ".4g", title: str = "") -> str:
    """Render dict rows as an aligned text table.

    Column order follows ``columns`` (default: every key any row has,
    in first-seen order — an ``error`` column appears even when the
    first row succeeded).
    """
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    cols = list(columns) if columns \
        else list(dict.fromkeys(k for row in rows for k in row))

    def fmt(value: Any) -> str:
        if isinstance(value, float):
            return format(value, floatfmt)
        return str(value)

    rendered = [[fmt(r.get(c, "")) for c in cols] for r in rows]
    widths = [max(len(c), max(len(row[i]) for row in rendered))
              for i, c in enumerate(cols)]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def comm_report(result) -> str:
    """Human-readable summary of a :class:`~repro.commmodel.CommResult`."""
    s = result.summary()
    lat = s["message_latency"]
    lines = [
        f"machine: {s['machine']}",
        f"simulated time: {s['total_cycles']:.0f} cycles "
        f"({s['seconds'] * 1e3:.4g} ms)",
        f"messages: {s['engine']['messages_delivered']} delivered, "
        f"latency mean={lat['mean']:.4g} min={lat['min']:.4g} "
        f"max={lat['max']:.4g} cycles",
        f"parallel efficiency: {s['parallel_efficiency']:.2%}",
    ]
    node_rows = [{
        "node": a["node"],
        "compute": a["compute_cycles"],
        "send_wait": a["send_wait_cycles"],
        "recv_wait": a["recv_wait_cycles"],
        "overhead": a["overhead_cycles"],
        "ops": a["ops_processed"],
    } for a in s["nodes"]]
    lines.append(format_table(node_rows, title="per-node activity:"))
    return "\n".join(lines)


def node_report(result) -> str:
    """Summary of a :class:`~repro.compmodel.NodeResult`."""
    lines = [
        f"cycles: {result.cycles:.0f}  instructions: {result.instructions}"
        f"  CPI: {result.cpi:.3f}  time: {result.seconds * 1e3:.4g} ms",
    ]
    caches = result.memory_summary.get("caches", {})
    rows = [{
        "cache": name,
        "accesses": c["accesses"],
        "hit_rate": c["hit_rate"],
        "evictions": c["evictions"],
        "writebacks": c["writebacks"],
    } for name, c in caches.items()]
    if rows:
        lines.append(format_table(rows, title="cache behaviour:"))
    mem = result.memory_summary.get("memory", {})
    lines.append(f"memory: {mem.get('reads', 0)} reads, "
                 f"{mem.get('writes', 0)} writes")
    return "\n".join(lines)


def smp_report(result) -> str:
    """Summary of a :class:`~repro.sharedmem.SMPResult`."""
    s = result.summary()
    lines = [
        f"simulated time: {s['total_cycles']:.0f} cycles",
        f"coherence: {s['coherence']['transactions']} bus transactions "
        f"({s['coherence']['bus_rd']} rd / {s['coherence']['bus_rdx']} rdx / "
        f"{s['coherence']['bus_upgr']} upgr), "
        f"{s['coherence']['invalidations']} invalidations, "
        f"{s['coherence']['cache_to_cache']} cache-to-cache",
    ]
    rows = [{
        "cpu": a["cpu"],
        "busy": a["busy_cycles"],
        "mem_stall": a["mem_stall_cycles"],
        "instructions": a["instructions"],
    } for a in s["cpus"]]
    lines.append(format_table(rows, title="per-CPU activity:"))
    return "\n".join(lines)
