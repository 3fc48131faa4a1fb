"""Trace exporters: JSON-lines files and human-readable summaries.

The on-disk format is one JSON object per line, written pre-order so a
trace is streamable and greppable:

    {"type": "span", "id": 3, "parent": 2, "name": "chunk",
     "start": 0.01234, "seconds": 0.4, "attrs": {"trials": 50}}
    ...
    {"type": "metrics", "counters": {...}, "gauges": {...}}

``id``/``parent`` reconstruct the nesting, so :func:`read_trace_jsonl`
round-trips exactly what :meth:`Telemetry.snapshot` produced.
:func:`summarize_trace` accepts either a snapshot dict or a trace path and
computes the report behind ``python -m repro trace summarize``: per-name
cumulative and self time (self = cumulative minus direct children, i.e.
time a layer spent that no deeper instrumented layer accounts for), cache
hit rates, bytes shipped, worker utilisation (busy-seconds shipped
back from workers over the traced wall-clock), and the heap policy and
page faults of the ``train`` spans.

Trace files are volatile observability artifacts — nothing here feeds
canonical reports, spec hashes or golden BO traces.
"""

from __future__ import annotations

import json
from pathlib import Path

from .tracer import Span

__all__ = [
    "write_trace_jsonl",
    "read_trace_jsonl",
    "summarize_trace",
    "format_trace_summary",
    "span_breakdown",
]


# --------------------------------------------------------------------- #
# JSON-lines round trip
# --------------------------------------------------------------------- #

def write_trace_jsonl(snapshot: dict, path) -> Path:
    """Write a :meth:`Telemetry.snapshot` as a JSON-lines trace file."""
    path = Path(path)
    lines: list[str] = []
    next_id = [0]

    def emit(span: dict, parent: int | None) -> None:
        span_id = next_id[0]
        next_id[0] += 1
        row = {"type": "span", "id": span_id, "parent": parent,
               "name": span["name"], "start": span.get("start", 0.0),
               "seconds": span.get("seconds", 0.0),
               "attrs": span.get("attrs", {})}
        lines.append(json.dumps(row, sort_keys=True))
        for child in span.get("children", ()):
            emit(child, span_id)

    for root in snapshot.get("spans", ()):
        emit(root, None)
    metrics = snapshot.get("metrics", {})
    lines.append(json.dumps({"type": "metrics",
                             "counters": metrics.get("counters", {}),
                             "gauges": metrics.get("gauges", {})},
                            sort_keys=True))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_trace_jsonl(path) -> dict:
    """Load a trace file back into snapshot form (nested spans + metrics)."""
    spans_by_id: dict[int, dict] = {}
    roots: list[dict] = []
    metrics = {"counters": {}, "gauges": {}}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        row = json.loads(line)
        if row.get("type") == "metrics":
            metrics = {"counters": row.get("counters", {}),
                       "gauges": row.get("gauges", {})}
            continue
        span = {"name": row["name"], "start": row.get("start", 0.0),
                "seconds": row.get("seconds", 0.0),
                "attrs": row.get("attrs", {}), "children": []}
        spans_by_id[row["id"]] = span
        parent = row.get("parent")
        if parent is None:
            roots.append(span)
        else:
            spans_by_id[parent]["children"].append(span)
    return {"spans": roots, "metrics": metrics}


# --------------------------------------------------------------------- #
# Summaries
# --------------------------------------------------------------------- #

def _walk(span: dict):
    yield span
    for child in span.get("children", ()):
        yield from _walk(child)


def span_breakdown(span: Span | dict) -> dict:
    """Aggregate a span subtree by name: ``{name: {count, seconds}}``.

    This is the compact per-cell summary persisted into the store's
    volatile ``meta.json`` — enough to see where a cell spent its time
    without shipping the whole trace.
    """
    if isinstance(span, Span):
        span = span.to_dict()
    table: dict[str, dict] = {}
    for node in _walk(span):
        row = table.setdefault(node["name"], {"count": 0, "seconds": 0.0})
        row["count"] += 1
        row["seconds"] += node.get("seconds", 0.0)
    return {name: {"count": row["count"],
                   "seconds": round(row["seconds"], 6)}
            for name, row in sorted(table.items())}


def summarize_trace(source) -> dict:
    """Build the summary report from a snapshot dict or a trace file path."""
    snapshot = source if isinstance(source, dict) else read_trace_jsonl(source)
    roots = snapshot.get("spans", [])
    counters = dict(snapshot.get("metrics", {}).get("counters", {}))
    gauges = dict(snapshot.get("metrics", {}).get("gauges", {}))

    by_name: dict[str, dict] = {}
    heap_policies: set[str] = set()
    remote_busy = 0.0
    span_count = 0
    wall_end = 0.0
    for root in roots:
        for node in _walk(root):
            span_count += 1
            seconds = node.get("seconds", 0.0)
            wall_end = max(wall_end, node.get("start", 0.0) + seconds)
            row = by_name.setdefault(
                node["name"], {"count": 0, "seconds": 0.0, "self_seconds": 0.0})
            row["count"] += 1
            row["seconds"] += seconds
            row["self_seconds"] += seconds - sum(
                child.get("seconds", 0.0) for child in node.get("children", ()))
            attrs = node.get("attrs", {})
            if "heap" in attrs:  # a traced train span: the heap policy
                policy = attrs["heap"]
                if policy == "retained" and not attrs["mallopt_ok"]:
                    policy += " (mallopt refused)"
                heap_policies.add(policy)
        # Worker busy time: the roots a parent grafted are tagged remote;
        # count only the outermost remote span of each shipped task.
        for node in _walk(root):
            for child in node.get("children", ()):
                if isinstance(child, dict) and child.get("attrs", {}).get("remote"):
                    remote_busy += child.get("seconds", 0.0)

    spans = [{"name": name,
              "count": row["count"],
              "seconds": round(row["seconds"], 6),
              "self_seconds": round(max(row["self_seconds"], 0.0), 6)}
             for name, row in sorted(by_name.items(),
                                     key=lambda item: -item[1]["seconds"])]

    evaluations = counters.get("evaluations_total", 0)
    cache_hits = counters.get("cache_hits_total", 0)
    lookups = evaluations + cache_hits
    workers = max(int(gauges.get("workers", 0)), 1)
    wall = wall_end
    summary = {
        "wall_seconds": round(wall, 6),
        "span_count": span_count,
        "spans": spans,
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "cache_hit_rate": round(cache_hits / lookups, 6) if lookups else None,
        "worker_busy_seconds": round(remote_busy, 6),
        "worker_utilization": (round(remote_busy / (wall * workers), 6)
                               if wall > 0 and remote_busy > 0 else None),
        "heap_policy": ", ".join(sorted(heap_policies)) or None,
    }
    return summary


def format_trace_summary(summary: dict, top: int = 12) -> str:
    """Render :func:`summarize_trace` output as an aligned text report."""
    lines = [
        f"trace: {summary['span_count']} spans, "
        f"wall {summary['wall_seconds']:.3f}s",
        "",
        f"{'span':<16} {'count':>7} {'total s':>10} {'self s':>10} {'% wall':>7}",
    ]
    wall = summary["wall_seconds"] or 1.0
    for row in summary["spans"][:top]:
        lines.append(
            f"{row['name']:<16} {row['count']:>7} {row['seconds']:>10.3f} "
            f"{row['self_seconds']:>10.3f} {100.0 * row['seconds'] / wall:>6.1f}%")
    if len(summary["spans"]) > top:
        lines.append(f"... {len(summary['spans']) - top} more span kinds")
    lines.append("")
    if summary.get("cache_hit_rate") is not None:
        lines.append(f"cache hit rate     {100.0 * summary['cache_hit_rate']:.1f}% "
                     f"({summary['counters'].get('cache_hits_total', 0)} hits / "
                     f"{summary['counters'].get('evaluations_total', 0)} evaluations)")
    bytes_shipped = summary["counters"].get("bytes_shipped")
    if bytes_shipped is not None:
        lines.append(f"bytes shipped      {bytes_shipped}")
    tasks_shipped = summary["counters"].get("tasks_shipped")
    if tasks_shipped is not None:
        lines.append(f"tasks shipped      {tasks_shipped}")
    if any(summary["counters"].get(name)
           for name in ("pool_reuses", "cold_starts", "segment_reuses")):
        # How warm the run actually ran: pools forked vs re-leased, and
        # published segments answered by digest instead of re-shipping.
        lines.append(
            f"warm runtime       "
            f"{summary['counters'].get('pool_reuses', 0)} pool reuses / "
            f"{summary['counters'].get('cold_starts', 0)} cold starts, "
            f"{summary['counters'].get('segment_reuses', 0)} segment reuses")
    if summary.get("worker_utilization") is not None:
        lines.append(f"worker busy        {summary['worker_busy_seconds']:.3f}s "
                     f"(utilization {100.0 * summary['worker_utilization']:.1f}%)")
    if summary.get("heap_policy") is not None:
        lines.append(f"heap               {summary['heap_policy']}, "
                     f"{summary['counters'].get('train_page_faults', 0)} "
                     "train page faults")
    fallbacks = [(name, value) for name, value in summary["counters"].items()
                 if name.endswith("fallbacks") and value]
    for name, value in fallbacks:
        lines.append(f"DEGRADED           {name} = {value}")
    return "\n".join(lines)
