"""Per-layer metrics and the self-time ledger of a traced window.

Main-process spans are the blocking steps of a unit: their self times plus
``ledger.unattributed_s`` (unit wall time no span covers) add up to the
unit's wall time exactly.  Worker spans run in parallel with the main
process, so they form a separate worker ledger of busy time instead of
rows of the wall-time sum.

Unless named a ratio, every per-layer metric is a total over the traced
window divided by the number of traced units, so runs whose windows fit a
different number of units stay comparable.
"""

from __future__ import annotations

from collections import defaultdict

from tracing import self_times

#: Per-layer metric -> unit; the order is the order of the printout.
PER_LAYER_UNITS = {
    "training.fit_s": "s", "training.steps": "count",
    "training.step_ms": "ms", "training.share": "ratio",
    "bayesopt.suggest_s": "s", "bayesopt.suggest_calls": "count",
    "bayesopt.observe_s": "s",
    "core.objective_s": "s", "core.batch_wait_s": "s", "core.batches": "count",
    "evaluation.sweep_s": "s", "evaluation.n_evaluations": "count",
    "evaluation.cache_hits": "count", "evaluation.cache_hit_ratio": "ratio",
    "fault.draw_s": "s", "fault.draws": "count", "fault.draw_mb": "MB",
    "fault.apply_s": "s",
    "inference.run_s": "s", "inference.evaluations": "count",
    "inference.batched_evaluations": "count",
    "execution.run_trials_s": "s", "execution.tasks_shipped": "count",
    "execution.bytes_shipped": "B", "execution.bytes_per_task": "B",
    "execution.cold_starts": "count", "execution.pool_reuses": "count",
    "execution.segment_reuses": "count",
    "execution.segments_published": "count", "execution.fallbacks": "count",
    "execution.run_cells_s": "s", "execution.blas_threads": "threads",
    "scenarios.save_s": "s", "scenarios.saves": "count",
    "scenarios.store_mb": "MB", "scenarios.missing_s": "s",
    "scenarios.load_s": "s", "scenarios.loads": "count",
    "data.build_s": "s",
    "ledger.unattributed_s": "s", "trace.overhead_ratio": "ratio",
}

#: Runtime counters read from ``get_runtime().stats()``.
RUNTIME_COUNTERS = ("cold_starts", "pool_reuses", "segment_reuses",
                    "segments_published")


def _outermost(spans: list[dict]) -> list[dict]:
    """Spans with no ancestor of the same name (no double counting)."""
    by_id = _by_id(spans)
    kept = []
    for span in spans:
        parent = by_id.get(span["parent"])
        while parent is not None and parent["name"] != span["name"]:
            parent = by_id.get(parent["parent"])
        if parent is None:
            kept.append(span)
    return kept


def _by_id(spans: list[dict]) -> dict[int, dict]:
    return {span["id"]: span for span in spans}


def _window(spans: list[dict], start: float, end: float) -> list[dict]:
    return [span for span in spans if span["start"] >= start
            and span["end"] is not None and span["end"] <= end]


def _self_rows(spans: list[dict]) -> tuple[dict[str, float], float]:
    """Self seconds per span name, and the seconds the root spans cover."""
    by_id = _by_id(spans)
    rows: dict[str, float] = defaultdict(float)
    for span_id, seconds in self_times(spans).items():
        rows[by_id[span_id]["name"]] += seconds
    roots = sum(span["end"] - span["start"] for span in spans
                if span["parent"] not in by_id)
    return rows, roots


def compute(units: list[tuple], main_spans: list[dict],
            worker_spans: list[dict], runtime_delta: dict,
            data_build_s: float, blas_threads, overhead_ratio: float) -> tuple:
    """Return ``(metrics, ledger)`` for the traced units.

    ``units`` holds ``(start, end, Unit)`` for each traced unit.
    """
    start, end = units[0][0], units[-1][1]
    main = _window(main_spans, start, end)
    workers = _window(worker_spans, start, end)
    n = len(units)
    wall = sum(unit_end - unit_start for unit_start, unit_end, _ in units)

    main_rows, main_roots = _self_rows(main)
    worker_rows, worker_busy = _self_rows(workers)
    unattributed = wall - main_roots

    outer = _outermost(main) + _outermost(workers)
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    attrs: dict[str, float] = defaultdict(float)
    for span in outer:
        seconds[span["name"]] += span["end"] - span["start"]
        calls[span["name"]] += 1
        for key, value in span["attrs"].items():
            attrs[f"{span['name']}.{key}"] += value
    counts: dict[str, float] = defaultdict(float)
    for _, _, unit in units:
        for key, value in unit.counts.items():
            counts[key] += value

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    fit_s = seconds["training.fit"]
    steps = attrs["training.fit.steps"]
    evaluations = attrs["evaluation.sweep.n_evaluations"]
    hits = attrs["evaluation.sweep.cache_hits"]
    training_self = main_rows.get("training.fit", 0.0) + worker_rows.get(
        "training.fit", 0.0)
    values = {
        "training.fit_s": fit_s / n,
        "training.steps": steps / n,
        "training.step_ms": 1000.0 * ratio(fit_s, steps),
        "training.share": ratio(training_self, wall + worker_busy),
        "bayesopt.suggest_s": seconds["bayesopt.suggest"] / n,
        "bayesopt.suggest_calls": calls["bayesopt.suggest"] / n,
        "bayesopt.observe_s": seconds["bayesopt.observe"] / n,
        "core.objective_s": seconds["core.objective"] / n,
        "core.batch_wait_s": seconds["core.batch_wait"] / n,
        "core.batches": calls["core.batch_wait"] / n,
        "evaluation.sweep_s": seconds["evaluation.sweep"] / n,
        "evaluation.n_evaluations": evaluations / n,
        "evaluation.cache_hits": hits / n,
        "evaluation.cache_hit_ratio": ratio(hits, hits + evaluations),
        "fault.draw_s": seconds["fault.draw"] / n,
        "fault.draws": attrs["fault.draw.draws"] / n,
        "fault.draw_mb": attrs["fault.draw.bytes"] / 1e6 / n,
        "fault.apply_s": seconds["fault.apply"] / n,
        "inference.run_s": seconds["inference.run"] / n,
        "inference.evaluations": attrs["inference.run.evaluations"] / n,
        "inference.batched_evaluations": attrs["inference.run.batched"] / n,
        "execution.run_trials_s": seconds["execution.run_trials"] / n,
        "execution.tasks_shipped": counts["tasks_shipped"] / n,
        "execution.bytes_shipped": counts["bytes_shipped"] / n,
        "execution.bytes_per_task": ratio(counts["bytes_shipped"],
                                          counts["tasks_shipped"]),
        "execution.fallbacks": counts["fallbacks"] / n,
        "execution.run_cells_s": seconds["execution.run_cells"] / n,
        "execution.blas_threads": blas_threads or 0,
        "scenarios.save_s": seconds["scenarios.save"] / n,
        "scenarios.saves": calls["scenarios.save"] / n,
        "scenarios.store_mb": counts["store_bytes"] / 1e6 / n,
        "scenarios.missing_s": seconds["scenarios.missing"] / n,
        "scenarios.load_s": seconds["scenarios.load"] / n,
        "scenarios.loads": calls["scenarios.load"] / n,
        "data.build_s": data_build_s,
        "ledger.unattributed_s": unattributed / n,
        "trace.overhead_ratio": overhead_ratio,
    }
    for name in RUNTIME_COUNTERS:
        values[f"execution.{name}"] = runtime_delta.get(name, 0) / n
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in PER_LAYER_UNITS.items()}
    ledger = {
        "units": n,
        "wall_s_per_unit": wall / n,
        "main_self_s_per_unit": {name: value / n for name, value
                                 in sorted(main_rows.items())},
        "unattributed_s_per_unit": unattributed / n,
        "worker_self_s_per_unit": {name: value / n for name, value
                                   in sorted(worker_rows.items())},
        "worker_busy_s_per_unit": worker_busy / n,
    }
    return metrics, ledger
