"""Scenario-cell fan-out: run independent declarative cells over a pool.

Scenario matrices (``fault_matrix``, ``dataset_matrix``, …) are embarrassingly
parallel: every declarative :class:`~repro.scenarios.spec.ScenarioSpec` cell
is seeded by its own ``spec.seed`` and touches nothing shared except the
content-addressed result store, which is safe under concurrent writers by
construction: each save publishes its staging directory with one atomic
rename (first writer wins on duplicate hashes), and the SQLite index rows
serialize behind WAL locking with a busy-timeout — each worker process
opens its own connection (never inherited across ``fork``), so N workers
hammering one store lose no entries and leave a consistent index
(``tests/test_store.py`` asserts exactly that).  This module ships whole
*cells* —
a few kilobytes of spec JSON each — to worker processes, in contrast to the
trial backends which ship drifted weights; each worker trains, sweeps and
saves its cell into the store, so a matrix fill-in killed at any point
resumes from whatever cells finished.

Kept inside :mod:`repro.execution` (not :mod:`repro.scenarios`) so the two
fan-out granularities — trials within a sweep, cells within a matrix — live
behind one execution layer.
"""

from __future__ import annotations

from ..telemetry import current
from .pool import TaskPool

__all__ = ["run_cells"]


def _execute_cell(spec_payload: dict, store_root: str | None,
                  scenario: str | None, runner_kwargs: dict) -> dict:
    """Execute one declarative cell, persist it, return it as plain data.

    The cell executes exactly the code path :meth:`ScenarioRunner.run`
    uses in the parent — same registries, same seeding, same store
    writes, same scheduling overrides (``runner_kwargs`` carries the
    parent runner's ``workers``/``max_chunk_trials``/``backend``) — which
    is what keeps fanned-out matrices bit-identical to serial ones.
    """
    from ..scenarios.runner import ScenarioRunner
    from ..scenarios.spec import ScenarioSpec
    from ..scenarios.store import ResultStore

    spec = ScenarioSpec.from_dict(spec_payload)
    store = None if store_root is None else ResultStore(store_root)
    run = ScenarioRunner(store, **runner_kwargs).run(spec, scenario=scenario)
    return {"report": run.report.as_dict(), "cached": run.cached,
            "elapsed_seconds": run.elapsed_seconds}


def _cell_task(context: tuple, spec_payload: dict) -> dict:
    return _execute_cell(spec_payload, *context)


def run_cells(specs, store_root: str | None, scenario: str | None,
              workers: int, runner_kwargs: dict | None = None,
              progress=None) -> tuple[list[dict], str | None]:
    """Execute cells over ``workers`` processes; results in ``specs`` order.

    A *pool* failure (fork limits, pickling, a dead worker) degrades the
    remaining cells to in-process execution with a warning — the same
    contract as the trial backends — so a matrix run always completes.  An
    error raised by a cell itself is deterministic and propagates unchanged
    (re-running it serially would only fail again, after wasted work).

    Returns ``(results, fallback_reason)``: the second element is ``None``
    for a healthy run and the breakage description when the pool degraded —
    callers surface it in run summaries so degraded matrices are detectable
    after the warning has scrolled away.  ``progress``, when given, is
    called once per finished cell (in completion order) with its result
    dict — the hook behind ``--progress`` ETA lines.
    """
    width = min(workers, len(specs))
    telemetry = current()
    with telemetry.span("cell_fanout", cells=len(specs), workers=workers):
        # Worker-side sweeps report their own (serial) worker counts; the
        # fan-out's pool width is the figure that makes utilisation honest.
        telemetry.gauge("workers", width)
        pool = TaskPool(_cell_task,
                        (store_root, scenario, dict(runner_kwargs or {})),
                        width, fallback="cell")
        try:
            results = pool.map([spec.to_dict() for spec in specs],
                               on_result=progress)
        finally:
            pool.close()
    return results, pool.fallback_reason
