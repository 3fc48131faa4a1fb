"""Search-trial fan-out: evaluate independent search trials over a pool.

The third fan-out granularity of the execution layer, one level above
:mod:`repro.execution.cells`: *trials within a search*.  A batched
Bayesian-optimisation step proposes ``q`` architectures at once
(:meth:`~repro.bayesopt.optimizer.BayesianOptimizer.suggest_batch`); each is
an independent train-then-evaluate unit of work — a pure function of
``(architecture, base weights, trial seed)`` — so the batch can be shipped
to worker processes wholesale.  The pool is *persistent*: one search keeps
its lease (and its installed model/data/objective context) across every
batch, paying the fork-and-ship cost once.

Completion order is explicitly untrusted: :meth:`SearchTrialPool.run_batch`
drains workers as they finish but files every result under its payload
index, so the caller always receives results in submission order no matter
which worker finished first.  The ordered-observation-replay determinism
contract of :class:`~repro.core.scheduler.AsyncTrialScheduler` is built on
that guarantee.
"""

from __future__ import annotations

from typing import Callable

from ..telemetry import current
from .pool import TaskPool

__all__ = ["SearchTrialPool"]


class SearchTrialPool(TaskPool):
    """Persistent :class:`~repro.execution.pool.TaskPool` for search trials.

    Parameters
    ----------
    task_fn, context:
        As for :class:`~repro.execution.pool.TaskPool`.
    workers:
        ``0``/``1`` executes in-process; ``n >= 2`` fans out over ``n``
        processes (``used_backend`` reads ``"serial"`` or ``"process"``).

    ``used_backend`` / ``tasks_shipped`` / ``fell_back`` /
    ``fallback_reason`` are volatile scheduling accounting, never part of
    canonical results.  Pool breakage degrades the unfinished remainder
    of a batch to in-process execution with a warning and a
    ``search_pool_fallbacks`` counter; later batches stay in-process.
    """

    def __init__(self, task_fn: Callable, context: dict, workers: int = 0):
        if workers < 0:
            raise ValueError("workers must be non-negative")
        fanned = workers >= 2
        super().__init__(task_fn, context, width=workers if fanned else 0,
                         fallback="search")
        self.workers = int(workers)
        self.used_backend = "process" if fanned else "serial"

    def run_batch(self, payloads: list) -> list:
        """Execute one batch; results returned in ``payloads`` order."""
        shipped = self.tasks_shipped
        results = self.map(payloads)
        if self.tasks_shipped > shipped:
            current().add("tasks_shipped", self.tasks_shipped - shipped)
        return results
