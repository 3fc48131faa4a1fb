"""Worker-pool execution with pickled trial payloads.

This is the fork/spawn pool that used to live inside
``DriftSweepEngine._make_pool``, extracted behind the
:class:`~repro.execution.base.ExecutionBackend` interface.  The model and
dataset travel once per worker as the :class:`~repro.execution.pool.TaskPool`
context; each task then pickles its trials' full drifted parameter arrays
— simple and dependency-free, but for deep models the per-task pickling
dominates (see :class:`~repro.execution.shared.SharedMemoryBackend` for
the shared-memory alternative that ships only an offset table).
"""

from __future__ import annotations

from typing import Callable

from ..telemetry import current
from .base import ExecutionBackend, TrialResult, register_backend
from .pool import TaskPool

__all__ = ["ProcessPoolBackend"]


def _evaluate(context: dict, pending: dict) -> list[TrialResult]:
    """Score ``pending`` trials on a worker's installed context.

    The first task on a context snapshots its clean model into a
    worker-local injector, so ``apply_trial`` enforces the same restore
    invariant as the main process: parameters absent from a trial reset
    to the snapshot, and a trial drifting a different parameter subset
    (per-σ policies) cannot leak stale weights into the next one.  The
    worker runs the same evaluator instance the main process would use
    in-process, so a pool returns the serial path's scores bit for bit.
    """
    injector = context.get("injector")
    if injector is None:
        from ..fault.drift import LogNormalDrift
        from ..fault.injector import FaultInjector

        injector = context["injector"] = FaultInjector(context["model"],
                                                       LogNormalDrift(0.0))
        injector.snapshot()
    evaluator = context["evaluator"]
    if evaluator is None:
        from ..inference import PerTrialEvaluator
        evaluator = PerTrialEvaluator()
    with current().span("task", trials=len(pending)):
        return evaluator.run(context["model"], context["data"],
                             context["evaluate_fn"], pending,
                             injector.apply_trial)


def _evaluate_group(context: dict, group: list) -> list[TrialResult]:
    return _evaluate(context, dict(group))


@register_backend("process")
class ProcessPoolBackend(ExecutionBackend):
    """Fan trials out over ``workers`` processes, pickled trial groups as tasks.

    The pool is engaged lazily on the first chunk with two or more tasks,
    so no process is leased (and no context published) without work to
    do; chunks that fit a single task always evaluate in-process.  With
    the default per-trial evaluator a task is exactly one trial; a batched
    evaluator packs ``trial_batch`` trials per task.  The pool is leased
    from the warm :class:`~repro.execution.runtime.ExecutionRuntime`
    through a :class:`~repro.execution.pool.TaskPool`, so ``close()``
    leaves the workers warm for the next sweep.  Any pool failure
    propagates to the engine, which degrades the rest of the sweep to
    serial evaluation.
    """

    name = "process"
    out_of_process = True
    task_fn = staticmethod(_evaluate_group)

    def __init__(self, workers: int = 2):
        super().__init__()
        if workers < 2:
            raise ValueError("a pool backend needs at least 2 workers; "
                             "use SerialBackend for in-process evaluation")
        self.workers = int(workers)
        self._pool: TaskPool | None = None

    # ------------------------------------------------------------------ #
    def _worker_context(self) -> dict:
        """What each worker installs once: model, data and evaluation."""
        context = self.context
        return {"model": context.model, "data": context.data,
                "evaluate_fn": context.evaluate_fn,
                "evaluator": context.evaluator}

    def _map(self, payloads: list) -> list[TrialResult]:
        """Ship one task per payload; flatten the results in order."""
        if self._pool is None:
            self._pool = TaskPool(self.task_fn, self._worker_context(),
                                  self.workers)
        self.metrics.counter("tasks_shipped").add(len(payloads))
        batches = self._pool.map(payloads)
        self.used_backend = self.name
        self.workers_used = self.workers
        return [result for batch in batches for result in batch]

    def _group_pending(self, pending: dict[str, dict]) -> list[list]:
        """Group pending trials into worker tasks of ``trial_batch`` trials.

        One trial per task is the historical shipping pattern; a batched
        evaluator widens tasks so workers amortise per-task overhead over
        a whole stacked forward pass.
        """
        size = 1
        if self.context is not None and self.context.evaluator is not None:
            size = max(1, int(getattr(self.context.evaluator,
                                      "trial_batch", 1)))
        items = list(pending.items())
        return [items[start:start + size]
                for start in range(0, len(items), size)]

    @staticmethod
    def _task_bytes(digest: str, params: dict) -> int:
        """Payload size of one pickled task: digest + names + array bytes."""
        return (len(digest)
                + sum(len(name) + arrays.nbytes
                      for name, arrays in params.items()))

    def run_trials(self, pending: dict[str, dict],
                   apply_trial: Callable[[dict], None]) -> list[TrialResult]:
        groups = self._group_pending(pending)
        if len(groups) < 2:
            return self._run_in_process(pending, apply_trial)
        with current().span("backend", backend=self.name, tasks=len(groups)):
            self.metrics.counter("bytes_shipped").add(
                sum(self._task_bytes(digest, params)
                    for digest, params in pending.items()))
            return self._map(groups)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None
