"""One task pool for every fan-out: trials, search trials and cells.

:class:`TaskPool` runs ``task_fn(context, payload)`` for a list of
payloads over a pool leased from the
:class:`~repro.execution.runtime.ExecutionRuntime` and returns the results
in payload order, whatever order the workers finish in.  The three
fan-out granularities of the execution layer are thin callers of it:

* trial backends (:mod:`repro.execution.process`,
  :mod:`repro.execution.shared`) map trial groups within a sweep;
* :class:`~repro.execution.search.SearchTrialPool` maps train-and-evaluate
  search trials within a batched BO step;
* :func:`~repro.execution.cells.run_cells` maps declarative cells within
  a scenario matrix.

The ``(task_fn, context)`` pair is pickled once and leased as a
digest-keyed payload segment; :func:`_run_task`, the one worker entry
point, installs it once per digest and keeps it for later tasks.  The
shared-memory dataset handle is the one install hook: a context whose
``data`` is a :class:`DatasetHandle` gets the dataset rebuilt over
zero-copy views of its pinned segment.  When the parent session is
tracing, the worker runs the task under its own session and ships the
snapshot back with the result; the parent grafts it under the span that
called :meth:`TaskPool.map`.

Failures are classified by *where* they surface, never by type.  A
failure to lease, publish or submit, or a :class:`BrokenExecutor` from a
result, is pool breakage (:class:`PoolBroken`): re-running the remaining
payloads in-process can succeed.  An error raised by a task itself comes
back from ``future.result()`` with its own type and always propagates
unchanged: it would only fail again in-process, after wasted work.  A
pool built with ``fallback=<layer>`` degrades on breakage (a warning,
``fallback_reason``, a ``<layer>_pool_fallbacks`` counter) and stays
in-process afterwards; without it the breakage's original error
propagates, which is how trial backends hand it to the sweep engine's
serial fallback.
"""

from __future__ import annotations

import pickle
import warnings
from concurrent.futures import BrokenExecutor, as_completed
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Callable

import numpy as np

from ..data.loader import Dataset
from ..telemetry import MetricsRegistry, Telemetry, current, using
from .runtime import _untrack_attachment, get_runtime, read_payload

__all__ = ["TaskPool", "PoolBroken", "DatasetHandle", "FANOUT_BACKENDS",
           "validate_fanout_backend"]

#: Search and cell fan-out ship whole units of work (a search trial, a
#: declarative cell), so only the generic pool applies to them.
FANOUT_BACKENDS = ("serial", "process")

#: Result-slot sentinel distinguishing "not run yet" from a task that
#: legitimately returned ``None``.
_UNFINISHED = object()


def validate_fanout_backend(backend: str) -> None:
    """Reject a backend name that cell fan-out cannot use."""
    if backend not in FANOUT_BACKENDS:
        raise ValueError(
            f"unknown cell backend {backend!r}; cell fan-out supports "
            f"{list(FANOUT_BACKENDS)} (weight shipping such as "
            f"'shared_memory' is a trial-level backend: it applies to each "
            f"sweep, not to whole cell tasks)")


class PoolBroken(Exception):
    """The *pool* failed (lease, submission, a dead worker), not a task."""

    def __init__(self, error: BaseException):
        super().__init__(f"{type(error).__name__}: {error}")
        self.error = error


# --------------------------------------------------------------------------- #
# Worker side: segment attachments, the dataset hook, the entry point.
# --------------------------------------------------------------------------- #
_WORKER: dict = {}
_ATTACHED: dict[str, shared_memory.SharedMemory] = {}
_PINNED: set[str] = set()


def _attach(segment_name: str, pin: bool = False) -> shared_memory.SharedMemory:
    """Attach to (and cache) one published segment, dropping stale ones.

    Trial segments rotate per chunk, so a new attachment evicts the cached
    previous one.  Pinned segments (a published evaluation dataset, whose
    zero-copy views must stay valid while its context is installed)
    survive the rotation.
    """
    segment = _ATTACHED.get(segment_name)
    if segment is None:
        for stale in [name for name in _ATTACHED if name not in _PINNED]:
            _ATTACHED.pop(stale).close()
        segment = shared_memory.SharedMemory(name=segment_name)
        _untrack_attachment(segment)
        _ATTACHED[segment_name] = segment
        if pin:
            _PINNED.add(segment_name)
    return segment


@dataclass
class DatasetHandle:
    """A published evaluation dataset: its segment name and array layout."""

    segment: str
    inputs_shape: tuple
    labels_shape: tuple
    labels_dtype: str
    labels_offset: int
    num_classes: int

    def attach(self) -> Dataset:
        """Rebuild the dataset over zero-copy views of its pinned segment.

        The views are read-only in practice (evaluation never writes inputs
        or labels); ``Dataset`` keeps float64 arrays as-is, so no copy is
        made.
        """
        segment = _attach(self.segment, pin=True)
        inputs = np.ndarray(self.inputs_shape, dtype=np.float64,
                            buffer=segment.buf)
        labels = np.ndarray(self.labels_shape,
                            dtype=np.dtype(self.labels_dtype),
                            buffer=segment.buf, offset=self.labels_offset)
        dataset = Dataset(inputs, labels)
        dataset.num_classes = self.num_classes
        return dataset


def _install(handle: tuple) -> None:
    """Install the ``(task_fn, context)`` payload behind ``handle``.

    Cleared first so a failed install can never leave a stale digest
    claiming the previous context is still current.  Pinned dataset
    attachments of the previous context are closed, bounding a warm
    worker's mapped memory by one dataset.
    """
    _WORKER.clear()
    task_fn, context = read_payload(handle)
    data = context.get("data") if isinstance(context, dict) else None
    keep = {data.segment} if isinstance(data, DatasetHandle) else set()
    for name in [name for name in _PINNED if name not in keep]:
        _PINNED.discard(name)
        segment = _ATTACHED.pop(name, None)
        if segment is not None:
            segment.close()
    if isinstance(data, DatasetHandle):
        context["data"] = data.attach()
    _WORKER.update(task_fn=task_fn, context=context, digest=handle[0])


def _run_task(handle: tuple, trace: bool, payload) -> tuple:
    """The worker entry point: ``(result, telemetry snapshot or None)``."""
    if _WORKER.get("digest") != handle[0]:
        _install(handle)
    task_fn, context = _WORKER["task_fn"], _WORKER["context"]
    if not trace:
        return task_fn(context, payload), None
    telemetry = Telemetry()
    with using(telemetry):
        result = task_fn(context, payload)
    return result, telemetry.snapshot()


# --------------------------------------------------------------------------- #
# Parent side.
# --------------------------------------------------------------------------- #
class TaskPool:
    """Run ``task_fn(context, payload)`` over a leased runtime pool.

    Parameters
    ----------
    task_fn:
        Module-level function (it crosses to workers by reference).  Every
        task must re-derive its state from ``context`` and its own payload,
        never from what an earlier task left behind in the worker; it may
        cache in ``context`` what it derives from the context alone.
    context:
        Pickled once per pool lease and installed once per worker.
    width:
        Worker processes; below 2, and for batches of fewer than two
        payloads, tasks run in the calling process.
    fallback:
        ``None`` lets pool breakage propagate (as its original error);
        a layer name (``"search"``, ``"cell"``) degrades the batch to
        in-process execution instead.

    ``tasks_shipped`` and ``fell_back`` are views over :attr:`metrics`
    (``tasks_shipped`` / ``pool_fallbacks``); ``fallback_reason`` names
    the breakage.
    """

    def __init__(self, task_fn: Callable, context, width: int,
                 fallback: str | None = None):
        self.task_fn = task_fn
        self.context = context
        self.width = int(width)
        self.fallback = fallback
        self.fallback_reason: str | None = None
        self.metrics = MetricsRegistry()
        self._pool_lease = None
        self._context_lease = None

    @property
    def tasks_shipped(self) -> int:
        return self.metrics.value("tasks_shipped")

    @property
    def fell_back(self) -> bool:
        return self.metrics.value("pool_fallbacks") > 0

    # ------------------------------------------------------------------ #
    def map(self, payloads: list, on_result=None) -> list:
        """Run every payload; results in ``payloads`` order.

        ``on_result``, when given, is called with each result as it
        completes (in completion order).
        """
        results = [_UNFINISHED] * len(payloads)
        if self.width < 2 or self.fell_back or len(payloads) < 2:
            return self._run_here(payloads, results, on_result)
        try:
            self._run_pooled(payloads, results, on_result)
        except PoolBroken as broke:
            self.close()
            if self.fallback is None:
                raise broke.error
            warnings.warn(f"{self.fallback} fan-out fell back to serial "
                          f"execution ({broke})", RuntimeWarning, stacklevel=2)
            self.metrics.counter("pool_fallbacks").add()
            self.fallback_reason = str(broke)
            current().add(f"{self.fallback}_pool_fallbacks")
            self._run_here(payloads, results, on_result)
        return results

    def _run_here(self, payloads: list, results: list, on_result) -> list:
        for index, payload in enumerate(payloads):
            if results[index] is _UNFINISHED:
                results[index] = self.task_fn(self.context, payload)
                if on_result is not None:
                    on_result(results[index])
        return results

    def _run_pooled(self, payloads: list, results: list, on_result) -> None:
        telemetry = current()
        trace = telemetry.enabled
        under = telemetry.tracer.current_span() if trace else None
        try:
            if self._pool_lease is None:
                runtime = get_runtime()
                self._pool_lease = runtime.lease_pool(self.width)
                self._context_lease = runtime.lease_payload(
                    pickle.dumps((self.task_fn, self.context)))
            pool, handle = self._pool_lease.pool, self._context_lease.handle
            futures = {pool.submit(_run_task, handle, trace, payload): index
                       for index, payload in enumerate(payloads)}
        except Exception as error:  # lease/publish/submission failure
            raise PoolBroken(error) from error
        self.metrics.counter("tasks_shipped").add(len(futures))
        for future in as_completed(futures):
            try:
                result, snapshot = future.result()
            except BrokenExecutor as error:
                raise PoolBroken(error) from error
            telemetry.absorb(snapshot, under=under)
            results[futures[future]] = result
            if on_result is not None:
                on_result(result)

    def close(self) -> None:
        """Return the pool and context leases (idempotent).

        A broken pool is evicted by the runtime on release, so the next
        lease forks a fresh one.
        """
        for lease in (self._pool_lease, self._context_lease):
            if lease is not None:
                lease.release()
        self._pool_lease = self._context_lease = None
