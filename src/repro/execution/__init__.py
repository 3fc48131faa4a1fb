"""Pluggable execution layer: where fault-trial evaluations actually run.

The measurement layer (:class:`~repro.evaluation.sweep.DriftSweepEngine`)
decides *what* to evaluate — pre-drawn, deduplicated, content-addressed
fault trials — and this package decides *where*:

* :class:`SerialBackend` — in the calling process (the default, and the
  universal fallback);
* :class:`ProcessPoolBackend` — a fork/spawn worker pool with one pickled
  trial per task (model/data shipped once per worker);
* :class:`SharedMemoryBackend` — the same pool, but each chunk's weight
  arrays are published once via ``multiprocessing.shared_memory`` and tasks
  carry only ``(digest, segment, offset-table)`` messages, cutting per-task
  shipping from megabytes to kilobytes on deep models.

Because backends receive fully-materialised weights and consume no
randomness, seeded results are bit-identical across every backend and
worker count.  :func:`resolve_backend` maps configuration (``None``, a
registry name, or an instance) to a backend, and two sibling modules apply
the same idea at coarser granularities: :mod:`repro.execution.cells` fans
independent scenario cells over a worker pool, and
:mod:`repro.execution.search` fans concurrent search trials (train +
evaluate units from batched Bayesian optimisation) over a persistent one.

All three fan-outs are callers of one primitive,
:class:`~repro.execution.pool.TaskPool`: ``task_fn(context, payload)``
over a pool leased from the process-wide warm
:class:`~repro.execution.runtime.ExecutionRuntime`, with the context
installed once per worker by digest, results in payload order, worker
telemetry shipped back, and pool breakage told apart from a task's own
error.  Pools are returned still running, so back-to-back sweeps (the BO
inner loop) stop paying fork + context shipping per sweep.  Outside the
main process (a pool inside a cell worker) leases are uncached and
released at once.
"""

from .base import (
    EvalContext, ExecutionBackend, TrialResult,
    available_backends, register_backend, resolve_backend, validate_backend,
)
from .runtime import (
    ExecutionRuntime, get_runtime, shutdown_runtime, using_runtime,
)
from .pool import FANOUT_BACKENDS, TaskPool
from .serial import SerialBackend
from .process import ProcessPoolBackend
from .shared import SharedMemoryBackend
from .cells import run_cells
from .search import SearchTrialPool

__all__ = [
    "EvalContext", "ExecutionBackend", "TrialResult",
    "available_backends", "register_backend", "resolve_backend",
    "validate_backend",
    "ExecutionRuntime", "get_runtime", "shutdown_runtime", "using_runtime",
    "TaskPool", "FANOUT_BACKENDS",
    "SerialBackend", "ProcessPoolBackend", "SharedMemoryBackend",
    "run_cells", "SearchTrialPool",
]
