"""Shared-memory weight shipping: publish trials once, ship offset tables.

The pickled :class:`~repro.execution.process.ProcessPoolBackend` serializes
every trial's full drifted parameter arrays into its task message — for a
PreAct-ResNet that is megabytes per task, and the pickling alone can cost
more than the evaluation.  :class:`SharedMemoryBackend` instead publishes
each chunk's flattened parameter block exactly once via
``multiprocessing.shared_memory`` and ships only ``(digest, segment name,
{parameter: (offset, shape)})`` per task; workers map the segment, copy
their trial's arrays out of it, and evaluate as usual.  The arrays are
bit-identical either way (float64 bytes are copied, never re-encoded), so
the engine's determinism contract holds unchanged.

Segment lifecycle: the main process creates one segment per
``run_trials`` chunk and unlinks it as soon as the chunk's results are in;
workers cache their attachment per segment name (closing the previous one
when a new chunk arrives) and always copy out of the mapping, so no live
array ever aliases an unlinked segment.  The evaluation dataset rides in a
second, *pinned* segment leased from the runtime by content digest: the
worker context carries its :class:`~repro.execution.pool.DatasetHandle`,
and workers rebuild the dataset over zero-copy views that stay valid
while that context is installed.
"""

from __future__ import annotations

import hashlib
import pickle
from multiprocessing import shared_memory
from typing import Callable

import numpy as np

from ..data.loader import Dataset
from ..telemetry import current
from .base import TrialResult, register_backend
from .pool import DatasetHandle, _attach
from .process import ProcessPoolBackend, _evaluate
from .runtime import get_runtime

__all__ = ["SharedMemoryBackend"]

#: ``{parameter name: (byte offset into the segment, array shape)}``
OffsetTable = dict


def _evaluate_shared_group(context: dict, message: tuple) -> list[TrialResult]:
    segment_name, entries = message
    segment = _attach(segment_name)
    pending = {}
    for digest, table in entries:
        params = {}
        for name, (offset, shape) in table.items():
            view = np.ndarray(shape, dtype=np.float64, buffer=segment.buf,
                              offset=offset)
            # Copy out of the mapping: apply_trial must never install an
            # array aliasing a segment the main process is about to unlink.
            params[name] = np.array(view)
        pending[digest] = params
    return _evaluate(context, pending)


def _dataset_digest(data: Dataset) -> str:
    """Content key for a published dataset: shapes, dtypes and raw bytes."""
    inputs = np.ascontiguousarray(data.inputs, dtype=np.float64)
    labels = np.ascontiguousarray(data.labels)
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((inputs.shape, labels.shape, str(labels.dtype),
                   data.num_classes)).encode())
    h.update(inputs.data)
    h.update(labels.data)
    return "dataset:" + h.hexdigest()


@register_backend("shared_memory")
class SharedMemoryBackend(ProcessPoolBackend):
    """Worker-pool execution that ships offset tables instead of weights.

    Inherits the pool lifecycle (lazy creation, single-task chunks stay
    in-process, failures degrade the sweep to serial) and the
    ``trial_batch`` task grouping from :class:`ProcessPoolBackend` and
    replaces only the payloads: per chunk, all unique trials' arrays are
    packed into one shared-memory segment, and each task carries a pickled
    ``(segment name, [(digest, offset table), ...])`` message of a few
    kilobytes regardless of model depth.  The evaluation dataset itself is
    published the same way, once per content digest — workers rebuild it
    over zero-copy views of a pinned segment instead of unpickling a full
    copy each.  ``bytes_shipped`` counts the task messages plus the pickled
    dataset handle, which is exactly what the ``BENCH_execution`` benchmark
    compares against the pickled pool.
    """

    name = "shared_memory"
    out_of_process = True
    task_fn = staticmethod(_evaluate_shared_group)

    def __init__(self, workers: int = 2):
        super().__init__(workers=workers)
        self._segments: list[shared_memory.SharedMemory] = []
        # The runtime lease on the published dataset segment, if any.
        self._data_segment = None

    # ------------------------------------------------------------------ #
    def _worker_context(self) -> dict:
        """Swap a ``Dataset`` for the handle of its digest-keyed segment.

        A BO run whose weights change every trial then re-ships only the
        model pickle; the dataset segment is re-leased by content.
        Non-Dataset evaluation data (e.g. detection sample lists) still
        travels pickled.
        """
        context = super()._worker_context()
        data = context["data"]
        if isinstance(data, Dataset):
            self._data_segment = get_runtime().lease_segment(
                _dataset_digest(data), lambda: self._publish_dataset(data))
            context["data"] = self._data_segment.handle
            self.metrics.counter("bytes_shipped").add(
                len(pickle.dumps(context["data"])))
        return context

    def _publish_dataset(self, data: Dataset
                         ) -> tuple[shared_memory.SharedMemory, DatasetHandle]:
        """Copy the dataset's arrays into one long-lived pinned segment."""
        inputs = np.ascontiguousarray(data.inputs, dtype=np.float64)
        labels = np.ascontiguousarray(data.labels)
        segment = shared_memory.SharedMemory(
            create=True, size=max(inputs.nbytes + labels.nbytes, 1))
        np.ndarray(inputs.shape, dtype=np.float64,
                   buffer=segment.buf)[...] = inputs
        np.ndarray(labels.shape, dtype=labels.dtype, buffer=segment.buf,
                   offset=inputs.nbytes)[...] = labels
        handle = DatasetHandle(segment.name, inputs.shape, labels.shape,
                               str(labels.dtype), inputs.nbytes,
                               data.num_classes)
        return segment, handle

    def _publish(self, pending: dict[str, dict]
                 ) -> tuple[shared_memory.SharedMemory, dict[str, OffsetTable]]:
        """Pack every pending trial into one segment; return offset tables."""
        total = sum(int(arrays.nbytes) for params in pending.values()
                    for arrays in params.values())
        segment = shared_memory.SharedMemory(create=True, size=max(total, 1))
        self._segments.append(segment)
        tables: dict[str, OffsetTable] = {}
        offset = 0
        for digest, params in pending.items():
            table: OffsetTable = {}
            for name, arrays in params.items():
                block = np.ascontiguousarray(arrays, dtype=np.float64)
                flat = np.ndarray(block.shape, dtype=np.float64,
                                  buffer=segment.buf, offset=offset)
                flat[...] = block
                table[name] = (offset, block.shape)
                offset += block.nbytes
            tables[digest] = table
        return segment, tables

    def _release(self, segment: shared_memory.SharedMemory) -> None:
        segment.close()
        segment.unlink()
        self._segments.remove(segment)

    def run_trials(self, pending: dict[str, dict],
                   apply_trial: Callable[[dict], None]) -> list[TrialResult]:
        groups = self._group_pending(pending)
        if len(groups) < 2:
            return self._run_in_process(pending, apply_trial)
        with current().span("backend", backend=self.name, tasks=len(groups)):
            segment, tables = self._publish(pending)
            try:
                messages = [(segment.name, [(digest, tables[digest])
                                            for digest, _ in group])
                            for group in groups]
                self.metrics.counter("bytes_shipped").add(
                    sum(len(pickle.dumps(message)) for message in messages))
                return self._map(messages)
            finally:
                self._release(segment)

    def close(self) -> None:
        super().close()
        # A chunk that died mid-flight can leave its segment behind;
        # closing the backend must never leak shared memory.
        for segment in list(self._segments):
            self._release(segment)
        if self._data_segment is not None:
            # Hand the dataset lease back: the main process keeps the
            # segment published for the next sweep's digest hit.
            self._data_segment.release()
            self._data_segment = None
