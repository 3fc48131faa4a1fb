"""Spans around the program's public entry points, recorded from outside.

:class:`Tracer` replaces each entry point listed in :data:`ENTRY_POINTS`
with a wrapper that records one span (name, start, end, parent, pid and a
few attributes read from the result).  No file under ``src/``
changes: the wrappers live on the classes and modules for the duration of
the traced run and :meth:`Tracer.uninstall` puts the originals back.

Worker pools start with ``fork``, so workers inherit the wrappers.  A
worker keeps its spans in memory and appends them, one JSON line per
finished root span, to ``spans-<pid>.jsonl`` in the tracer's directory;
:meth:`Tracer.worker_spans` merges those files when the run ends.  The
main process keeps its spans in memory only.  ``time.perf_counter`` reads
the system-wide monotonic clock on Linux, so worker and main-process
timestamps share one time base.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import json
import os
import time

#: ``(module, attribute path, span name)``.  Methods are wrapped on the
#: class that defines them, so subclasses that override a method are listed
#: separately.  The span name is ``<repro subpackage>.<operation>``.
ENTRY_POINTS = (
    ("repro.training.trainer", "Trainer.fit", "training.fit"),
    ("repro.bayesopt.optimizer", "BayesianOptimizer.suggest", "bayesopt.suggest"),
    ("repro.bayesopt.optimizer", "BayesianOptimizer.suggest_batch",
     "bayesopt.suggest"),
    ("repro.bayesopt.optimizer", "BayesianOptimizer.observe", "bayesopt.observe"),
    ("repro.core.objective", "DriftMarginalizedObjective.evaluate_with_clean",
     "core.objective"),
    ("repro.execution.search", "SearchTrialPool.run_batch", "core.batch_wait"),
    ("repro.evaluation.sweep", "DriftSweepEngine.run", "evaluation.sweep"),
    ("repro.fault.drift", "DriftModel.sample_batch", "fault.draw"),
    ("repro.fault.injector", "FaultInjector.apply_trial", "fault.apply"),
    ("repro.inference.evaluator", "PerTrialEvaluator.run", "inference.run"),
    ("repro.inference.evaluator", "TrialBatchedEvaluator.run", "inference.run"),
    ("repro.execution.serial", "SerialBackend.run_trials", "execution.run_trials"),
    ("repro.execution.process", "ProcessPoolBackend.run_trials",
     "execution.run_trials"),
    ("repro.execution.shared", "SharedMemoryBackend.run_trials",
     "execution.run_trials"),
    # run_specs calls run_cells through the runner module's namespace.
    ("repro.scenarios.runner", "run_cells", "execution.run_cells"),
    ("repro.scenarios.store", "ResultStore.save", "scenarios.save"),
    ("repro.scenarios.store", "ResultStore.missing", "scenarios.missing"),
    # contains() is the per-cell presence probe of a resumed run() call.
    ("repro.scenarios.store", "ResultStore.contains", "scenarios.missing"),
    ("repro.scenarios.store", "ResultStore.load", "scenarios.load"),
)

#: Optimiser steps are counted, not spanned: a span per step would cost
#: more than the counter's tiny overhead and add nothing the fit span lacks.
STEP_COUNTERS = (
    ("repro.nn.optim", "SGD.step"),
    ("repro.nn.optim", "Adam.step"),
)


def _annotate_sweep(attrs: dict, report) -> None:
    attrs["n_evaluations"] = report.n_evaluations
    attrs["cache_hits"] = report.cache_hits


def _annotate_draw(attrs: dict, drawn) -> None:
    attrs["draws"] = int(drawn.shape[0])
    attrs["bytes"] = int(drawn.nbytes)


def _annotate_inference(attrs: dict, results) -> None:
    attrs["evaluations"] = len(results)
    attrs["batched"] = sum(int(result.batched) for result in results)


ANNOTATIONS = {
    "evaluation.sweep": _annotate_sweep,
    "fault.draw": _annotate_draw,
    "inference.run": _annotate_inference,
}


def _resolve(module_name: str, path: str):
    module = __import__(module_name, fromlist=["_"])
    owner = module
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class Tracer:
    """In-memory span recorder with per-process files for forked workers."""

    def __init__(self, directory: str):
        self.directory = directory
        self.main_pid = os.getpid()
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._undo: list[tuple] = []
        os.register_at_fork(after_in_child=self._forked)

    # -- recording -------------------------------------------------------- #
    def _forked(self) -> None:
        # The child inherits the parent's open spans; they are not its own.
        self.spans = []
        self._stack = []

    def open(self, name: str) -> dict:
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "id": len(self.spans), "pid": os.getpid(), "attrs": {}}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        # Spans close in LIFO order; an exception unwinds them the same way.
        while self._stack and self._stack.pop() is not span:
            pass
        if not self._stack and os.getpid() != self.main_pid:
            self._flush()

    def _flush(self) -> None:
        path = os.path.join(self.directory, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as handle:
            handle.write(json.dumps(self.spans) + "\n")
        self.spans = []

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def count(self, key: str) -> None:
        """Add one to ``key`` on the innermost open span, if any."""
        if self._stack:
            attrs = self._stack[-1]["attrs"]
            attrs[key] = attrs.get(key, 0) + 1

    # -- installing ------------------------------------------------------- #
    def _traced(self, original, name: str):
        annotate = ANNOTATIONS.get(name)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
                if annotate is not None:
                    annotate(span["attrs"], result)
                return result
            finally:
                tracer.close(span)

        return traced

    def _counted(self, original):
        tracer = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            tracer.count("steps")
            return original(*args, **kwargs)

        return counted

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        for module_name, path, name in ENTRY_POINTS:
            owner, attr = _resolve(module_name, path)
            self._replace(owner, attr, self._traced(owner.__dict__[attr], name))
        for module_name, path in STEP_COUNTERS:
            owner, attr = _resolve(module_name, path)
            self._replace(owner, attr, self._counted(owner.__dict__[attr]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading back ----------------------------------------------------- #
    def worker_spans(self) -> list[dict]:
        """Every span the forked workers wrote, with process-unique ids."""
        spans: list[dict] = []
        for path in sorted(glob.glob(os.path.join(self.directory,
                                                  "spans-*.jsonl"))):
            with open(path) as handle:
                for line in handle:
                    batch = json.loads(line)
                    base = len(spans)
                    for span in batch:
                        span["id"] += base
                        if span["parent"] is not None:
                            span["parent"] += base
                    spans.extend(batch)
        return spans


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its direct children cover.

    Children of one span run one after another in its process, so their
    durations add up without overlap.
    """
    own = {span["id"]: span["end"] - span["start"] for span in spans}
    for span in spans:
        if span["parent"] is not None and span["parent"] in own:
            own[span["parent"]] -= span["end"] - span["start"]
    return own
