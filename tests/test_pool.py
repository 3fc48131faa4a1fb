"""Failure classification of `repro.execution.pool.TaskPool`.

Where a failure surfaces decides what happens to it:

==========================================  ===============================
failure                                     outcome
==========================================  ===============================
lease/submission fails (pool breakage)      degrade to in-process
a worker dies (``os._exit``)                degrade to in-process
a task raises ``ValueError``/``OSError``    propagates, no ``RuntimeWarning``
breakage with ``fallback=None``             original error propagates (the
                                            sweep engine's serial fallback)
==========================================  ===============================

A degraded search or cell fan-out warns, records ``fallback_reason`` and
its ``<layer>_pool_fallbacks`` counter, and stays in-process afterwards.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import BrokenExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager

import pytest

from repro.data import SyntheticMNIST, train_test_split
from repro.evaluation import DriftSweepEngine
from repro.execution import ProcessPoolBackend, TaskPool
from repro.execution.runtime import ExecutionRuntime, using_runtime
from repro.models import build_mlp
from repro.telemetry import Telemetry, using


@contextmanager
def fresh_runtime():
    runtime = ExecutionRuntime()
    try:
        with using_runtime(runtime):
            yield runtime
    finally:
        runtime.shutdown()


# Module-level so workers resolve them by reference.
def _square(context, payload):
    return payload ** 2 + context["offset"]


def _exit_in_worker(context, payload):
    if os.getpid() != context["parent"]:
        os._exit(1)  # kill the worker: only in-process execution survives
    return payload


def _raise(context, payload):
    raise context["error"]("task failed on its own")


class _BrokenLease:
    class pool:
        @staticmethod
        def submit(*args, **kwargs):
            raise BrokenExecutor("no forks today")

    def release(self):
        pass


@pytest.fixture
def broken_submission(monkeypatch):
    monkeypatch.setattr(ExecutionRuntime, "lease_pool",
                        lambda self, workers: _BrokenLease())


class TestDegrades:
    @pytest.mark.parametrize("layer", ["search", "cell"])
    def test_submission_failure_degrades(self, broken_submission, layer):
        pool = TaskPool(_square, {"offset": 1}, 2, fallback=layer)
        telemetry = Telemetry()
        with fresh_runtime(), using(telemetry):
            with pytest.warns(RuntimeWarning, match="fell back"):
                assert pool.map([1, 2, 3]) == [2, 5, 10]
            pool.close()
        assert pool.fell_back and pool.tasks_shipped == 0
        assert pool.fallback_reason == "BrokenExecutor: no forks today"
        counters = telemetry.snapshot()["metrics"]["counters"]
        assert counters[f"{layer}_pool_fallbacks"] == 1

    @pytest.mark.parametrize("layer", ["search", "cell"])
    def test_dead_worker_degrades_and_stays_in_process(self, layer):
        pool = TaskPool(_exit_in_worker, {"parent": os.getpid()}, 2,
                        fallback=layer)
        telemetry = Telemetry()
        with fresh_runtime(), using(telemetry):
            with pytest.warns(RuntimeWarning, match="fell back"):
                assert pool.map([4, 5, 6]) == [4, 5, 6]
            assert "BrokenProcessPool" in pool.fallback_reason
            shipped = pool.tasks_shipped
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert pool.map([7, 8]) == [7, 8]
            pool.close()
        assert pool.tasks_shipped == shipped  # nothing re-shipped
        assert pool.metrics.value("pool_fallbacks") == 1
        counters = telemetry.snapshot()["metrics"]["counters"]
        assert counters[f"{layer}_pool_fallbacks"] == 1


class TestPropagates:
    @pytest.mark.parametrize("error", [ValueError, OSError])
    @pytest.mark.parametrize("width", [0, 2])
    def test_task_error_propagates_without_warning(self, error, width):
        pool = TaskPool(_raise, {"error": error}, width, fallback="cell")
        with fresh_runtime():
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(error, match="task failed on its own"):
                    pool.map([1, 2])
            pool.close()
        assert not pool.fell_back and pool.fallback_reason is None

    def test_breakage_without_fallback_raises_the_original_error(
            self, broken_submission):
        pool = TaskPool(_square, {"offset": 0}, 2)
        with fresh_runtime():
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(BrokenExecutor, match="no forks today"):
                    pool.map([1, 2])

    def test_dead_worker_without_fallback_raises_broken_pool(self):
        pool = TaskPool(_exit_in_worker, {"parent": os.getpid()}, 2)
        with fresh_runtime():
            with pytest.raises(BrokenProcessPool):
                pool.map([1, 2])


def _die(context, group):
    os._exit(1)


class _DyingBackend(ProcessPoolBackend):
    """A trial backend whose workers die on their first task."""

    task_fn = staticmethod(_die)


class TestTrialBackends:
    def test_dead_trial_workers_hand_over_to_engine_serial_fallback(self):
        dataset = SyntheticMNIST(n_samples=120, image_size=16, rng=13)
        _, test_set = train_test_split(dataset, test_fraction=0.3, rng=13)
        model = build_mlp(256, depth=2, width=16, num_classes=10, rng=13)
        reference = DriftSweepEngine(model, test_set, trials=3,
                                     rng=17).run((0.0, 0.9))
        with fresh_runtime():
            with pytest.warns(RuntimeWarning, match="fell back to serial"):
                degraded = DriftSweepEngine(
                    model, test_set, trials=3, rng=17,
                    backend=_DyingBackend(workers=2)).run((0.0, 0.9))
        assert degraded.fallback_reason.startswith("BrokenProcessPool")
        assert degraded.to_json(canonical=True) == \
            reference.to_json(canonical=True)
