"""The benchmark's workloads: set-up, one closed-loop unit, output checks.

Every workload derives all of its inputs from the workload seed: data and
model seeds, the reference seed that set-up warms up and checks, and a
fresh seed for every unit of the timed window.  Fresh seeds matter: a
repeated seed would let digest-keyed caches (published worker contexts,
weight segments) answer work that users with new inputs pay for.

A unit is timed from outside with ``time.perf_counter`` around the public
call a user makes: ``BayesFT.fit``, ``DriftSweepEngine.run`` or
``ScenarioRunner.run_specs``.  Building the inputs for the call (a fresh
model, a fresh store directory) happens outside the timed region.  Each
timed call sits between two runs of the workload's calibration kernel
(``calibrate.py``), whose mean time is kept with the sample so that the
call can be scaled to reference seconds.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

#: The σ grid of a deep sweep, and its Monte-Carlo draws per σ.
SWEEP_SIGMAS = (0.0, 0.3, 0.6, 0.9)
SWEEP_TRIALS = 8

#: fault_matrix seeds per fill pass (6 cells each), and resume passes over
#: each filled store.  One resume pass takes 4-10 ms, so the passes run in
#: blocks with a calibration kernel between blocks.
MATRIX_SEEDS_PER_FILL = 2
RESUME_PASSES = 400
RESUME_BLOCK = 20


@dataclass
class Unit:
    """What one closed-loop unit did.

    ``samples`` are wall seconds of timed calls and ``kernel_s`` the
    calibration kernel's seconds around each; together they feed ``unit_s``.
    ``items`` done over those samples feed ``work_per_s``.  ``counts`` are
    figures the program itself returned (shipping, fallbacks, store size).
    """

    samples: list = field(default_factory=list)
    kernel_s: list = field(default_factory=list)
    items: int = 0
    counts: dict = field(default_factory=dict)
    attempted: int = 1
    failed: int = 0


def derived_seed(seed: int, *path: int) -> int:
    """A 31-bit seed derived from the workload seed and a path of indices."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0]
               & 0x7FFFFFFF)


class Workload:
    """Base class: set-up, one unit, and the checks around them."""

    name = ""
    unit_label = ""
    item_label = ""
    #: The ``calibrate.KERNELS`` entry whose mix of work resembles the unit's.
    kernel = ""

    def __init__(self, seed: int, workdir: str):
        from calibrate import Calibrator

        self.seed = int(seed)
        self.workdir = workdir
        self.tracer = None
        self.next_index = 0
        self.data_build_s = 0.0
        self.reference_seed = derived_seed(self.seed, 1)
        self.calibrator = Calibrator(self.kernel)
        self._kernel_after = None

    def calibrated(self, call):
        """``(result, wall_s, kernel_s)`` of ``call()`` timed between two
        kernel runs; the closing run opens the next call's bracket."""
        with self.bench_span():
            before = self._kernel_after or self.calibrator.measure()
        start = time.perf_counter()
        result = call()
        seconds = time.perf_counter() - start
        with self.bench_span():
            self._kernel_after = self.calibrator.measure()
        return result, seconds, (before + self._kernel_after) / 2

    def unit_seed(self, index: int) -> int:
        return derived_seed(self.seed, 2, index)

    def bench_span(self):
        """Span for the benchmark's own work inside a unit (traced runs)."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span("bench")

    def setup(self) -> None:
        """Data, model and the first warm-up unit (timed as ``setup_s``)."""
        raise NotImplementedError

    def reference(self) -> None:
        """Untimed: compute the serial-path reference output."""

    def unit(self, index: int) -> Unit:
        raise NotImplementedError

    def check(self) -> tuple[int, int]:
        """Untimed: re-run the reference seed; ``(compared, mismatched)``."""
        raise NotImplementedError


class SearchWorkload(Workload):
    """Back-to-back BayesFT searches on LeNet / SyntheticMNIST 16×16."""

    unit_label = "seconds per BayesFT search (8 trials)"
    item_label = "BO trials"
    kernel = "numpy"
    suggest_batch = 1
    search_workers = 0

    def setup(self) -> None:
        from repro.data import SyntheticMNIST

        start = time.perf_counter()
        # 400 samples; BayesFT.fit holds out 25%: 300 train, 100 validation.
        self.data = SyntheticMNIST(n_samples=400, image_size=16,
                                   rng=derived_seed(self.seed, 0))
        self.data_build_s = time.perf_counter() - start
        self.warm = self._search(self.reference_seed, self.suggest_batch,
                                 self.search_workers)

    def _search(self, seed: int, suggest_batch: int, search_workers: int,
                timed: bool = False):
        from repro import BayesFT
        from repro.models import build_model

        with self.bench_span():
            model = build_model("lenet", num_classes=10, in_channels=1,
                                image_size=16, rng=seed)
        def search():
            return BayesFT(sigma=0.8, n_trials=8, epochs_per_trial=2,
                           monte_carlo_samples=3, suggest_batch=suggest_batch,
                           search_workers=search_workers, rng=seed).fit(
                               model, self.data)

        return self.calibrated(search) if timed else search()

    def reference(self) -> None:
        # Same q, no search workers: the in-process path.
        if self.search_workers:
            self.ref = self._search(self.reference_seed, self.suggest_batch,
                                    0).to_json()
        else:
            self.ref = self.warm.to_json()

    def unit(self, index: int) -> Unit:
        result, seconds, kernel_s = self._search(
            self.unit_seed(index), self.suggest_batch, self.search_workers,
            timed=True)
        stats = result.search_stats
        return Unit(samples=[seconds], kernel_s=[kernel_s],
                    items=result.num_trials,
                    counts={"tasks_shipped": stats.get("tasks_shipped", 0),
                            "fallbacks": int(bool(stats.get("fell_back")))})

    def check(self) -> tuple[int, int]:
        repeat = self._search(self.reference_seed, self.suggest_batch,
                              self.search_workers).to_json()
        warm = self.warm.to_json()
        return 2, int(warm != self.ref) + int(repeat != warm)


class SearchSeq(SearchWorkload):
    name = "search_seq"


class SearchAsync(SearchWorkload):
    name = "search_async"
    suggest_batch = 2
    search_workers = 2


class SweepDeep(Workload):
    """Repeated drift sweeps of a PreAct-18 over shared-memory workers."""

    name = "sweep_deep"
    unit_label = "seconds per drift sweep (4 sigmas x 8 draws)"
    item_label = "drifted weight sets evaluated"
    kernel = "numpy"

    def setup(self) -> None:
        from repro.data import SyntheticCIFAR, train_test_split
        from repro.models import build_model
        from repro.training import train_classifier

        start = time.perf_counter()
        # 64 training and 16 evaluation images.  A PreAct-18 evaluation
        # costs about the same on 16 or 32 images (per-layer overhead
        # dominates), so the small set only shortens set-up.
        data = SyntheticCIFAR(n_samples=80, image_size=16,
                              rng=derived_seed(self.seed, 0))
        train, self.test = train_test_split(data, test_fraction=0.2,
                                            rng=derived_seed(self.seed, 0))
        self.data_build_s = time.perf_counter() - start
        self.model = build_model("preact18", num_classes=10, in_channels=3,
                                 image_size=16, rng=derived_seed(self.seed, 0))
        train_classifier(self.model, train, epochs=1, batch_size=32,
                         rng=derived_seed(self.seed, 0))
        self.warm = self._sweep(self.reference_seed, "shared_memory", 2)

    def _sweep(self, seed: int, backend: str, workers: int,
               timed: bool = False):
        from repro.evaluation import DriftSweepEngine

        def sweep():
            return DriftSweepEngine(self.model, self.test, trials=SWEEP_TRIALS,
                                    workers=workers, backend=backend,
                                    rng=seed).run(SWEEP_SIGMAS)

        return self.calibrated(sweep) if timed else sweep()

    def reference(self) -> None:
        self.ref = self._sweep(self.reference_seed, "serial", 0).to_json(
            canonical=True)

    def unit(self, index: int) -> Unit:
        report, seconds, kernel_s = self._sweep(
            self.unit_seed(index), "shared_memory", 2, timed=True)
        return Unit(samples=[seconds], kernel_s=[kernel_s],
                    items=report.n_evaluations,
                    counts={"tasks_shipped": report.tasks_shipped,
                            "bytes_shipped": report.bytes_shipped,
                            "fallbacks": int(bool(report.fallback_reason))})

    def check(self) -> tuple[int, int]:
        repeat = self._sweep(self.reference_seed, "shared_memory", 2)
        warm = self.warm.to_json(canonical=True)
        return 2, (int(warm != self.ref)
                   + int(repeat.to_json(canonical=True) != warm))


class Matrix(Workload):
    """fault_matrix fill passes over 2 cell workers, then resume passes.

    Both end-to-end figures come from the resume passes.  The fill rate is
    printed but not gated: with two cell workers each running the default
    BLAS thread count on two cores, one fill pass of the same size takes
    anywhere from 1 to 6 s, far wider than any usable bound.
    """

    name = "matrix"
    unit_label = "seconds per resume pass over a filled 12-cell store"
    item_label = "cells answered"
    kernel = "python"

    def setup(self) -> None:
        from repro.scenarios import get_scenario

        self.scenario = get_scenario("fault_matrix")
        # The warm-up unit fills in-process, which also gives the serial
        # reference.  A fill fanned out over two workers would make setup_s
        # as unsteady as the fill rate.
        store, _, runs, _ = self._fill(self.reference_seed, "serial")
        self.ref = self._canonical(runs)
        self._resume(store, [run.spec for run in runs])
        shutil.rmtree(store.root)

    def _specs(self, seed: int) -> list:
        return [spec for offset in range(MATRIX_SEEDS_PER_FILL)
                for spec in self.scenario.cells(seed=derived_seed(seed, offset))]

    @staticmethod
    def _canonical(runs) -> list:
        return [run.report.to_json(canonical=True) for run in runs]

    def _fill(self, seed: int, backend: str = "process"):
        """Fill a fresh store with the cells of ``seed``; time the fill."""
        from repro.scenarios import ResultStore, ScenarioRunner

        store = ResultStore(tempfile.mkdtemp(prefix="store-", dir=self.workdir))
        runner = ScenarioRunner(store)
        start = time.perf_counter()
        runs = runner.run_specs(self._specs(seed), backend=backend,
                                cell_workers=2)
        return store, runner, runs, time.perf_counter() - start

    @staticmethod
    def _resume(store, specs) -> list:
        """One resume pass; it opens the store afresh, as a new CLI run would."""
        from repro.scenarios import ResultStore, ScenarioRunner

        return ScenarioRunner(ResultStore(store.root)).run_specs(
            specs, backend="process", cell_workers=2)

    def _timed_resume(self, store, specs) -> tuple:
        start = time.perf_counter()
        resumed = self._resume(store, specs)
        return time.perf_counter() - start, resumed

    def unit(self, index: int) -> Unit:
        store, runner, runs, fill_seconds = self._fill(self.unit_seed(index))
        with self.bench_span():
            filled = self._canonical(runs)
            store_bytes = _tree_bytes(store.root)
        fanout_fallbacks = sum(event["layer"] == "cell_fanout"
                               for event in runner.degraded)
        unit = Unit(attempted=1 + RESUME_PASSES,
                    counts={"tasks_shipped": 0 if fanout_fallbacks else len(runs),
                            "fallbacks": len(runner.degraded),
                            "store_bytes": store_bytes,
                            "fill_cells": len(runs),
                            "fill_seconds": fill_seconds})
        specs = [run.spec for run in runs]
        self._kernel_after = None  # the fill ran since the last kernel run
        for _ in range(RESUME_PASSES // RESUME_BLOCK):
            passes, _, kernel_s = self.calibrated(
                lambda: [self._timed_resume(store, specs)
                         for _ in range(RESUME_BLOCK)])
            for seconds, resumed in passes:
                unit.samples.append(seconds)
                unit.kernel_s.append(kernel_s)
                unit.items += len(resumed)
                with self.bench_span():
                    if (not all(run.cached for run in resumed)
                            or self._canonical(resumed) != filled):
                        unit.failed += 1
        with self.bench_span():
            shutil.rmtree(store.root)
        return unit

    def check(self) -> tuple[int, int]:
        # The measured (fanned-out) path at the reference seed must repeat
        # the serial set-up fill byte for byte.
        store, _, runs, _ = self._fill(self.reference_seed)
        shutil.rmtree(store.root)
        return 1, int(self._canonical(runs) != self.ref)


def _tree_bytes(root) -> int:
    return sum(os.path.getsize(os.path.join(directory, name))
               for directory, _, names in os.walk(root) for name in names)


WORKLOADS = {cls.name: cls for cls in (SearchSeq, SearchAsync, SweepDeep, Matrix)}
