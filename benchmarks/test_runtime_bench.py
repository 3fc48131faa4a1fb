"""Warm-runtime bench: N sequential sweeps on a warm pool vs fresh pools.

The regime the runtime was built for is the BO inner loop: many small
sweeps back to back.  The slow arm calls ``shutdown_runtime()`` after
every sweep, so each sweep forks a fresh pool, publishes its context and
dataset segments and joins the pool again — the per-sweep tax the
runtime exists to remove.  In the warm arm the fork/publish happens once
and every later sweep re-leases the pool and re-uses the digest-keyed
segments, so per-sweep cost collapses to task submission plus a digest
compare.

That is *overhead elimination*, not parallelism — the >= 2x floor holds
on a single-core container (both arms run the same evaluations on the
same cores; only the per-sweep fork+publish+join tax differs), so unlike
the fan-out benches it is asserted unconditionally.  Timings are
best-of-``REPS`` per arm to shrug off scheduler noise on shared CI
boxes.  A small warm-pool async BO run is timed alongside for the
record (fan-out speedups still need real cores, so it is never
asserted).  Writes the machine-readable ``BENCH_runtime.json`` at the
repo root (CI uploads it as an artifact).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.core import (
    BayesFTSearch, DriftMarginalizedObjective, DropoutSearchSpace,
)
from repro.data import SyntheticMNIST, train_test_split
from repro.evaluation import DriftSweepEngine
from repro.execution.runtime import (
    ExecutionRuntime, shutdown_runtime, using_runtime,
)
from repro.models import build_mlp
from repro.training import train_classifier

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_runtime.json"

SWEEPS = 8   # sequential sweeps per timed arm — the BO-inner-loop shape
REPS = 3     # best-of repetitions per arm
TRIALS = 4   # distinct sigma>0 trials -> 4 tasks, enough to engage the pool
SIGMAS = (0.6,)
WORKERS = 2


def _trained():
    dataset = SyntheticMNIST(n_samples=96, image_size=16, rng=13)
    train_set, test_set = train_test_split(dataset, test_fraction=0.33, rng=13)
    model = build_mlp(256, depth=2, width=16, num_classes=10, rng=13)
    train_classifier(model, train_set, epochs=1, learning_rate=0.1, rng=13)
    return model, test_set


def _run_sweeps(model, test_set, fresh: bool = False) -> str:
    canonical = None
    for _ in range(SWEEPS):
        report = DriftSweepEngine(model, test_set, trials=TRIALS, rng=99,
                                  backend="shared_memory", workers=WORKERS,
                                  ).run(SIGMAS, label="bench")
        canonical = report.to_json(canonical=True)
        if fresh:
            shutdown_runtime()  # the next sweep forks and publishes anew
    return canonical


def _time_arm(model, test_set, fresh: bool = False) -> tuple[float, str]:
    best, canonical = float("inf"), None
    for _ in range(REPS):
        start = time.perf_counter()
        canonical = _run_sweeps(model, test_set, fresh)
        best = min(best, time.perf_counter() - start)
    return best, canonical


def _timed_bo_search(train_set, test_set, **kwargs) -> tuple[float, str]:
    model = build_mlp(256, depth=2, width=16, num_classes=10, rng=5)
    space = DropoutSearchSpace(model)
    objective = DriftMarginalizedObjective(test_set, sigma=0.7,
                                           monte_carlo_samples=2,
                                           metric="accuracy", rng=7)
    search = BayesFTSearch(space, objective, train_set, epochs_per_trial=1,
                           learning_rate=0.1, rng=9, **kwargs)
    start = time.perf_counter()
    result = search.run(n_trials=6)
    return time.perf_counter() - start, result.to_json()


def test_warm_runtime_beats_cold_pools_on_sequential_sweeps():
    model, test_set = _trained()

    fresh_runtime = ExecutionRuntime()
    try:
        with using_runtime(fresh_runtime):
            fresh_seconds, fresh_json = _time_arm(model, test_set, fresh=True)
    finally:
        fresh_runtime.shutdown()

    warm_runtime = ExecutionRuntime()
    try:
        with using_runtime(warm_runtime):
            _run_sweeps(model, test_set)  # untimed: pays the one cold start
            warm_seconds, warm_json = _time_arm(model, test_set)
            counters = dict(warm_runtime.stats()["counters"])
    finally:
        warm_runtime.shutdown()

    # The runtime moves where pools live, never what is evaluated.
    assert warm_json == fresh_json

    speedup = fresh_seconds / max(warm_seconds, 1e-9)
    summary = {
        "backend": "shared_memory",
        "workers": WORKERS,
        "sweeps_per_arm": SWEEPS,
        "trials_per_sweep": TRIALS,
        "reps": REPS,
        "usable_cores": os.cpu_count(),
        "fresh_seconds_best": round(fresh_seconds, 4),
        "warm_seconds_best": round(warm_seconds, 4),
        "warm_vs_fresh_speedup": round(speedup, 3),
        "warm_counters": counters,
        "canonical_identical": True,
    }

    # Warm-pool async BO, for the record only: fan-out needs real cores,
    # but the pool-reuse tax it no longer pays shows up even on one.
    bo_runtime = ExecutionRuntime()
    try:
        with using_runtime(bo_runtime):
            train_set = SyntheticMNIST(n_samples=128, image_size=16, rng=3)
            bo_split = train_test_split(train_set, test_fraction=0.25, rng=3)
            serial_seconds, serial_json = _timed_bo_search(
                *bo_split, search_workers=0, suggest_batch=2)
            async_seconds, async_json = _timed_bo_search(
                *bo_split, search_workers=WORKERS, suggest_batch=2)
            assert async_json == serial_json
    finally:
        bo_runtime.shutdown()
    summary["bo_async_warm"] = {
        "n_trials": 6, "suggest_batch": 2, "search_workers": WORKERS,
        "serial_seconds": round(serial_seconds, 4),
        "async_seconds": round(async_seconds, 4),
        "speedup": round(serial_seconds / max(async_seconds, 1e-9), 3),
    }

    BENCH_PATH.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")

    print("\n=== warm runtime bench (BENCH_runtime.json) ===")
    print(f"{SWEEPS} sequential sweeps x best-of-{REPS}: fresh pools "
          f"{fresh_seconds:.3f}s, warm {warm_seconds:.3f}s -> "
          f"{speedup:.2f}x on {os.cpu_count()} cores")
    print(f"warm counters: {counters}")
    print(f"warm async BO ({WORKERS} workers, q=2): serial "
          f"{serial_seconds:.2f}s, async {async_seconds:.2f}s")

    assert speedup >= 2.0, (
        f"warm runtime delivered only {speedup:.2f}x over fresh pools "
        f"(fresh {fresh_seconds:.3f}s vs warm {warm_seconds:.3f}s)")
