"""Tests for the warm execution runtime (`repro.execution.runtime`).

Three contracts, in descending order of importance:

* **Determinism is untouched.**  Canonical sweep reports, golden BO
  traces and store bytes are byte-identical to the serial reference on
  a first lease and on a re-lease, also when a cell worker fans its own
  sweep out — the runtime moves *where* pools and bytes live, never what
  is evaluated.
* **Lifecycle hygiene.**  Only the main process caches (a child's
  leases are released at once and leave nothing behind), broken pools
  are evicted instead of resold, the idle TTL and segment cap actually
  reap, and ``shutdown()`` leaves no live worker processes and no
  ``/dev/shm`` segments behind.
* **Observability.**  ``pool_reuses`` / ``cold_starts`` /
  ``segment_reuses`` surface through the ambient telemetry session and
  the ``trace summarize`` report, and ``workers_used`` reflects the
  configured cap rather than an executor internal.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.data import SyntheticMNIST, train_test_split
from repro.evaluation import DriftSweepEngine
from repro.execution import validate_backend
from repro.execution.runtime import (
    ExecutionRuntime, get_runtime, read_payload, using_runtime,
)
from repro.models import build_mlp
from repro.training import train_classifier

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

# Leases a 2-wide pool and a payload segment, reports the worker pids and
# the segment name, then waits to be killed.
OWNER_SCRIPT = """
import time
from repro.execution.runtime import get_runtime
runtime = get_runtime()
lease = runtime.lease_pool(2)
assert lease.pool.submit(max, 1, 2).result() == 2
payload = runtime.lease_payload(b"owner payload")
pids = [proc.pid for proc in lease.pool._processes.values()]
print(*pids, payload.handle[1], flush=True)
time.sleep(600)
"""


@contextmanager
def fresh_runtime(**kwargs):
    """A private runtime for one test: swapped in globally, shut down after."""
    runtime = ExecutionRuntime(**kwargs)
    try:
        with using_runtime(runtime):
            yield runtime
    finally:
        runtime.shutdown()


@pytest.fixture(scope="module")
def trained():
    dataset = SyntheticMNIST(n_samples=200, image_size=16, rng=13)
    train_set, test_set = train_test_split(dataset, test_fraction=0.3, rng=13)
    model = build_mlp(256, depth=3, width=32, num_classes=10, rng=13)
    train_classifier(model, train_set, epochs=3, learning_rate=0.1, rng=13)
    return model, test_set


def _canonical(trained, **kwargs) -> str:
    model, test_set = trained
    report = DriftSweepEngine(model, test_set, trials=3, rng=99,
                              **kwargs).run((0.0, 0.6, 1.2), label="warm")
    return report.to_json(canonical=True)


# Module-level so a leased pool can ship them to its workers.
def _lease_outside_main(_=None) -> dict:
    """Lease, use and release a pool and a payload; report what is left."""
    runtime = get_runtime()
    pool_lease = runtime.lease_pool(2)
    payload = runtime.lease_payload(b"child payload")
    value = pool_lease.pool.submit(max, 1, 2).result()
    stats = runtime.stats()
    pids = [proc.pid for proc in pool_lease.pool._processes.values()]
    pool_lease.release()
    payload.release()
    return {"value": value, "stats": stats, "pids": pids,
            "segment": payload.handle[1],
            "children": [child.pid
                         for child in multiprocessing.active_children()]}


def _kill_worker(_):
    os._exit(1)


def _child_runtime_view(queue):
    queue.put(_lease_outside_main())


def _assert_released_outside_main(view: dict) -> None:
    """The child cached nothing, and its released lease left nothing."""
    assert view["value"] == 2
    assert view["stats"]["pools"] == 0
    assert view["stats"]["segments"] == 0
    assert view["stats"]["counters"]["cold_starts"] >= 1
    assert view["pids"] and view["children"] == []
    for pid in view["pids"]:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=view["segment"])


def _cell_specs():
    from repro.scenarios import FaultSpec, ScenarioSpec
    from repro.utils.config import ExperimentConfig

    train = ExperimentConfig(epochs=1, train_samples=64, test_samples=32,
                             batch_size=32, learning_rate=0.1)
    return [ScenarioSpec(name=name, model="mlp", dataset="mnist",
                         fault=FaultSpec("lognormal"), sigmas=(0.0, 0.8),
                         trials=2, seed=3, train=train)
            for name in ("tiny", "tiny2")]


def _store_bytes(store) -> dict:
    return {(spec.name, name): (store.path_for(spec) / name).read_bytes()
            for spec in _cell_specs()
            for name in ("spec.json", "report.json")}


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _children(pid: int) -> list[int]:
    """Live child pids of ``pid`` (Linux ``/proc``)."""
    path = f"/proc/{pid}/task/{pid}/children"
    with open(path) as handle:
        return [int(child) for child in handle.read().split()]


# --------------------------------------------------------------------------- #
class TestRuntimeCore:
    def test_serial_widths_never_lease(self):
        with fresh_runtime() as runtime:
            assert runtime.lease_pool(0) is None
            assert runtime.lease_pool(1) is None
            assert runtime.stats()["pools"] == 0

    def test_pool_reuse_hands_back_the_same_executor(self):
        with fresh_runtime() as runtime:
            first = runtime.lease_pool(2)
            pool = first.pool
            first.release()
            second = runtime.lease_pool(2)
            assert second.pool is pool
            second.release()
            counters = runtime.stats()["counters"]
            assert counters["cold_starts"] == 1
            assert counters["pool_reuses"] == 1

    def test_release_is_idempotent(self):
        with fresh_runtime() as runtime:
            lease = runtime.lease_pool(2)
            lease.release()
            lease.release()  # second release must be a no-op
            assert runtime.stats()["pools"] == 1

    def test_payload_published_once_per_digest(self):
        payload = pickle.dumps({"weights": np.arange(6.0)})
        with fresh_runtime() as runtime:
            first = runtime.lease_payload(payload)
            second = runtime.lease_payload(payload)
            assert second.handle == first.handle
            third = runtime.lease_payload(payload + b"!")
            assert third.handle != first.handle
            counters = runtime.stats()["counters"]
            assert counters["segments_published"] == 2
            assert counters["segment_reuses"] == 1
            roundtrip = read_payload(first.handle)
            np.testing.assert_array_equal(roundtrip["weights"], np.arange(6.0))
            for lease in (first, second, third):
                lease.release()

    def test_idle_ttl_reaps_unleased_segments_and_pools(self):
        with fresh_runtime(idle_ttl=0.0) as runtime:
            lease = runtime.lease_payload(b"ephemeral")
            name = lease.handle[1]
            pool_lease = runtime.lease_pool(2)
            lease.release()
            pool_lease.release()
            time.sleep(0.01)
            runtime.reap()
            stats = runtime.stats()
            assert stats["segments"] == 0 and stats["pools"] == 0
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_leased_resources_survive_the_reaper(self):
        with fresh_runtime(idle_ttl=0.0) as runtime:
            lease = runtime.lease_payload(b"pinned")
            pool_lease = runtime.lease_pool(2)
            time.sleep(0.01)
            runtime.reap()
            stats = runtime.stats()
            assert stats["segments"] == 1 and stats["pools"] == 1
            segment = shared_memory.SharedMemory(name=lease.handle[1])
            segment.close()
            lease.release()
            pool_lease.release()

    def test_idle_segment_cap_evicts_oldest_first(self):
        with fresh_runtime(max_idle_segments=1) as runtime:
            leases = [runtime.lease_payload(bytes([i]) * 8) for i in range(3)]
            names = [lease.handle[1] for lease in leases]
            for lease in leases:
                lease.release()
            runtime.reap()
            assert runtime.stats()["segments"] == 1
            for name in names[:2]:
                with pytest.raises(FileNotFoundError):
                    shared_memory.SharedMemory(name=name)
            survivor = shared_memory.SharedMemory(name=names[2])
            survivor.close()

    def test_shutdown_leaves_no_processes_or_segments(self):
        with fresh_runtime() as runtime:
            lease = runtime.lease_pool(2)
            # Materialise the workers before recording their pids.
            assert lease.pool.submit(max, 1, 2).result() == 2
            pids = [proc.pid for proc in lease.pool._processes.values()]
            assert pids
            payload = runtime.lease_payload(b"to-be-unlinked")
            name = payload.handle[1]
            lease.release()
            payload.release()
            runtime.shutdown()
            for pid in pids:
                for _ in range(100):
                    try:
                        os.kill(pid, 0)
                    except ProcessLookupError:
                        break
                    time.sleep(0.05)
                else:
                    pytest.fail(f"worker {pid} still alive after shutdown()")
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
            stats = runtime.stats()
            assert stats["pools"] == 0 and stats["segments"] == 0

    def test_release_after_shutdown_is_a_noop(self):
        with fresh_runtime() as runtime:
            lease = runtime.lease_pool(2)
            segment = runtime.lease_payload(b"gone")
            runtime.shutdown()
            lease.release()
            segment.release()
            assert runtime.stats()["pools"] == 0

    def test_broken_pool_evicted_and_next_lease_is_cold(self):
        with fresh_runtime() as runtime:
            lease = runtime.lease_pool(2)
            with pytest.raises(Exception):  # BrokenProcessPool
                lease.pool.submit(_kill_worker, None).result()
            lease.release()
            replacement = runtime.lease_pool(2)
            assert not getattr(replacement.pool, "_broken", False)
            assert replacement.pool.submit(max, 3, 4).result() == 4
            replacement.release()
            assert runtime.stats()["counters"]["cold_starts"] == 2

    @pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
    def test_lease_never_crosses_fork(self):
        with fresh_runtime() as runtime:
            lease = runtime.lease_pool(2)
            assert lease.pool.submit(max, 1, 2).result() == 2
            context = multiprocessing.get_context("fork")
            queue = context.Queue()
            child = context.Process(target=_child_runtime_view, args=(queue,))
            child.start()
            view = queue.get(timeout=60)
            child.join(timeout=30)
            # The forked child dropped (not closed) the parent's pools,
            # cached nothing of its own, and its lease left nothing behind.
            _assert_released_outside_main(view)
            # ... and the parent's pool is still alive and usable.
            assert lease.pool.submit(max, 5, 6).result() == 6
            lease.release()

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="the owner-death signal is Linux only")
    def test_sigterm_to_the_owner_leaves_no_workers_or_segments(self):
        """A signal skips the atexit shutdown; the workers die anyway."""
        segments_before = set(os.listdir("/dev/shm"))
        owner = subprocess.Popen(
            [sys.executable, "-c", OWNER_SCRIPT], stdout=subprocess.PIPE,
            text=True, env={**os.environ, "PYTHONPATH": SRC})
        try:
            *pids, segment = owner.stdout.readline().split()
            pids = [int(pid) for pid in pids]
            assert len(pids) == 2 and all(_running(pid) for pid in pids)
            assert segment in os.listdir("/dev/shm")
            owner.send_signal(signal.SIGTERM)
            owner.wait(timeout=5)
        finally:
            owner.kill()
            owner.stdout.close()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and (
                any(_running(pid) for pid in pids)
                or set(os.listdir("/dev/shm")) - segments_before):
            time.sleep(0.05)
        survivors = [pid for pid in pids if _running(pid)]
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)  # leave nothing behind on failure
        assert survivors == []
        assert set(os.listdir("/dev/shm")) <= segments_before

    @pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
    def test_worker_leases_are_uncached_and_leave_nothing(self):
        with fresh_runtime() as runtime:
            lease = runtime.lease_pool(2)
            view = lease.pool.submit(_lease_outside_main).result()
            _assert_released_outside_main(view)
            lease.release()


# --------------------------------------------------------------------------- #
class TestWarmColdIdentity:
    """A first lease and a re-lease both match the serial reference."""

    @pytest.mark.parametrize("kwargs", [
        dict(backend="process", workers=2),
        dict(backend="process", workers=2, max_chunk_trials=2),
        dict(backend="shared_memory", workers=2),
        # max_chunk_trials=1 would leave every chunk on the single-task
        # in-process fast path (no pool at all) — chunk at 2 so the pool
        # engages while the chunked schedule is still exercised.
        dict(backend="shared_memory", workers=2, max_chunk_trials=2),
    ], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
    def test_sweep_reports_byte_identical(self, trained, kwargs):
        serial = _canonical(trained)
        with fresh_runtime() as runtime:
            first = _canonical(trained, **kwargs)   # cold start
            second = _canonical(trained, **kwargs)  # pool + segment reuse
            counters = runtime.stats()["counters"]
            assert counters["cold_starts"] == 1
            assert counters["pool_reuses"] >= 1
        assert serial == first == second

    def test_async_bo_golden_trace_byte_identical(self):
        from repro.core import (
            BayesFTSearch, DriftMarginalizedObjective, DropoutSearchSpace,
        )
        dataset = SyntheticMNIST(n_samples=160, image_size=16, rng=3)
        train_set, test_set = train_test_split(dataset, test_fraction=0.25,
                                               rng=3)

        def run_search(search_workers):
            model = build_mlp(256, depth=3, width=16, num_classes=10, rng=5)
            space = DropoutSearchSpace(model)
            objective = DriftMarginalizedObjective(
                test_set, sigma=0.7, monte_carlo_samples=2,
                metric="accuracy", rng=7)
            search = BayesFTSearch(space, objective, train_set,
                                   epochs_per_trial=1, learning_rate=0.1,
                                   rng=9, suggest_batch=2,
                                   search_workers=search_workers)
            return search.run(n_trials=4).to_json()

        serial = run_search(0)
        with fresh_runtime() as runtime:
            first = run_search(2)
            again = run_search(2)
            assert runtime.stats()["counters"]["pool_reuses"] >= 1
        assert serial == first == again

    def test_cell_fanout_store_bytes_identical(self, tmp_path):
        from repro.scenarios import ResultStore, ScenarioRunner

        serial = ResultStore(tmp_path / "serial")
        ScenarioRunner(serial).run_specs(_cell_specs(), scenario="s")
        blobs = {"serial": _store_bytes(serial)}
        with fresh_runtime():
            for mode in ("first", "again"):
                store = ResultStore(tmp_path / mode)
                ScenarioRunner(store).run_specs(_cell_specs(), scenario="s",
                                                backend="process",
                                                cell_workers=2)
                blobs[mode] = _store_bytes(store)
        assert blobs["serial"] == blobs["first"] == blobs["again"]

    @pytest.mark.skipif(not os.path.exists("/proc/self/task"),
                        reason="needs Linux /proc to list worker children")
    def test_nested_fanout_matches_serial_and_leaves_nothing(self, tmp_path):
        """Cell workers fan their own sweeps out over uncached pools."""
        from repro.scenarios import ResultStore, ScenarioRunner

        serial_store = ResultStore(tmp_path / "serial")
        serial = ScenarioRunner(serial_store).run_specs(_cell_specs(),
                                                        scenario="s")
        segments_before = set(os.listdir("/dev/shm"))
        children_before = {child.pid
                           for child in multiprocessing.active_children()}
        with fresh_runtime() as runtime:
            store = ResultStore(tmp_path / "nested")
            runner = ScenarioRunner(store, workers=2,
                                    backend="shared_memory")
            nested = runner.run_specs(_cell_specs(), scenario="s",
                                      backend="process", cell_workers=2)
            cell_workers = [pid for entry in runtime._pools.values()
                            for pid in entry.pool._processes]
            assert cell_workers
            # Each cell worker joined the pool it leased for its sweep.
            for pid in cell_workers:
                assert _children(pid) == []
        assert {(run.report.backend, run.report.workers)
                for run in nested} == {("shared_memory", 2)}
        assert [run.report.to_json(canonical=True) for run in nested] == \
            [run.report.to_json(canonical=True) for run in serial]
        assert _store_bytes(store) == _store_bytes(serial_store)
        for pid in cell_workers:
            for _ in range(100):
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.05)
            else:
                pytest.fail(f"cell worker {pid} alive after shutdown()")
        assert {child.pid for child in multiprocessing.active_children()} \
            <= children_before
        assert set(os.listdir("/dev/shm")) <= segments_before


# --------------------------------------------------------------------------- #
class TestObservability:
    def test_warm_counters_reach_trace_summaries(self, trained):
        from repro.telemetry import Telemetry, using
        from repro.telemetry.export import format_trace_summary, summarize_trace
        with fresh_runtime(), using(Telemetry()) as telemetry:
            _canonical(trained, backend="process", workers=2)
            _canonical(trained, backend="process", workers=2)
            summary = summarize_trace(telemetry.snapshot())
        assert summary["counters"]["cold_starts"] == 1
        assert summary["counters"]["pool_reuses"] >= 1
        rendered = format_trace_summary(summary)
        assert "warm runtime" in rendered
        assert "pool reuses" in rendered

    def test_workers_used_reports_configured_cap(self, trained):
        model, test_set = trained
        with fresh_runtime():
            engine = DriftSweepEngine(model, test_set, trials=2, rng=7,
                                      backend="process", workers=2)
            report = engine.run((0.0, 0.8))
        assert report.workers == 2

    def test_cold_single_task_still_reports_configured_cap(self, trained):
        """workers_used is the configured cap even when fewer tasks ship."""
        model, test_set = trained
        with fresh_runtime():
            report = DriftSweepEngine(model, test_set, trials=1, rng=7,
                                      backend="process", workers=2,
                                      ).run((0.7,))
        assert report.workers >= 1


# --------------------------------------------------------------------------- #
class TestValidateBackend:
    def test_unknown_name_rejected_with_available_list(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            validate_backend("warp-drive")

    def test_none_names_and_instances_accepted(self):
        from repro.execution import SerialBackend
        validate_backend(None)
        validate_backend("shared_memory")
        validate_backend(SerialBackend())

    def test_engine_construction_builds_no_backend(self, trained, monkeypatch):
        """Engine __init__ validates via the registry — no throwaway pool."""
        import repro.evaluation.sweep as sweep_module
        model, test_set = trained

        def explode(*args, **kwargs):
            raise AssertionError("resolve_backend called during __init__")

        monkeypatch.setattr(sweep_module, "resolve_backend", explode)
        engine = DriftSweepEngine(model, test_set, trials=2, rng=1,
                                  backend="process", workers=2)
        assert engine.backend == "process"
