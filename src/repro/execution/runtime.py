"""Warm execution runtime: persistent worker pools + digest-keyed segments.

A BayesFT search runs one full sweep per BO trial, and each sweep used to
fork a worker pool, ship its context and tear everything down again.
:class:`ExecutionRuntime` makes those resources process-wide and leased:

* **Warm pools.**  Pools are bare ``ProcessPoolExecutor``s keyed by
  ``(workers, multiprocessing start method)``, so one pool serves trial
  backends, search-trial fan-out and cell fan-out alike (all of them
  through :class:`~repro.execution.pool.TaskPool`).  ``lease_pool()``
  hands out the cached pool, forking a new one on a cold start;
  releasing a lease leaves the pool warm for the next sweep.
* **Digest-keyed segments.**  Worker context (model weights, evaluation
  data, the task function) is pickled once, content-hashed, published
  into a ``multiprocessing.shared_memory`` segment and *leased by
  digest*: identical content (the same dataset across every BO trial)
  is published once and re-leased, and only changed payloads are
  re-shipped.  Workers install a context on first use and skip the
  unpickle when a task arrives with the digest they already hold.

Lifecycle rules, all load-bearing:

* **Only the main process caches.**  A lease never crosses ``fork``: the
  runtime stamps its owning PID and resets itself (dropping, *not*
  closing, the parent's pools and segments) the first time it is touched
  from a new process.  Outside the main process (a cell worker running a
  ``workers=2`` sweep, say) ``lease_pool`` and ``lease_payload`` hand out
  *uncached* leases: ``release()`` joins the pool and unlinks the
  segment at once.  Pool workers exit through ``os._exit`` without
  running ``atexit`` hooks, so anything cached there would orphan its
  grandchildren and segments.
* **Idle TTL.**  Unleased pools and segments older than ``idle_ttl``
  seconds are reaped on the next runtime touch (and idle segments beyond
  ``max_idle_segments`` are evicted oldest-first, bounding ``/dev/shm``
  growth during long BO runs whose weights change every trial).
* **Shutdown.**  ``runtime.shutdown()`` joins every pool and unlinks
  every segment; an ``atexit`` hook (registered when the global runtime
  is first built, PID-guarded) guarantees the same at interpreter exit,
  so no orphan processes or segments survive the owning process.  A
  signal skips ``atexit``, so every pool worker also asks the kernel to
  end it when its owner dies (``PR_SET_PDEATHSIG`` on Linux); the
  resource tracker then sees its last client gone and unlinks the
  owner's segments.

Counters (``pool_reuses`` / ``segment_reuses`` / ``cold_starts`` /
``segments_published``) are kept on the runtime's own
:class:`~repro.telemetry.MetricsRegistry` and mirrored into the ambient
telemetry session, so ``trace summarize`` shows how warm a run actually
ran.  The determinism contract is untouched: the runtime moves *where*
pools and bytes live, never what is evaluated, so a first lease and a
re-lease give canonical reports byte-identical to serial evaluation.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import multiprocessing
import os
import pickle
import signal
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import shared_memory

from ..telemetry import MetricsRegistry, current

__all__ = [
    "ExecutionRuntime", "PoolLease", "SegmentLease",
    "get_runtime", "shutdown_runtime", "using_runtime", "read_payload",
]

#: Idle seconds after which an unleased pool or segment is reaped.
DEFAULT_IDLE_TTL = 300.0

#: Idle (unleased) segments kept beyond the newest N are evicted eagerly,
#: TTL notwithstanding — long BO runs publish a new weight payload per
#: trial and must not grow ``/dev/shm`` without bound.
DEFAULT_MAX_IDLE_SEGMENTS = 8


def _in_main_process() -> bool:
    return multiprocessing.parent_process() is None


def _pool_method() -> str:
    """The start method every pool uses: ``fork`` where available."""
    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return multiprocessing.get_start_method(allow_none=False)


def _untrack_attachment(segment: shared_memory.SharedMemory) -> None:
    """Keep a mere attachment out of a spawned process's resource tracker.

    On CPython < 3.13 spawned processes register attachments with their
    own tracker and would double-unlink the owner's segment at exit.
    Forked processes share the owner's tracker, where the duplicate
    registration is a set no-op and unregistering would make the owner's
    own unlink fail instead.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        try:
            from multiprocessing import resource_tracker
            resource_tracker.unregister(segment._name, "shared_memory")
        except Exception:
            pass  # tracking semantics differ across versions; never fatal


def read_payload(handle: tuple) -> object:
    """Worker-side: unpickle a published ``(digest, name, nbytes)`` payload.

    Attaches, copies the bytes out and detaches immediately — the caller
    keeps the unpickled objects, never a view into the segment, so a
    later reap/unlink in the owning process cannot invalidate anything.
    """
    digest, name, nbytes = handle
    segment = shared_memory.SharedMemory(name=name)
    try:
        _untrack_attachment(segment)
        return pickle.loads(bytes(segment.buf[:nbytes]))
    finally:
        segment.close()


#: ``prctl`` option: signal this process when its parent thread exits.
_PR_SET_PDEATHSIG = 1


def _end_with_owner(owner: int) -> None:
    """Pool-worker initializer: the kernel ends this worker with its owner.

    An idle worker blocks on its call queue, so an owner killed by a
    signal (no ``atexit`` shutdown) would leave it running.  The death
    signal fires when the *thread* that forked the worker exits; with
    ``fork`` a pool forks all its workers in the thread of its first
    submit, and the runtime is main-thread only.  A no-op off Linux.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        prctl = ctypes.CDLL(None).prctl
    except (AttributeError, OSError):
        return
    prctl(_PR_SET_PDEATHSIG, int(signal.SIGKILL), 0, 0, 0)
    if os.getppid() != owner:
        os._exit(0)  # the owner died before the request took effect


def _new_pool(workers: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(
        max_workers=int(workers),
        mp_context=multiprocessing.get_context(_pool_method()),
        initializer=_end_with_owner, initargs=(os.getpid(),))


# --------------------------------------------------------------------------- #
# Cache entries and leases.
# --------------------------------------------------------------------------- #
@dataclass
class _PoolEntry:
    pool: ProcessPoolExecutor
    workers: int
    leases: int = 0
    last_used: float = field(default_factory=time.monotonic)


@dataclass
class _SegmentEntry:
    segment: shared_memory.SharedMemory
    meta: object
    leases: int = 0
    last_used: float = field(default_factory=time.monotonic)


class PoolLease:
    """A borrowed pool.  ``release()`` returns a cached pool still running.

    An uncached lease (``key is None``, outside the main process) joins its
    pool on release instead.
    """

    def __init__(self, runtime: "ExecutionRuntime", key: tuple | None,
                 entry: _PoolEntry):
        self._runtime = runtime
        self._key = key
        self._entry = entry
        self._released = False

    @property
    def pool(self) -> ProcessPoolExecutor:
        return self._entry.pool

    @property
    def workers(self) -> int:
        return self._entry.workers

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._runtime._release_pool(self._key, self._entry)


class SegmentLease:
    """A borrowed published segment; ``handle`` is its caller-defined meta.

    An uncached lease (``key is None``) unlinks its segment on release.
    """

    def __init__(self, runtime: "ExecutionRuntime", key: str | None,
                 entry: _SegmentEntry):
        self._runtime = runtime
        self._key = key
        self._entry = entry
        self._released = False

    @property
    def handle(self):
        return self._entry.meta

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._runtime._release_segment(self._key, self._entry)


# --------------------------------------------------------------------------- #
# The runtime.
# --------------------------------------------------------------------------- #
class ExecutionRuntime:
    """Process-wide cache of warm worker pools and published segments.

    Single-threaded by design (like every fan-out entry point in this
    codebase): leases are taken and released from the orchestrating
    process's main thread.  All public methods are fork-guarded — the
    first touch from a forked child resets the child's view instead of
    closing resources the parent still owns.
    """

    def __init__(self, idle_ttl: float = DEFAULT_IDLE_TTL,
                 max_idle_segments: int = DEFAULT_MAX_IDLE_SEGMENTS):
        self.idle_ttl = float(idle_ttl)
        self.max_idle_segments = int(max_idle_segments)
        self._pid = os.getpid()
        self._pools: dict[tuple, _PoolEntry] = {}
        self._segments: dict[str, _SegmentEntry] = {}
        self.metrics = MetricsRegistry()

    # -- fork / bookkeeping --------------------------------------------- #
    def _fork_check(self) -> None:
        if os.getpid() != self._pid:
            # Forked child: the pools and segments belong to the parent.
            # Drop the references without closing anything.
            self._pools = {}
            self._segments = {}
            self._pid = os.getpid()

    def _count(self, name: str, value: int = 1) -> None:
        self.metrics.counter(name).add(value)
        current().add(name, value)

    def stats(self) -> dict:
        """Introspection for tests and ``trace summarize`` narratives."""
        self._fork_check()
        return {
            "pools": len(self._pools),
            "segments": len(self._segments),
            "counters": self.metrics.as_dict(),
        }

    # -- pools ---------------------------------------------------------- #
    def lease_pool(self, workers: int) -> PoolLease | None:
        """Lease a bare pool of ``workers`` processes (``None`` below 2).

        The main process gets the cached warm pool; any other process gets
        a fresh pool that its lease's ``release()`` joins.
        """
        if workers < 2:
            return None
        self._fork_check()
        if not _in_main_process():
            self._count("cold_starts")
            return PoolLease(self, None, _PoolEntry(
                pool=_new_pool(workers), workers=int(workers)))
        self._reap_idle()
        key = (int(workers), _pool_method())
        entry = self._pools.get(key)
        if entry is not None and getattr(entry.pool, "_broken", False):
            self._drop_pool(key, entry, wait=False)
            entry = None
        if entry is None:
            entry = _PoolEntry(pool=_new_pool(workers), workers=int(workers))
            self._pools[key] = entry
            self._count("cold_starts")
        else:
            self._count("pool_reuses")
        entry.leases += 1
        entry.last_used = time.monotonic()
        return PoolLease(self, key, entry)

    def _drop_pool(self, key: tuple, entry: _PoolEntry, wait: bool) -> None:
        if self._pools.get(key) is entry:
            del self._pools[key]
        entry.pool.shutdown(wait=wait, cancel_futures=True)

    def _release_pool(self, key: tuple | None, entry: _PoolEntry) -> None:
        if key is None:
            entry.pool.shutdown(wait=True, cancel_futures=True)
            return
        self._fork_check()
        if self._pools.get(key) is not entry:
            return  # reaped, shut down, or a fork artefact — nothing to do
        entry.leases = max(0, entry.leases - 1)
        entry.last_used = time.monotonic()
        if getattr(entry.pool, "_broken", False):
            # A broken pool's workers are already gone; evict so the next
            # lease forks a fresh one instead of failing again.
            self._drop_pool(key, entry, wait=False)
        self._reap_idle()

    # -- segments ------------------------------------------------------- #
    def lease_segment(self, key: str, publish) -> SegmentLease:
        """Lease the segment cached under ``key``, publishing on a miss.

        ``publish()`` must return ``(shared_memory.SharedMemory, meta)``;
        ``meta`` (the caller's handle — an offset table, a dataset handle,
        a ``(digest, name, nbytes)`` tuple) is returned verbatim on every
        subsequent hit, so identical content is shipped exactly once.
        Outside the main process every lease publishes its own segment.
        """
        self._fork_check()
        if not _in_main_process():
            segment, meta = publish()
            self._count("segments_published")
            return SegmentLease(self, None, _SegmentEntry(segment, meta))
        self._reap_idle()
        entry = self._segments.get(key)
        if entry is None:
            segment, meta = publish()
            entry = _SegmentEntry(segment=segment, meta=meta)
            self._segments[key] = entry
            self._count("segments_published")
        else:
            self._count("segment_reuses")
        entry.leases += 1
        entry.last_used = time.monotonic()
        return SegmentLease(self, key, entry)

    def lease_payload(self, payload: bytes) -> SegmentLease:
        """Publish (or re-lease) a pickled payload, keyed by its content.

        The returned lease's ``handle`` is ``(digest, segment name,
        nbytes)`` — exactly what :func:`read_payload` consumes worker-side.
        """
        digest = hashlib.blake2b(payload, digest_size=16).hexdigest()

        def publish():
            segment = shared_memory.SharedMemory(
                create=True, size=max(len(payload), 1))
            segment.buf[:len(payload)] = payload
            return segment, (digest, segment.name, len(payload))

        return self.lease_segment("payload:" + digest, publish)

    def _drop_segment(self, key: str | None, entry: _SegmentEntry) -> None:
        if key is not None and self._segments.get(key) is entry:
            del self._segments[key]
        entry.segment.close()
        try:
            entry.segment.unlink()
        except FileNotFoundError:
            pass

    def _release_segment(self, key: str | None, entry: _SegmentEntry) -> None:
        if key is None:
            self._drop_segment(None, entry)
            return
        self._fork_check()
        if self._segments.get(key) is not entry:
            return
        entry.leases = max(0, entry.leases - 1)
        entry.last_used = time.monotonic()
        self._reap_idle()

    # -- reaping / shutdown --------------------------------------------- #
    def _reap_idle(self) -> None:
        now = time.monotonic()
        for key, entry in list(self._pools.items()):
            if entry.leases == 0 and now - entry.last_used > self.idle_ttl:
                self._drop_pool(key, entry, wait=True)
        idle = [(key, entry) for key, entry in self._segments.items()
                if entry.leases == 0]
        for key, entry in idle:
            if now - entry.last_used > self.idle_ttl:
                self._drop_segment(key, entry)
        # Oldest-first eviction beyond the idle-segment cap.
        idle = sorted(((key, entry) for key, entry in self._segments.items()
                       if entry.leases == 0), key=lambda item: item[1].last_used)
        excess = len(idle) - self.max_idle_segments
        for key, entry in idle[:max(0, excess)]:
            self._drop_segment(key, entry)

    def reap(self) -> None:
        """Reap idle pools/segments now (public for tests and long loops)."""
        self._fork_check()
        self._reap_idle()

    def shutdown(self) -> None:
        """Join every pool and unlink every segment.  Idempotent."""
        self._fork_check()
        for key, entry in list(self._pools.items()):
            self._drop_pool(key, entry, wait=True)
        for key, entry in list(self._segments.items()):
            self._drop_segment(key, entry)


# --------------------------------------------------------------------------- #
# The process-wide runtime.
# --------------------------------------------------------------------------- #
_GLOBAL: ExecutionRuntime | None = None


def _atexit_shutdown() -> None:
    runtime = _GLOBAL
    if runtime is not None and os.getpid() == runtime._pid:
        runtime.shutdown()


def get_runtime() -> ExecutionRuntime:
    """The process-wide runtime (built on first use, reaped at exit)."""
    global _GLOBAL
    if _GLOBAL is None:
        _GLOBAL = ExecutionRuntime()
        atexit.register(_atexit_shutdown)
    return _GLOBAL


def shutdown_runtime() -> None:
    """Shut the process-wide runtime down now (it rebuilds on next use)."""
    if _GLOBAL is not None:
        _GLOBAL.shutdown()


@contextmanager
def using_runtime(runtime: ExecutionRuntime):
    """Swap the process-wide runtime for ``runtime`` within a block.

    The test/benchmark isolation primitive: a block runs under its own
    private runtime without touching (or being polluted by) the global
    one.  The temporary runtime is *not* shut
    down on exit — callers own its lifecycle.
    """
    global _GLOBAL
    previous = _GLOBAL
    get_runtime()  # ensure the atexit hook exists before we start swapping
    _GLOBAL = runtime
    try:
        yield runtime
    finally:
        _GLOBAL = previous
