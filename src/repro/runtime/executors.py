"""Pluggable task executors for the campaign engine.

The executor contract is a single method::

    map(fn, tasks, on_result=None) -> list   # results in task order

``fn`` must be picklable for the pool executor (the repo's jobs are
frozen dataclasses with ``__call__`` — see :mod:`repro.runtime.jobs`),
and every executor must return *identical* results for a deterministic
``fn``: the pool only changes wall-clock, never values.

``on_result`` is an optional observation hook invoked once per completed
result, in task order, as results stream in — the engine uses it to
drive the live progress heartbeat.  Hooks must not mutate results.

Two executors ship:

* :class:`SerialExecutor` — in-process reference semantics;
* :class:`SharedMemoryExecutor` — the process pool: one **persistent**
  pool reused across ``map()`` calls, with large task arrays published
  once into ``multiprocessing.shared_memory`` segments and only small
  descriptors pickled across (see :mod:`repro.runtime.shm`).

Payload accounting: the pool's task bytes (what crossed the pipe) and
shm bytes (what was published to segments) fall out of dispatch for
free and are always recorded.  Totals accumulate on ``.payload`` and in
the ``executor.payload.*`` counters; the engine reports the per-run
delta under ``RunMetrics.resources``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Protocol, runtime_checkable

from ..obs.metrics import get_registry
from .shm import (
    DEFAULT_MIN_SHM_BYTES,
    ArrayDescriptor,
    SharedArrayPool,
    attach_bytes,
    shm_dumps,
    shm_loads,
)

__all__ = [
    "Executor",
    "SerialExecutor",
    "SharedMemoryExecutor",
]

#: Signature of the per-result observation hook.
OnResult = Callable[[Any], None]


@runtime_checkable
class Executor(Protocol):
    """Maps a picklable callable over tasks, preserving order."""

    name: str

    def map(
        self,
        fn: Callable[[Any], Any],
        tasks: Iterable[Any],
        on_result: OnResult | None = None,
    ) -> list[Any]: ...


def _run_serial(
    fn: Callable[[Any], Any], tasks: Iterable[Any], on_result: OnResult | None
) -> list[Any]:
    results = []
    for task in tasks:
        result = fn(task)
        if on_result is not None:
            on_result(result)
        results.append(result)
    return results


class SerialExecutor:
    """In-process, single-threaded execution (the reference semantics)."""

    name = "serial"

    def map(
        self,
        fn: Callable[[Any], Any],
        tasks: Iterable[Any],
        on_result: OnResult | None = None,
    ) -> list[Any]:
        return _run_serial(fn, tasks, on_result)

    def __repr__(self) -> str:
        return "SerialExecutor()"


# ---------------------------------------------------------------------------
# the process pool
# ---------------------------------------------------------------------------
#: Worker-side cache of unpickled callables, keyed by payload digest.
#: A persistent pool sees the same (large) job callable on every chunk
#: of every map; unpickling it once per worker instead of once per
#: chunk is part of the pool's win.  Bounded: jobs are few.
_FN_CACHE: dict[str, Callable[[Any], Any]] = {}
_FN_CACHE_CAP = 8


def _load_fn(desc: ArrayDescriptor, digest: str) -> Callable[[Any], Any]:
    fn = _FN_CACHE.get(digest)
    if fn is None:
        fn = shm_loads(attach_bytes(desc))
        while len(_FN_CACHE) >= _FN_CACHE_CAP:
            _FN_CACHE.pop(next(iter(_FN_CACHE)))
        _FN_CACHE[digest] = fn
    return fn


@dataclass(frozen=True)
class _ShmCall:
    """Tiny picklable chunk envelope of the pool.

    Carries only the callable's shm descriptor + digest; each task
    arrives as a pre-pickled payload whose large arrays resolve to
    zero-copy segment views (:func:`repro.runtime.shm.shm_loads`).
    """

    fn_desc: ArrayDescriptor
    fn_digest: str

    def __call__(self, payload: bytes) -> Any:
        fn = _load_fn(self.fn_desc, self.fn_digest)
        return fn(shm_loads(payload))


def _shutdown_pool(pool_box: list[ProcessPoolExecutor]) -> None:
    """Finalizer target: shut down whatever pool the box still holds."""
    while pool_box:
        pool_box.pop().shutdown(wait=False, cancel_futures=True)


class SharedMemoryExecutor:
    """The process pool: persistent workers + shared-memory array handoff.

    Parameters
    ----------
    workers:
        Pool size; ``None`` uses ``os.cpu_count()``.  ``workers <= 1``
        degenerates to serial execution (no pool is spawned).

    How it dispatches:

    * the process pool is spawned **once**, lazily, and reused by every
      subsequent ``map()`` until :meth:`close` (an engine run's
      per-shard maps — and any number of runs — share one spawn);
    * tasks are pickled with :func:`repro.runtime.shm.shm_dumps`: arrays
      of at least ``DEFAULT_MIN_SHM_BYTES`` are published once into shm
      segments and only small descriptors cross the pipe, so task
      payload shrinks by the array bytes (the
      ``executor.payload.shm_bytes`` counter makes the difference
      visible);
    * the callable is pickled once per map into a shm blob; workers
      unpickle and cache it by digest instead of once per chunk;
    * each map dispatches ``ceil(n / (workers * 4))`` tasks per chunk,
      so every worker gets several chunks and the pool load-balances.

    Results come back plain-pickled — the repo's jobs return compact
    result structs, which is the cheap direction — in task order.
    Results are byte-identical to :class:`SerialExecutor`: attached
    views carry the same values, shapes, and interned dtypes as
    unpickled arrays would.  If the pool cannot be spawned, or breaks
    mid-run (e.g. a worker is OOM-killed), the executor falls back to
    in-process execution so no block is lost; ``fallback_reason``
    records why.  Exceptions raised by ``fn`` itself are *not*
    swallowed — they propagate to the caller exactly as they would
    serially.

    Lifecycle: segments published for one map are unlinked in a
    ``finally`` as soon as that map completes, raises, or falls back;
    :meth:`close` (also the context-manager exit and a GC finalizer)
    shuts the pool down.  No exit path leaves a named segment behind.
    """

    def __init__(self, workers: int | None = None) -> None:
        self.workers = os.cpu_count() or 1 if workers is None else int(workers)
        self.fallback_reason: str | None = None
        #: Cumulative payload accounting, measured for free during
        #: dispatch.  ``fn_bytes`` + ``task_bytes`` is what actually
        #: crossed the pipe (the callable blob and the
        #: descriptor-carrying task pickles); ``shm_bytes`` the array +
        #: callable bytes published to segments.
        self.payload: dict[str, int] = {
            "fn_bytes": 0,
            "task_bytes": 0,
            "shm_bytes": 0,
            "maps": 0,
            "pool_spawns": 0,
        }
        #: Segment names created by the most recent ``map`` (released by
        #: the time ``map`` returns; kept for tests and debugging).
        self.last_segments: list[str] = []
        self._pool: ProcessPoolExecutor | None = None
        self._pool_box: list[ProcessPoolExecutor] = []
        self._finalizer = weakref.finalize(self, _shutdown_pool, self._pool_box)

    @property
    def name(self) -> str:
        return f"shm[{self.workers}]"

    # -- pool lifecycle ----------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor | None:
        """The persistent pool, spawning it on first use; None on failure."""
        if self._pool is not None:
            return self._pool
        registry = get_registry()
        try:
            pool = ProcessPoolExecutor(max_workers=self.workers)
        except (OSError, ValueError, RuntimeError) as exc:
            self.fallback_reason = f"pool spawn failed: {type(exc).__name__}: {exc}"
            registry.counter("executor.fallbacks").inc()
            return None
        self._pool = pool
        self._pool_box.append(pool)
        self.payload["pool_spawns"] += 1
        registry.gauge("executor.pool_workers").set(self.workers)
        registry.counter("executor.pool_spawns").inc()
        return pool

    def _teardown_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
            self._pool_box.clear()

    def close(self) -> None:
        """Shut down the persistent pool (idempotent)."""
        self._teardown_pool()

    def __enter__(self) -> "SharedMemoryExecutor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- dispatch ----------------------------------------------------------
    def map(
        self,
        fn: Callable[[Any], Any],
        tasks: Iterable[Any],
        on_result: OnResult | None = None,
    ) -> list[Any]:
        tasks = list(tasks)
        self.fallback_reason = None
        if self.workers <= 1 or len(tasks) <= 1:
            return _run_serial(fn, tasks, on_result)
        pool = self._ensure_pool()
        if pool is None:
            return _run_serial(fn, tasks, on_result)

        n_active = min(self.workers, len(tasks))
        chunk = max(1, -(-len(tasks) // (n_active * 4)))
        registry = get_registry()
        registry.gauge("executor.chunk_size").set(chunk)
        arrays = SharedArrayPool()
        try:
            fn_payload = shm_dumps(fn, arrays, DEFAULT_MIN_SHM_BYTES)
            call = _ShmCall(
                fn_desc=arrays.publish_bytes(fn_payload),
                fn_digest=hashlib.sha256(fn_payload).hexdigest(),
            )
            packed = [shm_dumps(t, arrays, DEFAULT_MIN_SHM_BYTES) for t in tasks]
            self.last_segments = list(arrays.created)
            results = []
            for result in pool.map(call, packed, chunksize=chunk):
                if on_result is not None:
                    on_result(result)
                results.append(result)
            task_bytes = sum(len(p) for p in packed)
            self.payload["fn_bytes"] += len(fn_payload)
            self.payload["task_bytes"] += task_bytes
            self.payload["shm_bytes"] += arrays.published_bytes
            self.payload["maps"] += 1
            registry.counter("executor.payload.task_bytes").inc(
                len(fn_payload) + task_bytes
            )
            registry.counter("executor.payload.shm_bytes").inc(
                arrays.published_bytes
            )
            return results
        except (BrokenProcessPool, pickle.PicklingError, OSError) as exc:
            # Pool infrastructure failure: the persistent pool is no
            # longer trustworthy — tear it down (a later map may respawn)
            # and rerun everything in-process so no block is lost.
            self.fallback_reason = f"pool failed: {type(exc).__name__}: {exc}"
            registry.counter("executor.fallbacks").inc()
            self._teardown_pool()
            return _run_serial(fn, tasks, on_result)
        finally:
            # every exit path — success, task exception, pool failure —
            # unlinks this map's segments; workers only ever attach
            arrays.release()

    def __repr__(self) -> str:
        return f"SharedMemoryExecutor(workers={self.workers})"
