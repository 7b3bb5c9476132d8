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
* :class:`PoolExecutor` — the process pool: one **persistent**
  ``ProcessPoolExecutor`` reused across ``map()`` calls, fed plain
  pickles.

Payload accounting: the pool's job and task bytes (what crossed the
pipe) fall out of dispatch for free and are always recorded.  Totals
accumulate on ``.payload`` and in the ``executor.payload.task_bytes``
counter; the engine reports the per-run delta under
``RunMetrics.resources``.
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

__all__ = [
    "Executor",
    "PoolExecutor",
    "SerialExecutor",
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


def _load_fn(fn_payload: bytes, digest: str) -> Callable[[Any], Any]:
    fn = _FN_CACHE.get(digest)
    if fn is None:
        fn = pickle.loads(fn_payload)
        while len(_FN_CACHE) >= _FN_CACHE_CAP:
            _FN_CACHE.pop(next(iter(_FN_CACHE)))
        _FN_CACHE[digest] = fn
    return fn


@dataclass(frozen=True)
class _PickledCall:
    """Chunk envelope of the pool: the job's pickle plus its digest.

    Every chunk carries the pickled job as bytes; each worker unpickles
    it once per digest (:data:`_FN_CACHE`).  Tasks arrive pre-pickled.
    """

    fn_payload: bytes
    fn_digest: str

    def __call__(self, payload: bytes) -> Any:
        fn = _load_fn(self.fn_payload, self.fn_digest)
        return fn(pickle.loads(payload))


def _shutdown_pool(pool_box: list[ProcessPoolExecutor]) -> None:
    """Finalizer target: shut down whatever pool the box still holds."""
    while pool_box:
        pool_box.pop().shutdown(wait=False, cancel_futures=True)


class PoolExecutor:
    """The process pool: persistent workers fed plain pickles.

    Parameters
    ----------
    workers:
        Pool size; ``None`` uses ``os.cpu_count()``.  ``workers <= 1``
        degenerates to serial execution (no pool is spawned).

    How it dispatches:

    * the process pool is spawned **once**, lazily, and reused by every
      subsequent ``map()`` until :meth:`close` (an engine run's
      per-shard maps — and any number of runs — share one spawn);
    * the callable is pickled once per map; every chunk carries those
      bytes, and workers unpickle and cache the job by digest instead
      of once per chunk;
    * each task is pickled once up front, so the payload accounting is
      exact;
    * each map dispatches ``ceil(n / (workers * 4))`` tasks per chunk,
      so every worker gets several chunks and the pool load-balances.

    Results come back in task order and are byte-identical to
    :class:`SerialExecutor`.  If the pool cannot be spawned, cannot
    accept the map's tasks, or breaks mid-run (e.g. a worker is
    OOM-killed), the executor falls back to in-process execution so no
    block is lost; ``fallback_reason`` records why.  Exceptions raised
    by ``fn`` itself are *not* swallowed — they propagate to the caller
    exactly as they would serially, and the pool stays up.

    Lifecycle: :meth:`close` (also the context-manager exit and a GC
    finalizer) shuts the pool down.
    """

    def __init__(self, workers: int | None = None) -> None:
        self.workers = os.cpu_count() or 1 if workers is None else int(workers)
        self.fallback_reason: str | None = None
        #: Cumulative payload accounting, measured for free during
        #: dispatch: ``fn_bytes`` + ``task_bytes`` is what crossed the
        #: pipe (the job pickle once per chunk, and the task pickles).
        self.payload: dict[str, int] = {
            "fn_bytes": 0,
            "task_bytes": 0,
            "maps": 0,
            "pool_spawns": 0,
        }
        self._pool: ProcessPoolExecutor | None = None
        self._pool_box: list[ProcessPoolExecutor] = []
        self._finalizer = weakref.finalize(self, _shutdown_pool, self._pool_box)

    @property
    def name(self) -> str:
        return f"pool[{self.workers}]"

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

    def __enter__(self) -> "PoolExecutor":
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
        proto = pickle.HIGHEST_PROTOCOL
        try:
            fn_payload = pickle.dumps(fn, protocol=proto)
            call = _PickledCall(fn_payload, hashlib.sha256(fn_payload).hexdigest())
            packed = [pickle.dumps(t, protocol=proto) for t in tasks]
            # submits every chunk eagerly: an OSError here is the pool's
            stream = pool.map(call, packed, chunksize=chunk)
        except (BrokenProcessPool, pickle.PicklingError, OSError) as exc:
            return self._fall_back(exc, fn, tasks, on_result)
        results = []
        try:
            for result in stream:
                if on_result is not None:
                    on_result(result)
                results.append(result)
        except (BrokenProcessPool, pickle.PicklingError) as exc:
            return self._fall_back(exc, fn, tasks, on_result)
        n_chunks = -(-len(tasks) // chunk)
        fn_bytes = len(fn_payload) * n_chunks
        task_bytes = sum(len(p) for p in packed)
        self.payload["fn_bytes"] += fn_bytes
        self.payload["task_bytes"] += task_bytes
        self.payload["maps"] += 1
        registry.counter("executor.payload.task_bytes").inc(fn_bytes + task_bytes)
        return results

    def _fall_back(
        self,
        exc: BaseException,
        fn: Callable[[Any], Any],
        tasks: list[Any],
        on_result: OnResult | None,
    ) -> list[Any]:
        """Pool infrastructure failure: the persistent pool is no longer
        trustworthy — tear it down (a later map may respawn) and rerun
        everything in-process so no block is lost."""
        self.fallback_reason = f"pool failed: {type(exc).__name__}: {exc}"
        get_registry().counter("executor.fallbacks").inc()
        self._teardown_pool()
        return _run_serial(fn, tasks, on_result)

    def __repr__(self) -> str:
        return f"PoolExecutor(workers={self.workers})"


#: The executor's former name, kept because the benchmark harness
#: (``perfbench/workloads.py``) imports it and ``perfbench/tracer.py``
#: patches ``.map`` by this name.
SharedMemoryExecutor = PoolExecutor
