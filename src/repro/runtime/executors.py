"""Pluggable task executors for the campaign engine.

The executor contract is two methods::

    submit(fn, tasks, on_result=None) -> Pending   # Pending.result() -> list
    map(fn, tasks, on_result=None) -> list         # submit(...).result()

``submit`` hands the tasks over and returns at once; ``result()``
collects them in task order.  Between the two the caller is free to do
other work — the engine queues a shard's chunks on the pool before it
collects the previous shard, so the workers never wait for the
coordinator's cache and spill work.  ``map`` is ``submit`` collected on
the spot, so dispatch logic exists once.

``fn`` must be picklable for the pool executor (the repo's jobs are
frozen dataclasses with ``__call__`` — see :mod:`repro.runtime.jobs`),
and every executor must return *identical* results for a deterministic
``fn``: the pool only changes wall-clock, never values.

``on_result`` is an optional observation hook invoked once per completed
result, in task order, as :meth:`Pending.result` collects them — the
engine uses it to drive the live progress heartbeat.  Hooks must not
mutate results.

Two executors ship:

* :class:`SerialExecutor` — in-process reference semantics;
* :class:`PoolExecutor` — the process pool: one **persistent**
  ``ProcessPoolExecutor`` reused across submissions, fed plain
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
from concurrent.futures import CancelledError, Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Protocol, runtime_checkable

__all__ = [
    "Executor",
    "Pending",
    "PoolExecutor",
    "SerialExecutor",
]

#: Signature of the per-result observation hook.
OnResult = Callable[[Any], None]


@runtime_checkable
class Executor(Protocol):
    """Runs a picklable callable over tasks, preserving order."""

    name: str

    def submit(
        self,
        fn: Callable[[Any], Any],
        tasks: Iterable[Any],
        on_result: OnResult | None = None,
    ) -> "Pending": ...

    def map(
        self,
        fn: Callable[[Any], Any],
        tasks: Iterable[Any],
        on_result: OnResult | None = None,
    ) -> list[Any]: ...


@dataclass
class _Queued:
    """The pool side of a submission: its futures, one per chunk."""

    executor: "PoolExecutor"
    pool: ProcessPoolExecutor
    futures: list["Future[list[Any]]"]
    fn_bytes: int
    task_bytes: int


class Pending:
    """One submission's results, collected in task order by :meth:`result`.

    Work the pool took is already queued on it.  Anything else — serial
    execution, a submission the pool could not take, and whatever a
    pool that broke mid-run left uncollected — runs in-process inside
    :meth:`result`, so no task is lost and ``fallback_reason`` says why
    the pool did not run it.  A task's own exception propagates from
    :meth:`result` after the submission's queued chunks are cancelled.
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        tasks: list[Any],
        on_result: OnResult | None = None,
        *,
        fallback_reason: str | None = None,
        queued: _Queued | None = None,
    ) -> None:
        self.fn = fn
        self.tasks = tasks
        self.on_result = on_result
        self.fallback_reason = fallback_reason
        self._queued = queued

    def result(self) -> list[Any]:
        """Every task's result, in task order (call once)."""
        results: list[Any] = []
        queued, self._queued = self._queued, None
        if queued is not None:
            try:
                for future in queued.futures:
                    for value in future.result():
                        self._emit(value, results)
            except (BrokenProcessPool, pickle.PicklingError, CancelledError) as exc:
                self.fallback_reason = queued.executor._fall_back(exc, queued.pool)
            except BaseException:
                _cancel(queued.futures)
                raise
            else:
                queued.executor._account(queued)
        # completed chunks are whole, so the rest starts at len(results)
        for task in self.tasks[len(results) :]:
            self._emit(self.fn(task), results)
        return results

    def cancel(self) -> None:
        """Drop the submission: queued chunks that have not started never run."""
        if self._queued is not None:
            _cancel(self._queued.futures)
            self._queued = None
        self.tasks = []

    def _emit(self, value: Any, results: list[Any]) -> None:
        if self.on_result is not None:
            self.on_result(value)
        results.append(value)


def _cancel(futures: list["Future[list[Any]]"]) -> None:
    for future in futures:
        future.cancel()


class SerialExecutor:
    """In-process, single-threaded execution (the reference semantics).

    ``submit`` defers the work to :meth:`Pending.result`: with no
    second process there is nothing to overlap, and running at collect
    time keeps one submission's results live at a time.
    """

    name = "serial"

    def submit(
        self,
        fn: Callable[[Any], Any],
        tasks: Iterable[Any],
        on_result: OnResult | None = None,
    ) -> Pending:
        return Pending(fn, list(tasks), on_result)

    def map(
        self,
        fn: Callable[[Any], Any],
        tasks: Iterable[Any],
        on_result: OnResult | None = None,
    ) -> list[Any]:
        return self.submit(fn, tasks, on_result).result()

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
    it once per digest (:data:`_FN_CACHE`).  Tasks arrive pre-pickled,
    a chunk's worth per call, and come back as one list.
    """

    fn_payload: bytes
    fn_digest: str

    def __call__(self, payloads: tuple[bytes, ...]) -> list[Any]:
        fn = _load_fn(self.fn_payload, self.fn_digest)
        return [fn(pickle.loads(payload)) for payload in payloads]


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
      subsequent submission until :meth:`close` (an engine run's
      per-shard submissions — and any number of runs — share one spawn);
    * :meth:`submit` queues every chunk on the pool before it returns,
      so a caller can queue the next submission while this one runs;
    * the callable is pickled once per submission; every chunk carries
      those bytes, and workers unpickle and cache the job by digest
      instead of once per chunk;
    * each task is pickled once up front, so the payload accounting is
      exact;
    * a submission of ``n`` tasks goes out in chunks of
      ``ceil(n / (workers * 4))`` tasks, so every worker gets several
      chunks and the pool load-balances.  A chunk job's submission is
      already one task per worker (the engine's ``_chunk_group``), so
      each of its chunks carries one task.

    Results come back in task order and are byte-identical to
    :class:`SerialExecutor`.  If the pool cannot be spawned, cannot
    accept the submission's tasks, or breaks mid-run (e.g. a worker is
    OOM-killed), the uncollected tasks run in-process (:class:`Pending`)
    so no block is lost; ``fallback_reason`` records why the latest
    submission fell back.  Exceptions raised by ``fn`` itself are *not*
    swallowed — they propagate to the caller exactly as they would
    serially, and the pool stays up.

    Lifecycle: :meth:`close` (also the context-manager exit) shuts the
    pool down and joins its workers; a GC finalizer shuts down a pool
    that was never closed.
    """

    def __init__(self, workers: int | None = None) -> None:
        self.workers = os.cpu_count() or 1 if workers is None else int(workers)
        self.fallback_reason: str | None = None
        #: Cumulative payload accounting, measured for free during
        #: dispatch: ``fn_bytes`` + ``task_bytes`` is what crossed the
        #: pipe (the job pickle once per chunk, and the task pickles);
        #: ``fallbacks`` counts submissions that ran in-process because
        #: the pool could not be spawned or failed.
        self.payload: dict[str, int] = {
            "fn_bytes": 0,
            "task_bytes": 0,
            "maps": 0,
            "pool_spawns": 0,
            "fallbacks": 0,
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
        try:
            pool = ProcessPoolExecutor(max_workers=self.workers)
        except (OSError, ValueError, RuntimeError) as exc:
            self.fallback_reason = f"pool spawn failed: {type(exc).__name__}: {exc}"
            self.payload["fallbacks"] += 1
            return None
        self._pool = pool
        self._pool_box.append(pool)
        self.payload["pool_spawns"] += 1
        return pool

    def _teardown_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
            self._pool_box.clear()

    def close(self) -> None:
        """Shut down the persistent pool and join its workers (idempotent).

        Chunks still queued are cancelled; a chunk a worker already
        runs finishes first, so no worker outlives this call.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
        self._teardown_pool()

    def __enter__(self) -> "PoolExecutor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- dispatch ----------------------------------------------------------
    def submit(
        self,
        fn: Callable[[Any], Any],
        tasks: Iterable[Any],
        on_result: OnResult | None = None,
    ) -> Pending:
        tasks = list(tasks)
        self.fallback_reason = None
        if self.workers <= 1 or len(tasks) <= 1:
            return Pending(fn, tasks, on_result)
        pool = self._ensure_pool()
        if pool is None:
            return Pending(fn, tasks, on_result, fallback_reason=self.fallback_reason)

        n_active = min(self.workers, len(tasks))
        chunk = max(1, -(-len(tasks) // (n_active * 4)))
        proto = pickle.HIGHEST_PROTOCOL
        futures: list[Future[list[Any]]] = []
        try:
            fn_payload = pickle.dumps(fn, protocol=proto)
            call = _PickledCall(fn_payload, hashlib.sha256(fn_payload).hexdigest())
            packed = [pickle.dumps(t, protocol=proto) for t in tasks]
            for lo in range(0, len(packed), chunk):
                # an OSError here is the pool's (its call queue), not a task's
                futures.append(pool.submit(call, tuple(packed[lo : lo + chunk])))
        except (BrokenProcessPool, pickle.PicklingError, OSError) as exc:
            _cancel(futures)
            reason = self._fall_back(exc, pool)
            return Pending(fn, tasks, on_result, fallback_reason=reason)
        queued = _Queued(
            executor=self,
            pool=pool,
            futures=futures,
            fn_bytes=len(fn_payload) * len(futures),
            task_bytes=sum(len(p) for p in packed),
        )
        return Pending(fn, tasks, on_result, queued=queued)

    def map(
        self,
        fn: Callable[[Any], Any],
        tasks: Iterable[Any],
        on_result: OnResult | None = None,
    ) -> list[Any]:
        return self.submit(fn, tasks, on_result).result()

    def _account(self, queued: _Queued) -> None:
        """Book a fully collected submission's payload."""
        self.payload["fn_bytes"] += queued.fn_bytes
        self.payload["task_bytes"] += queued.task_bytes
        self.payload["maps"] += 1

    def _fall_back(self, exc: BaseException, pool: ProcessPoolExecutor) -> str:
        """Pool infrastructure failure: ``pool`` is no longer trustworthy.

        Tear it down unless a sibling submission already did (a later
        submission may respawn), and return the reason; the caller runs
        its uncollected tasks in-process so no block is lost.
        """
        self.fallback_reason = f"pool failed: {type(exc).__name__}: {exc}"
        self.payload["fallbacks"] += 1
        if pool is self._pool:
            self._teardown_pool()
        return self.fallback_reason

    def __repr__(self) -> str:
        return f"PoolExecutor(workers={self.workers})"


#: The executor's former name, kept because the benchmark harness
#: (``perfbench/workloads.py``) imports it and ``perfbench/tracer.py``
#: patches ``.map`` by this name.
SharedMemoryExecutor = PoolExecutor
