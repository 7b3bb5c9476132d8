"""The staged campaign engine and its per-run instrumentation.

:class:`CampaignEngine` maps a picklable task function over an iterable
of block tasks through a pluggable :class:`~repro.runtime.executors.Executor`
and aggregates the per-stage :class:`~repro.core.stages.StageRecord`
entries each :class:`BlockResult` carries into one :class:`RunMetrics`
(per-stage wall-time totals, funnel counters, blocks/sec).

Every run is also appended to a bounded module-level log so callers
that did not thread the engine through (e.g. ``repro --metrics``) can
still print what happened.
"""

from __future__ import annotations

import os
from collections import deque
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Sequence

from ..core.pipeline import BlockAnalysis
from ..core.stages import PIPELINE_STAGES, StageRecord
from ..obs.progress import get_progress
from ..obs.resources import ResourceTracker, cpu_seconds, format_bytes, peak_rss_bytes
from ..obs.trace import NoopTracer, SpanRecord, Tracer, get_tracer, use_tracer
from . import envconfig
from .cache import AnalysisCache, default_cache
from .executors import Executor, Pending, PoolExecutor, SerialExecutor
from .sharding import ShardPlan, resolve_shards
from .spill import SpillDir, SpilledResults

__all__ = [
    "BlockResult",
    "CampaignEngine",
    "EngineRun",
    "RunMetrics",
    "ShippedResult",
    "StageTotals",
    "TracedCall",
    "default_engine",
    "drain_run_log",
    "engine_scope",
    "peek_run_log",
]


@dataclass(frozen=True)
class BlockResult:
    """One block's analysis plus the stage records that produced it."""

    key: str
    analysis: BlockAnalysis
    stages: tuple[StageRecord, ...] = ()


@dataclass(frozen=True)
class ShippedResult:
    """A task result plus the telemetry recorded while producing it.

    Worker processes cannot write into the parent's tracer, so a traced
    run wraps every task in :class:`TracedCall`, which records spans
    into a process-local tracer and ships them home inside this
    envelope, with the task's CPU seconds and its process's peak RSS.
    The engine unwraps ``value`` before aggregation, so task functions
    and their callers never see it.
    """

    value: Any
    spans: tuple[SpanRecord, ...] = ()
    cpu_s: float = 0.0
    rss_peak_bytes: int = 0


@dataclass(frozen=True)
class TracedCall:
    """Picklable wrapper that records one task's spans and resources.

    Opens a ``block`` span parented under the campaign span (so worker
    fragments re-attach into one rooted tree), measures the task's CPU
    seconds, and ships both back with the result and the process's
    peak RSS.  The serial executor runs the exact same wrapper
    in-process, keeping serial and parallel telemetry — and results —
    identical.
    """

    fn: Callable[[Any], Any]
    trace_id: str
    parent_id: str
    #: span name per task — "block" for per-block jobs, None for chunk
    #: jobs that open one ``block`` span per block themselves
    #: (``map_chunk``), so block-span accounting counts exactly one per block
    span_name: str | None = "block"

    def __call__(self, task: Any) -> ShippedResult:
        tracer = Tracer(trace_id=self.trace_id, root_parent_id=self.parent_id)
        with use_tracer(tracer):
            cpu_start = cpu_seconds()
            if self.span_name is None:
                with tracer.tagged(pid=os.getpid()):
                    value = self.fn(task)
            else:
                with tracer.span(self.span_name, attrs={"pid": os.getpid()}):
                    value = self.fn(task)
            cpu_s = cpu_seconds() - cpu_start
        return ShippedResult(
            value=value,
            spans=tuple(tracer.finished),
            cpu_s=cpu_s,
            rss_peak_bytes=peak_rss_bytes(),
        )


@dataclass
class StageTotals:
    """Aggregated stage instrumentation across one engine run."""

    calls: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    n_in: int = 0
    n_out: int = 0
    skips: dict[str, int] = field(default_factory=dict)

    @property
    def touched(self) -> int:
        """Blocks that reached this stage (ran or recorded a skip)."""
        return self.calls + sum(self.skips.values())

    def add(self, record: StageRecord) -> None:
        if record.skipped is not None:
            self.skips[record.skipped] = self.skips.get(record.skipped, 0) + 1
            return
        self.calls += 1
        self.wall_s += record.wall_s
        self.cpu_s += record.cpu_s
        self.n_in += record.n_in
        self.n_out += record.n_out

    def as_dict(self) -> dict[str, Any]:
        return {
            "calls": self.calls,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "n_in": self.n_in,
            "n_out": self.n_out,
            "skips": dict(self.skips),
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "StageTotals":
        return cls(
            calls=d["calls"],
            wall_s=d["wall_s"],
            cpu_s=d.get("cpu_s", 0.0),  # absent in pre-resource saved traces
            n_in=d["n_in"],
            n_out=d["n_out"],
            skips=dict(d.get("skips") or {}),
        )


@dataclass
class RunMetrics:
    """What one engine run did, where the time went, and what survived."""

    label: str
    executor: str
    n_tasks: int
    wall_s: float
    stages: dict[str, StageTotals] = field(default_factory=dict)
    funnel: dict[str, int] = field(default_factory=dict)
    fallback: str | None = None
    cache: dict[str, int] | None = None  # hits/misses/stores (cached runs only)
    resources: dict[str, Any] | None = None  # cpu/rss/pool-payload accounting
    shards: dict[str, int] | None = None  # shard count + spill totals (sharded runs)

    @property
    def blocks_per_sec(self) -> float:
        # Empty or zero-time runs report 0.0, never inf/nan: the dict
        # export feeds json.dumps, which would emit the non-standard
        # ``Infinity`` token and break strict JSON readers.
        if self.wall_s <= 0.0 or self.n_tasks <= 0:
            return 0.0
        return self.n_tasks / self.wall_s

    def as_dict(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "executor": self.executor,
            "n_tasks": self.n_tasks,
            "wall_s": self.wall_s,
            "blocks_per_sec": self.blocks_per_sec,
            "stages": {name: t.as_dict() for name, t in self.stages.items()},
            "funnel": dict(self.funnel),
            "fallback": self.fallback,
            "cache": self.cache,
            "resources": self.resources,
            "shards": self.shards,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "RunMetrics":
        """Rebuild from :meth:`as_dict` output (e.g. a saved trace)."""
        return cls(
            label=d["label"],
            executor=d["executor"],
            n_tasks=d["n_tasks"],
            wall_s=d["wall_s"],
            stages={
                name: StageTotals.from_dict(t)
                for name, t in (d.get("stages") or {}).items()
            },
            funnel=dict(d.get("funnel") or {}),
            fallback=d.get("fallback"),
            cache=d.get("cache"),  # absent in pre-cache saved traces
            resources=d.get("resources"),  # absent in pre-resource saved traces
            shards=d.get("shards"),  # absent in pre-sharding saved traces
        )

    def report(self) -> str:
        """Aligned plain-text run report (the ``--metrics`` output)."""
        lines = [
            f"run {self.label!r}: {self.n_tasks} blocks in {self.wall_s:.2f}s "
            f"({self.blocks_per_sec:.1f} blocks/s) on {self.executor}"
        ]
        if self.fallback:
            lines.append(f"  ! fell back to serial: {self.fallback}")
        if self.stages:
            rows = [["stage", "calls", "skipped", "wall_s", "cpu_s", "n_in", "n_out"]]
            ordered = [n for n in PIPELINE_STAGES if n in self.stages]
            ordered += [n for n in self.stages if n not in PIPELINE_STAGES]
            for name in ordered:
                t = self.stages[name]
                rows.append(
                    [
                        name,
                        str(t.calls),
                        str(sum(t.skips.values())),
                        f"{t.wall_s:.3f}",
                        f"{t.cpu_s:.3f}",
                        str(t.n_in),
                        str(t.n_out),
                    ]
                )
            widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
            for i, row in enumerate(rows):
                lines.append("  " + "  ".join(c.rjust(w) for c, w in zip(row, widths)))
                if i == 0:
                    lines.append("  " + "  ".join("-" * w for w in widths))
        if self.funnel:
            funnel = "  ".join(f"{k}={v}" for k, v in self.funnel.items())
            lines.append(f"  funnel: {funnel}")
        if self.cache is not None:
            hits = self.cache.get("hits", 0)
            looked = hits + self.cache.get("misses", 0)
            rate = 100.0 * hits / looked if looked else 0.0
            lines.append(
                f"  cache: {hits}/{looked} hits ({rate:.0f}%), "
                f"{self.cache.get('stores', 0)} stored"
            )
        if self.shards is not None:
            lines.append(
                f"  shards: merged {self.shards.get('shards', 0)} shards, "
                f"{self.shards.get('spilled_items', 0)} results spilled "
                f"({format_bytes(self.shards.get('spill_bytes', 0))})"
            )
        if self.resources is not None:
            res = self.resources
            line = (
                f"  resources: cpu {res.get('cpu_s', 0.0):.2f}s / "
                f"{res.get('wall_s', 0.0):.2f}s wall "
                f"({100.0 * res.get('cpu_utilization', 0.0):.0f}%), "
                f"rss {format_bytes(res.get('rss_bytes', 0))} "
                f"(peak {format_bytes(res.get('rss_peak_bytes', 0))}, "
                f"run +{format_bytes(res.get('rss_peak_delta_bytes', 0))})"
            )
            lines.append(line)
            tm = res.get("tracemalloc")
            if tm:
                lines.append(
                    f"  tracemalloc: {format_bytes(tm.get('current_bytes', 0))} live, "
                    f"{format_bytes(tm.get('peak_bytes', 0))} peak"
                )
            pool = res.get("pool")
            if pool:
                fn_bytes, task_bytes = pool.get("fn_bytes", 0), pool.get("task_bytes", 0)
                lines.append(
                    f"  pool: {format_bytes(fn_bytes + task_bytes)} payload out "
                    f"over {pool.get('maps', 0)} dispatches "
                    f"(job {format_bytes(fn_bytes)}, tasks {format_bytes(task_bytes)})"
                )
            workers = res.get("workers")
            if workers:
                lines.append(
                    f"  workers: cpu {workers.get('cpu_s', 0.0):.2f}s over "
                    f"{workers.get('tasks', 0)} tasks, "
                    f"rss peak {format_bytes(workers.get('rss_peak_bytes', 0))}"
                )
        return "\n".join(lines)


@dataclass
class EngineRun:
    """Ordered task results plus the aggregated run metrics.

    ``results`` is a plain list for in-memory runs and a lazy,
    disk-backed :class:`~repro.runtime.spill.SpilledResults` for sharded
    runs — both index and iterate in task order."""

    results: "Sequence[Any]"
    metrics: RunMetrics


@dataclass
class _TracedDispatch:
    """Where a traced run's shipped telemetry accumulates.

    ``tasks`` counts blocks, not submissions: a chunk job's result
    counts once per block it carried.  ``cpu_s`` sums the tasks' CPU
    seconds and ``rss_peak_bytes`` is the largest peak RSS any task's
    process reached.
    """

    tracer: Tracer
    parent_id: str
    cpu_s: float = 0.0
    tasks: int = 0
    rss_peak_bytes: int = 0

    def adopt(self, shipped: ShippedResult, n_blocks: int) -> None:
        self.tracer.adopt(shipped.spans)
        self.cpu_s += shipped.cpu_s
        self.tasks += n_blocks
        self.rss_peak_bytes = max(self.rss_peak_bytes, shipped.rss_peak_bytes)


#: Smallest chunk :func:`_chunk_group` makes: tiny batches forfeit the
#: columnar win to dispatch overhead.
_MIN_CHUNK_ROWS = 8


def _chunk_group(tasks: list[Any], workers: int) -> list[tuple[Any, ...]]:
    """Split a chunk job's pending tasks into chunks.

    Serial execution keeps everything as one chunk (maximum batch
    width); a parallel executor gets one chunk per worker.  The engine
    queues the next shard before it collects this one, so no worker
    waits at a shard boundary and there is no tail to balance, while
    wider chunks step the lane kernel's rounds once for more blocks.
    Chunks never go below :data:`_MIN_CHUNK_ROWS`.  No tasks (every
    block a cache hit) means nothing to dispatch.
    """
    if not tasks:
        return []
    if workers <= 1 or len(tasks) <= _MIN_CHUNK_ROWS:
        return [tuple(tasks)]
    size = max(-(-len(tasks) // workers), _MIN_CHUNK_ROWS)
    return [tuple(tasks[i : i + size]) for i in range(0, len(tasks), size)]


@dataclass
class _Job:
    """One submission of a shard's tasks and how to unpack its results."""

    pending: Pending
    traced: _TracedDispatch | None
    chunked: bool

    def collect(self) -> list[Any]:
        """Per-task results in task order; adopts shipped telemetry."""
        values = self.pending.result()
        if self.traced is not None:
            shipped, values = values, []
            for s in shipped:
                self.traced.adopt(s, max(len(s.value), 1) if self.chunked else 1)
                values.append(s.value)
        if self.chunked:
            return [result for chunk in values for result in chunk]
        return values


@dataclass
class _Shard:
    """One shard between its cache consult and its finish.

    ``pending`` indexes the tasks this shard computes, ``hits`` the
    cache hits.
    """

    tasks: list[Any]
    keys: list[str | None] | None
    hits: dict[int, Any]
    pending: list[int]
    index: int = 0
    #: span tags of a sharded run (``shard``, ``shards``); empty unsharded
    tags: dict[str, int] = field(default_factory=dict)
    job: _Job | None = None

    @property
    def misses(self) -> int:
        return len(self.pending) if self.keys is not None else 0

    def cancel(self) -> None:
        if self.job is not None:
            self.job.pending.cancel()
            self.job = None


#: The run funnel's counters, in report order.
_FUNNEL_KEYS = ("routed", "responsive", "diurnal", "wide_swing", "change_sensitive")


def _add_counts(
    total: dict[str, int] | None, counts: dict[str, int] | None
) -> dict[str, int] | None:
    """Add one shard's counter section into the run's running total."""
    if counts is None:
        return total
    if total is None:
        return dict(counts)
    for key, n in counts.items():
        total[key] += n
    return total


#: Bounded history of recent runs, drained by ``repro --metrics``.
_RUN_LOG: deque[RunMetrics] = deque(maxlen=64)


def drain_run_log() -> list[RunMetrics]:
    """Return and clear the recent-run log."""
    out = list(_RUN_LOG)
    _RUN_LOG.clear()
    return out


def peek_run_log() -> list[RunMetrics]:
    return list(_RUN_LOG)


class CampaignEngine:
    """Runs block tasks through an executor and aggregates instrumentation.

    One engine is reusable across runs; each run returns its own
    :class:`RunMetrics`, and the module-level run log keeps a
    process-wide view for the CLI.
    """

    def __init__(
        self,
        executor: Executor | None = None,
        cache: AnalysisCache | None = None,
        shards: int | None = None,
    ) -> None:
        """``shards`` partitions each run's task list into contiguous
        ranges, pipelined two deep through the executor with each
        finished shard's results spilled to disk; ``None`` defers to
        ``REPRO_SHARDS`` (the CLI's
        ``--shards``), defaulting to unsharded.  Results are identical
        either way — sharding only changes how the work is executed."""
        self.executor: Executor = executor or SerialExecutor()
        self.cache = cache
        self.shards = resolve_shards(shards)

    def close(self) -> None:
        """Release executor-held resources (idempotent).

        Only the process pool holds any: its persistent workers live
        until this call (or GC).  Serial engines close to a no-op, so
        generic callers may always use the context manager.
        """
        closer = getattr(self.executor, "close", None)
        if callable(closer):
            closer()

    def __enter__(self) -> "CampaignEngine":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def run(
        self,
        fn: Callable[[Any], Any],
        tasks: Iterable[Any],
        *,
        label: str = "campaign",
        tracer: Tracer | NoopTracer | None = None,
    ) -> EngineRun:
        """Map ``fn`` over ``tasks`` and aggregate any stage records.

        Results keep task order for any executor.  Task results that are
        :class:`BlockResult` contribute stage totals and funnel counters;
        other result types are simply counted and timed.

        When the engine is sharded (``shards > 1``), the same body loops
        over contiguous task ranges (:class:`ShardPlan`) as a two-stage
        pipeline: it consults the cache for shard i and submits its
        pending tasks, then finishes shard i-1 — collects, merges,
        tallies, stores and spills it — while the executor already runs
        shard i.  Each finished shard's results spill to a memory-mapped
        on-disk layout and are dropped, so coordinator RSS is bounded by
        two shards' working set (the one finishing and the one in
        flight), not the world.  ``results`` then comes back as a lazy
        :class:`~repro.runtime.spill.SpilledResults` — contiguity makes
        the slot order, and therefore every downstream output, byte-
        identical to an unsharded run.

        When the engine has a cache and ``fn`` exposes a
        ``cache_keyer()`` method, it is called once per run for the
        run's ``key(task)`` callable (the job-invariant inputs are
        hashed there, once), and each task's key is consulted before
        dispatch and its result stored after; hits bypass the executor
        entirely (their :class:`BlockResult` carries no stage records,
        because no stage ran) but land in the same result slot, so
        cached runs stay byte-identical to computed ones.  A task is a
        hit when its entry is on disk as its shard is consulted, which
        is before the previous shard is stored: a key that appears in
        two adjacent shards is computed (and stored) twice, with the
        same result.  Jobs without ``cache_keyer`` run uncached, as do
        tasks whose key comes back ``None`` (uncacheable inputs).

        Every run opens a ``campaign`` span on the ambient (or given)
        tracer.  When that tracer is enabled, each task runs through
        :class:`TracedCall` so per-block spans, CPU seconds and peak RSS
        ship back; they are adopted when their shard is collected, the
        spans under that shard's tags and the resources into the
        ``workers`` entry of :attr:`RunMetrics.resources`.
        Tracing never touches task results: serial and pooled runs stay
        byte-identical with it on or off.  Progress heartbeats keep
        shard order: a shard's ticks come as it is collected, and its
        ``next_shard`` record follows the previous shard's finish.

        When ``fn`` exposes ``map_chunk(tasks)``, each shard's pending
        tasks split into chunks (:func:`_chunk_group`: one chunk when
        serial, one per worker otherwise) and one executor submission
        runs ``fn.map_chunk`` over them; cache keys, results, and stage
        records are those of calling ``fn`` per block, byte for byte.
        Other jobs are submitted per task directly.
        """
        tasks = list(tasks)
        plan = ShardPlan.plan(self.shards, len(tasks))
        n_shards = plan.n_shards
        tracer = get_tracer() if tracer is None else tracer
        tracker = ResourceTracker()
        payload_before = self._payload_snapshot()
        metrics = RunMetrics(
            label=label, executor=self.executor.name, n_tasks=len(tasks), wall_s=0.0
        )
        # the run's key(task): the job-invariant inputs are hashed here, once
        make_keyer = getattr(fn, "cache_keyer", None)
        keyer: Callable[[Any], str | None] | None = None
        if self.cache is not None and make_keyer is not None:
            keyer = make_keyer()
        spill = SpillDir.create() if n_shards > 1 else None
        results: list[Any] = []
        readers = []
        live: list[_Shard] = []
        progress = get_progress()
        try:
            with tracer.span(
                "campaign",
                attrs={"label": label, "executor": self.executor.name, "n_tasks": len(tasks)},
            ) as span:
                traced: _TracedDispatch | None = None
                parent_id = tracer.current_span_id
                if isinstance(tracer, Tracer) and parent_id is not None:
                    traced = _TracedDispatch(tracer=tracer, parent_id=parent_id)
                for i, (lo, hi) in enumerate(plan.ranges):
                    shard = self._consult(keyer, tasks[lo:hi])
                    shard.index = i
                    if spill is not None:
                        shard.tags = {"shard": i, "shards": n_shards}
                    if i == 0:
                        progress.begin(
                            label,
                            len(tasks),
                            done=len(shard.hits),
                            cache_hits=len(shard.hits),
                            cache_misses=shard.misses,
                            shards=n_shards if spill is not None else None,
                        )
                    live.append(shard)
                    self._submit(fn, shard, traced)
                    if i > 0:
                        # the executor runs shard i while shard i-1 finishes
                        self._finish(live[0], metrics, tracer, spill, readers)
                        del live[0]
                        progress.next_shard(
                            cache_hits=len(shard.hits), cache_misses=shard.misses
                        )
                results = self._finish(shard, metrics, tracer, spill, readers)
                live.clear()
                del shard  # a spilled shard leaves no live result
                metrics.resources = self._finish_resources(tracker, payload_before, traced)
                metrics.wall_s = metrics.resources["wall_s"]
                if spill is not None:
                    metrics.shards = {
                        "shards": n_shards,
                        "spilled_items": spill.n_items,
                        "spill_bytes": spill.bytes_written,
                    }
                span.set(wall_s=round(metrics.wall_s, 6), fallback=metrics.fallback)
                if metrics.cache is not None:
                    span.set(cache_hits=metrics.cache["hits"])
        except BaseException:
            # a queued shard must not keep the pool busy after a failure
            for shard in live:
                shard.cancel()
            if spill is not None:
                spill.cleanup()
            raise
        finally:
            progress.finish()
        _RUN_LOG.append(metrics)
        if spill is not None:
            return EngineRun(results=SpilledResults(spill, readers), metrics=metrics)
        return EngineRun(results=results, metrics=metrics)

    # -- the shard pipeline ------------------------------------------------
    def _submit(
        self,
        fn: Callable[[Any], Any],
        shard: _Shard,
        traced: _TracedDispatch | None,
    ) -> None:
        """Hand ``shard``'s pending tasks to the executor.

        Every collected result ticks the ambient progress emitter by the
        blocks it completes: 1 per task, or the chunk's length for
        ``map_chunk``, so ``done`` converges to the task total exactly
        once per block.
        """
        todo = [shard.tasks[j] for j in shard.pending]
        map_chunk = getattr(fn, "map_chunk", None)
        chunked = map_chunk is not None
        work: list[Any] = todo
        target: Callable[[Any], Any] = fn
        span_name: str | None = "block"
        if chunked:
            work = _chunk_group(todo, getattr(self.executor, "workers", 1))
            target, span_name = map_chunk, None
        progress = get_progress()

        def on_result(result: Any) -> None:
            if isinstance(result, ShippedResult):
                result = result.value
            progress.tick(len(result) if chunked else 1)

        if traced is not None:
            target = TracedCall(
                fn=target,
                trace_id=traced.tracer.trace_id,
                parent_id=traced.parent_id,
                span_name=span_name,
            )
        pending = self.executor.submit(target, work, on_result)
        shard.job = _Job(pending, traced, chunked)

    def _finish(
        self,
        shard: _Shard,
        metrics: RunMetrics,
        tracer: Tracer | NoopTracer,
        spill: SpillDir | None,
        readers: list[Any],
    ) -> list[Any]:
        """Collect, merge, tally, store and (when sharded) spill a shard.

        Returns the shard's results when unsharded; a spilled shard
        returns ``[]`` and leaves no live result (the RSS bound).
        """
        job = shard.job
        assert job is not None
        with tracer.tagged(**shard.tags):
            computed = job.collect()
        metrics.fallback = metrics.fallback or job.pending.fallback_reason
        shard.job = None
        results = self._merge_results(len(shard.tasks), shard.hits, shard.pending, computed)
        self._tally(metrics, results)
        if shard.keys is not None:
            stores = self._store_results(shard.keys, shard.pending, computed)
            metrics.cache = _add_counts(
                metrics.cache,
                {"hits": len(shard.hits), "misses": len(shard.pending), "stores": stores},
            )
        if spill is None:
            return results
        readers.append(spill.write_shard(shard.index, results))
        return []

    # -- caching -----------------------------------------------------------
    def _consult(
        self, keyer: Callable[[Any], str | None] | None, tasks: list[Any]
    ) -> _Shard:
        """Split a shard's tasks into cache hits and pending."""
        if self.cache is None or keyer is None:
            return _Shard(tasks, None, {}, list(range(len(tasks))))
        keys: list[str | None] = [keyer(task) for task in tasks]
        shard = _Shard(tasks, keys, {}, [])
        for i, key in enumerate(keys):
            if key is not None:
                found, value = self.cache.get(key)
                if found:
                    shard.hits[i] = value
                    continue
            shard.pending.append(i)
        return shard

    def _store_results(
        self, keys: list[str | None] | None, pending: list[int], computed: list[Any]
    ) -> int:
        if self.cache is None or keys is None:
            return 0
        stores = 0
        for i, value in zip(pending, computed):
            key = keys[i]
            if key is None:
                continue
            if isinstance(value, BlockResult) and value.stages:
                # stage records describe the compute that just happened;
                # a later hit must not replay them as if it ran stages
                value = replace(value, stages=())
            stores += int(self.cache.put(key, value))
        return stores

    @staticmethod
    def _merge_results(
        n: int, hits: dict[int, Any], pending: list[int], computed: list[Any]
    ) -> list[Any]:
        results: list[Any] = [None] * n
        for i, value in hits.items():
            results[i] = value
        for i, value in zip(pending, computed):
            results[i] = value
        return results

    # -- resource accounting ------------------------------------------------
    def _payload_snapshot(self) -> dict[str, int] | None:
        """Copy of the executor's cumulative payload counters, if it has any."""
        payload = getattr(self.executor, "payload", None)
        return dict(payload) if isinstance(payload, dict) else None

    def _finish_resources(
        self,
        tracker: ResourceTracker,
        payload_before: dict[str, int] | None,
        traced: _TracedDispatch | None,
    ) -> dict[str, Any]:
        """Close the run's resource bracket and assemble the summary.

        ``pool`` is the pool payload delta attributable to this run (only
        present when a real pool dispatched); ``workers`` sums the CPU
        and peak RSS :class:`TracedCall` shipped home (traced runs that
        computed a block only — untraced parallel runs have no shipping
        envelope).
        """
        res = tracker.summary()
        payload_after = self._payload_snapshot()
        if payload_after is not None and payload_before is not None:
            delta = {
                k: payload_after.get(k, 0) - payload_before.get(k, 0)
                for k in payload_after
            }
            if delta.get("maps", 0) > 0:
                res["pool"] = {
                    key: delta.get(key, 0)
                    for key in ("fn_bytes", "task_bytes", "maps")
                }
        if traced is not None and traced.tasks:
            res["workers"] = {
                "cpu_s": traced.cpu_s,
                "tasks": traced.tasks,
                "rss_peak_bytes": traced.rss_peak_bytes,
            }
        return res

    # -- aggregation -------------------------------------------------------
    @staticmethod
    def _tally(metrics: RunMetrics, results: list[Any]) -> None:
        """Fold one shard's stage records and funnel counts into ``metrics``."""
        funnel = metrics.funnel
        for result in results:
            if not isinstance(result, BlockResult):
                continue
            if not funnel:
                funnel.update(dict.fromkeys(_FUNNEL_KEYS, 0))
            funnel["routed"] += 1
            for record in result.stages:
                metrics.stages.setdefault(record.name, StageTotals()).add(record)
            c = result.analysis.classification
            if c.responsive:
                funnel["responsive"] += 1
                funnel["diurnal"] += int(c.is_diurnal)
                funnel["wide_swing"] += int(c.is_wide_swing)
                funnel["change_sensitive"] += int(c.is_change_sensitive)


def default_engine() -> CampaignEngine:
    """Engine for callers that did not pick one: ``REPRO_WORKERS`` decides.

    ``REPRO_WORKERS`` unset, empty, ``0`` or ``1`` means serial; any
    larger value selects a :class:`PoolExecutor` pool of that
    size, which stays up until the engine is closed — callers that own
    the engine should use it as a context manager (see
    :func:`engine_scope`).  A value that is not an integer, or is
    negative, also runs serial — but loudly (``envconfig.get_int``
    warns), instead of silently ignoring the setting.  The CLI's
    ``--workers N`` flag sets this variable for the whole run.

    ``REPRO_CACHE=DIR`` (the CLI's ``--cache DIR``) additionally attaches
    the content-addressed analysis cache rooted at that directory.

    ``REPRO_SHARDS`` (the CLI's ``--shards N``) is resolved by the
    engine itself: each run streams through N contiguous shards with
    results spilled to disk between them, bounding coordinator RSS.
    """
    workers = envconfig.get_int("REPRO_WORKERS", 1, minimum=0)
    cache = default_cache()
    if workers <= 1:
        return CampaignEngine(SerialExecutor(), cache)
    return CampaignEngine(PoolExecutor(workers=workers), cache)


def engine_scope(
    engine: CampaignEngine | None,
) -> AbstractContextManager[CampaignEngine]:
    """``with engine_scope(engine) as engine:`` for optional-engine callers.

    A caller-supplied engine is yielded as-is and stays open (its owner
    closes it); ``None`` yields a fresh :func:`default_engine` that is
    closed on exit, so its process pool never outlives the call.
    """
    if engine is not None:
        return nullcontext(engine)
    return default_engine()
