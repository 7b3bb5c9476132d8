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
import time
import warnings
from collections import deque
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Sequence

from ..core.pipeline import BlockAnalysis
from ..core.stages import PIPELINE_STAGES, StageRecord
from ..obs.metrics import MetricsRegistry, get_registry, scoped_registry
from ..obs.names import metric_name
from ..obs.progress import get_progress
from ..obs.resources import ResourceTracker, cpu_seconds, format_bytes, peak_rss_bytes
from ..obs.trace import NoopTracer, SpanRecord, Tracer, get_tracer, use_tracer
from . import envconfig
from .cache import AnalysisCache, default_cache
from .executors import Executor, SerialExecutor, SharedMemoryExecutor
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

    Worker processes cannot write into the parent's tracer or metrics
    registry, so a traced run wraps every task in :class:`TracedCall`,
    which records into process-local fragments and ships them home
    inside this envelope.  The engine unwraps ``value`` before
    aggregation, so task functions and their callers never see it.
    """

    value: Any
    spans: tuple[SpanRecord, ...] = ()
    meters: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class TracedCall:
    """Picklable wrapper that records one task's spans and metrics.

    Opens a ``block`` span parented under the campaign span (so worker
    fragments re-attach into one rooted tree), swaps in a fresh metrics
    registry for the task body, and ships both back with the result.
    The serial executor runs the exact same wrapper in-process, keeping
    serial and parallel telemetry — and results — identical.
    """

    fn: Callable[[Any], Any]
    trace_id: str
    parent_id: str
    #: span name per task — "block" for per-block jobs, "batch" for the
    #: batched path's per-chunk tail calls, None for jobs that open one
    #: ``block`` span per block themselves (the batched path's chunked
    #: phase A), so block-span accounting counts exactly one per block
    span_name: str | None = "block"

    def __call__(self, task: Any) -> ShippedResult:
        tracer = Tracer(trace_id=self.trace_id, root_parent_id=self.parent_id)
        with scoped_registry() as registry, use_tracer(tracer):
            cpu_start = cpu_seconds()
            if self.span_name is None:
                with tracer.tagged(pid=os.getpid()):
                    value = self.fn(task)
            else:
                with tracer.span(self.span_name, attrs={"pid": os.getpid()}):
                    value = self.fn(task)
            # per-worker accounting rides home in the meter snapshot:
            # the histogram's sum/count aggregate CPU across tasks and
            # the max-gauge keeps each worker process's RSS high-water.
            # A job reporting per block counts once per block it
            # carried, each with an even share of the task's CPU.
            cpu_s = cpu_seconds() - cpu_start
            n_blocks = 1 if self.span_name is not None else max(len(value), 1)
            histogram = registry.histogram("resources.worker.cpu_s")
            for _ in range(n_blocks):
                histogram.observe(cpu_s / n_blocks)
            registry.max_gauge("resources.worker.rss_peak_bytes").set(peak_rss_bytes())
        return ShippedResult(
            value=value, spans=tuple(tracer.finished), meters=registry.snapshot()
        )


@dataclass
class StageTotals:
    """Aggregated stage instrumentation across one engine run."""

    calls: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_delta: int = 0  # summed RSS high-water rise across calls, bytes
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
        self.rss_delta += record.rss_delta
        self.n_in += record.n_in
        self.n_out += record.n_out

    def merge(self, other: "StageTotals") -> None:
        """Fold another run's totals for the same stage into this one."""
        self.calls += other.calls
        self.wall_s += other.wall_s
        self.cpu_s += other.cpu_s
        self.rss_delta += other.rss_delta
        self.n_in += other.n_in
        self.n_out += other.n_out
        for reason, n in other.skips.items():
            self.skips[reason] = self.skips.get(reason, 0) + n

    def as_dict(self) -> dict[str, Any]:
        return {
            "calls": self.calls,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "rss_delta": self.rss_delta,
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
            rss_delta=d.get("rss_delta", 0),
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
    meters: dict[str, Any] | None = None  # merged registry snapshot (traced runs)
    cache: dict[str, int] | None = None  # hits/misses/stores (cached runs only)
    batched: dict[str, int] | None = None  # blocks/groups/chunks (batched runs only)
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

    @property
    def stage_wall_s(self) -> float:
        """Summed in-stage wall time (< ``wall_s`` — excludes simulation
        overheads not recorded as a stage, > ``wall_s`` when parallel)."""
        return sum(t.wall_s for t in self.stages.values())

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
            "meters": self.meters,
            "cache": self.cache,
            "batched": self.batched,
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
            meters=d.get("meters"),
            cache=d.get("cache"),  # absent in pre-cache saved traces
            batched=d.get("batched"),  # absent in pre-batching saved traces
            resources=d.get("resources"),  # absent in pre-resource saved traces
            shards=d.get("shards"),  # absent in pre-sharding saved traces
        )

    @classmethod
    def merged(
        cls,
        parts: "Sequence[RunMetrics]",
        *,
        label: str,
        executor: str,
        shards: dict[str, int],
    ) -> "RunMetrics":
        """Lossless fold of per-shard run metrics into one campaign record.

        Additive sections sum (tasks, wall, stage tables, funnel, cache,
        batched, pool payload); meter snapshots merge through the
        registry's own snapshot/merge semantics (counters add, max
        gauges max, histograms fold element-wise); process-level RSS
        peaks take the max across shards, since shards share one
        coordinator process.
        """
        out = cls(
            label=label,
            executor=executor,
            n_tasks=sum(p.n_tasks for p in parts),
            wall_s=sum(p.wall_s for p in parts),
            shards=dict(shards),
        )
        for p in parts:
            for name, totals in p.stages.items():
                out.stages.setdefault(name, StageTotals()).merge(totals)
            for key, n in p.funnel.items():
                out.funnel[key] = out.funnel.get(key, 0) + n
            if out.fallback is None:
                out.fallback = p.fallback
        if any(p.meters is not None for p in parts):
            registry = MetricsRegistry()
            for p in parts:
                if p.meters:
                    registry.merge(p.meters)
            out.meters = registry.snapshot()
        if any(p.cache is not None for p in parts):
            out.cache = {
                key: sum((p.cache or {}).get(key, 0) for p in parts)
                for key in ("hits", "misses", "stores")
            }
        if any(p.batched is not None for p in parts):
            out.batched = {
                key: sum((p.batched or {}).get(key, 0) for p in parts)
                for key in ("blocks", "groups", "chunks")
            }
        res_parts = [p.resources for p in parts if p.resources is not None]
        if res_parts:
            out.resources = _merge_resources(res_parts)
        return out

    def report(self) -> str:
        """Aligned plain-text run report (the ``--metrics`` output)."""
        lines = [
            f"run {self.label!r}: {self.n_tasks} blocks in {self.wall_s:.2f}s "
            f"({self.blocks_per_sec:.1f} blocks/s) on {self.executor}"
        ]
        if self.fallback:
            lines.append(f"  ! fell back to serial: {self.fallback}")
        if self.stages:
            rows = [["stage", "calls", "skipped", "wall_s", "cpu_s", "rss+", "n_in", "n_out"]]
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
                        format_bytes(t.rss_delta),
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
        if self.batched is not None:
            lines.append(
                f"  batched: {self.batched.get('blocks', 0)} blocks in "
                f"{self.batched.get('groups', 0)} grid groups, "
                f"{self.batched.get('chunks', 0)} chunks"
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
                lines.append(
                    f"  pool: {format_bytes(pool.get('task_bytes', 0))} payload out "
                    f"over {pool.get('maps', 0)} dispatches, "
                    f"{format_bytes(pool.get('shm_bytes', 0))} via shm"
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


@dataclass(frozen=True)
class _TracedDispatch:
    """Where a traced run's shipped telemetry fragments accumulate."""

    tracer: Tracer
    registry: MetricsRegistry
    parent_id: str


def _chunk_group(
    members: list[tuple[int, Any]], workers: int, min_rows: int = 8
) -> list[list[tuple[int, Any]]]:
    """Split a batched phase's work into chunks (blocks or grid groups).

    Serial execution keeps everything as one chunk (maximum batch
    width); a parallel executor gets about two chunks per worker so the
    pool load-balances, but never chunks below ``min_rows`` — tiny
    batches forfeit the columnar win to dispatch overhead.
    """
    if workers <= 1 or len(members) <= min_rows:
        return [members]
    size = max(-(-len(members) // (workers * 2)), min_rows)
    return [members[i : i + size] for i in range(0, len(members), size)]


def _merge_resources(parts: "Sequence[dict[str, Any]]") -> dict[str, Any]:
    """Fold per-shard resource summaries into one campaign summary.

    Shards run sequentially in one coordinator process, so wall and CPU
    add while RSS peaks max (the high-water mark is process-wide); the
    ``rss_bytes`` point sample is the last shard's (the most recent).
    Pool payload counters and worker aggregates are additive, except
    worker RSS peaks which also max (pool workers persist across
    shards in the persistent pool).
    """
    wall_s = sum(p.get("wall_s", 0.0) for p in parts)
    cpu_s = sum(p.get("cpu_s", 0.0) for p in parts)
    out: dict[str, Any] = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "cpu_utilization": cpu_s / wall_s if wall_s > 0.0 else 0.0,
        "rss_bytes": parts[-1].get("rss_bytes", 0),
        "rss_peak_bytes": max(p.get("rss_peak_bytes", 0) for p in parts),
        "rss_peak_delta_bytes": max(p.get("rss_peak_delta_bytes", 0) for p in parts),
    }
    tm_parts = [p["tracemalloc"] for p in parts if p.get("tracemalloc")]
    if tm_parts:
        out["tracemalloc"] = {
            "current_bytes": tm_parts[-1].get("current_bytes", 0),
            "peak_bytes": max(t.get("peak_bytes", 0) for t in tm_parts),
            "delta_bytes": sum(t.get("delta_bytes", 0) for t in tm_parts),
        }
    pool_parts = [p["pool"] for p in parts if p.get("pool")]
    if pool_parts:
        keys = {k for pool in pool_parts for k in pool}
        out["pool"] = {k: sum(pool.get(k, 0) for pool in pool_parts) for k in keys}
    worker_parts = [p["workers"] for p in parts if p.get("workers")]
    if worker_parts:
        workers: dict[str, Any] = {
            "cpu_s": sum(w.get("cpu_s", 0.0) for w in worker_parts),
            "tasks": sum(w.get("tasks", 0) for w in worker_parts),
        }
        rss_vals = [w["rss_peak_bytes"] for w in worker_parts if "rss_peak_bytes" in w]
        if rss_vals:
            workers["rss_peak_bytes"] = max(rss_vals)
        out["workers"] = workers
    return out


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

    One engine is reusable across runs; ``history`` keeps that engine's
    own :class:`RunMetrics` in order (the module-level run log keeps a
    process-wide view for the CLI).
    """

    def __init__(
        self,
        executor: Executor | None = None,
        cache: AnalysisCache | None = None,
        shards: int | None = None,
    ) -> None:
        """``shards`` partitions each run's task list into contiguous
        ranges streamed one at a time with results spilled to disk
        between shards; ``None`` defers to ``REPRO_SHARDS`` (the CLI's
        ``--shards``), defaulting to unsharded.  Results are identical
        either way — sharding only changes how the work is executed."""
        self.executor: Executor = executor or SerialExecutor()
        self.cache = cache
        self.shards = resolve_shards(shards)
        self.history: list[RunMetrics] = []
        self._stripes: dict[str, AnalysisCache] = {}

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

        When the engine is sharded (``shards > 1``), the task list is
        partitioned into contiguous ranges (:class:`ShardPlan`) streamed
        one shard at a time; each completed shard's results spill to a
        memory-mapped on-disk layout before the next shard starts, so
        coordinator RSS is bounded by one shard's working set, not the
        world.  Per-shard metrics merge losslessly into one
        :class:`RunMetrics` and ``results`` comes back as a lazy
        :class:`~repro.runtime.spill.SpilledResults` — contiguity makes
        the slot order, and therefore every downstream output, byte-
        identical to an unsharded run.

        When the engine has a cache and ``fn`` exposes a
        ``cache_key(task)`` method, each task's key is consulted before
        dispatch and its result stored after; hits bypass the executor
        entirely (their :class:`BlockResult` carries no stage records,
        because no stage ran) but land in the same result slot, so
        cached runs stay byte-identical to computed ones.  Jobs without
        ``cache_key`` run uncached, as do tasks whose key comes back
        ``None`` (uncacheable inputs).

        Every run opens a ``campaign`` span on the ambient (or given)
        tracer.  When that tracer is enabled, each task runs through
        :class:`TracedCall` so per-block spans and worker metric
        snapshots ship back, and the snapshots merge into
        :attr:`RunMetrics.meters` and the process-wide registry.
        Tracing never touches task results: serial and pooled runs stay
        byte-identical with it on or off.

        When ``fn`` exposes ``batched_split()``, dispatch happens in two
        phases inside this one run: the reconstruct phase maps over
        chunks of blocks, survivors regroup by shared sample grid into
        matrix chunks, and the batch phase maps the tail job over the
        chunks.  Cache keys, results, and stage records are those of
        calling ``fn`` per block, byte for byte;
        :attr:`RunMetrics.batched` records what was regrouped.  Other
        jobs are mapped per task directly.
        """
        tasks = list(tasks)
        plan = ShardPlan.plan(self.shards, len(tasks))
        if plan.n_shards <= 1:
            return self._run_once(fn, tasks, label=label, tracer=tracer)
        tracer = get_tracer() if tracer is None else tracer
        return self._run_sharded(fn, tasks, label=label, tracer=tracer, plan=plan)

    def _run_once(
        self,
        fn: Callable[[Any], Any],
        tasks: list[Any],
        *,
        label: str = "campaign",
        tracer: Tracer | NoopTracer | None = None,
        record: bool = True,
    ) -> EngineRun:
        """One unsharded engine run (the pre-sharding ``run`` body).

        ``record=False`` keeps a sharded campaign's per-shard sub-runs
        out of ``history`` and the module run log — only the merged
        campaign record lands there."""
        tracer = get_tracer() if tracer is None else tracer
        tracker = ResourceTracker()
        payload_before = self._payload_snapshot()
        start = time.perf_counter()
        keys, hits, pending = self._consult_cache(fn, tasks)
        progress = get_progress()
        if keys is not None:
            progress.begin(
                label,
                len(tasks),
                done=len(hits),
                cache_hits=len(hits),
                cache_misses=len(pending),
            )
        else:
            progress.begin(label, len(tasks))
        try:
            with tracer.span(
                "campaign",
                attrs={"label": label, "executor": self.executor.name, "n_tasks": len(tasks)},
            ) as span:
                traced: _TracedDispatch | None = None
                registry = get_registry()
                parent_id = tracer.current_span_id
                if isinstance(tracer, Tracer) and parent_id is not None:
                    # telemetry shipped home by TracedCall merges here
                    # first, then into the process-wide registry
                    registry = MetricsRegistry()
                    traced = _TracedDispatch(
                        tracer=tracer, registry=registry, parent_id=parent_id
                    )
                pending_tasks = [tasks[i] for i in pending]
                batched_stats: dict[str, int] | None = None
                if hasattr(fn, "batched_split"):
                    computed, batched_stats = self._dispatch_batched(
                        fn, pending_tasks, traced
                    )
                else:
                    computed = self._map_tasks(fn, pending_tasks, traced, "block")
                wall_s = time.perf_counter() - start
                results = self._merge_results(len(tasks), hits, pending, computed)
                metrics = self._aggregate(results, label=label, wall_s=wall_s)
                metrics.batched = batched_stats
                stores = self._store_results(keys, pending, computed)
                metrics.cache = self._cache_stats(keys, hits, pending, stores)
                if metrics.cache is not None:
                    self._emit_cache_counters(registry, metrics.cache)
                if batched_stats is not None:
                    self._emit_batched_counters(registry, batched_stats)
                registry.counter("engine.tasks").inc(len(results))
                registry.histogram("engine.run_wall_s").observe(wall_s)
                for key, n in metrics.funnel.items():
                    registry.counter(metric_name("funnel", key)).inc(n)
                # worker meters have merged by now: summarise them into
                # the resources section, then emit the coordinator's own
                # meters so the final snapshot has the full picture
                metrics.resources = self._finish_resources(
                    tracker,
                    payload_before,
                    meters=registry.snapshot() if traced is not None else None,
                )
                self._emit_resource_meters(registry, metrics.resources)
                if traced is not None:
                    metrics.meters = registry.snapshot()
                    # the process-wide registry sees worker metrics too,
                    # so the manifest's snapshot covers the whole run
                    get_registry().merge(metrics.meters)
                span.set(wall_s=round(wall_s, 6), fallback=metrics.fallback)
                if metrics.cache is not None:
                    span.set(cache_hits=metrics.cache["hits"])
        finally:
            progress.finish()
        if record:
            self.history.append(metrics)
            _RUN_LOG.append(metrics)
        return EngineRun(results=results, metrics=metrics)

    # -- sharding ----------------------------------------------------------
    def _stripe_cache(self, shard_id: int) -> AnalysisCache | None:
        """The cache a shard's sub-engine should use.

        Disk-backed caches stripe (one ``shard-NN/`` subtree each, keys
        staying shard-invariant); memory-only caches are shared as-is —
        striping one would just split its LRU into N cold fragments.
        Stripe views are memoised so repeat runs on one engine keep
        their memory tiers warm.
        """
        if self.cache is None or self.cache.directory is None:
            return self.cache
        stripe = f"shard-{shard_id:02d}"
        view = self._stripes.get(stripe)
        if view is None:
            view = self.cache.stripe_view(stripe)
            self._stripes[stripe] = view
        return view

    def _run_sharded(
        self,
        fn: Callable[[Any], Any],
        tasks: list[Any],
        *,
        label: str,
        tracer: Tracer | NoopTracer,
        plan: ShardPlan,
    ) -> EngineRun:
        """Stream ``tasks`` through the engine one shard at a time.

        Each shard runs on a single-shard sub-engine sharing this
        engine's executor (so the pool's persistent workers survive
        across shards) and its own cache stripe; completed shard results
        spill to disk immediately, bounding coordinator RSS by one
        shard's working set.  The spill directory is owned here: written
        by this coordinator, deleted by this coordinator on failure, and
        handed to the returned :class:`SpilledResults` on success (whose
        finalizer deletes it when the results are garbage collected).
        """
        tracker = ResourceTracker()
        spill = SpillDir.create()
        parts: list[RunMetrics] = []
        readers = []
        progress = get_progress()
        try:
            with progress.campaign_scope(label, total=len(tasks), n_shards=plan.n_shards):
                for i, (lo, hi) in enumerate(plan.ranges):
                    sub = CampaignEngine(self.executor, self._stripe_cache(i), shards=1)
                    with progress.shard_scope(i, lo), tracer.tagged(
                        shard=i, shards=plan.n_shards
                    ):
                        run = sub._run_once(
                            fn, tasks[lo:hi], label=label, tracer=tracer, record=False
                        )
                    readers.append(spill.write_shard(i, run.results))
                    parts.append(run.metrics)
        except BaseException:
            spill.cleanup()
            raise
        metrics = RunMetrics.merged(
            parts,
            label=label,
            executor=self.executor.name,
            shards={
                "shards": plan.n_shards,
                "spilled_items": spill.n_items,
                "spill_bytes": spill.bytes_written,
            },
        )
        # per-shard trackers bracket only their own run; the coordinator's
        # tracker saw the whole campaign including spill I/O, so its
        # process-level numbers are the truthful ones
        res = tracker.summary()
        if metrics.resources is None:
            metrics.resources = res
        else:
            for key in (
                "wall_s",
                "cpu_s",
                "cpu_utilization",
                "rss_bytes",
                "rss_peak_bytes",
                "rss_peak_delta_bytes",
            ):
                metrics.resources[key] = res[key]
            if "tracemalloc" in res:
                metrics.resources["tracemalloc"] = res["tracemalloc"]
        metrics.wall_s = res["wall_s"]
        get_registry().counter("engine.shards").inc(plan.n_shards)
        self.history.append(metrics)
        _RUN_LOG.append(metrics)
        return EngineRun(results=SpilledResults(spill, readers), metrics=metrics)

    # -- caching -----------------------------------------------------------
    def _consult_cache(
        self, fn: Callable[[Any], Any], tasks: list[Any]
    ) -> tuple[list[str | None] | None, dict[int, Any], list[int]]:
        """Split tasks into cache hits and indices still to compute."""
        keyfn = getattr(fn, "cache_key", None)
        if self.cache is None or keyfn is None:
            return None, {}, list(range(len(tasks)))
        keys: list[str | None] = [keyfn(task) for task in tasks]
        hits: dict[int, Any] = {}
        pending: list[int] = []
        for i, key in enumerate(keys):
            if key is not None:
                found, value = self.cache.get(key)
                if found:
                    hits[i] = value
                    continue
            pending.append(i)
        return keys, hits, pending

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

    @staticmethod
    def _cache_stats(
        keys: list[str | None] | None,
        hits: dict[int, Any],
        pending: list[int],
        stores: int,
    ) -> dict[str, int] | None:
        if keys is None:
            return None
        return {"hits": len(hits), "misses": len(pending), "stores": stores}

    @staticmethod
    def _emit_cache_counters(registry: MetricsRegistry, stats: dict[str, int]) -> None:
        registry.counter("cache.hit").inc(stats["hits"])
        registry.counter("cache.miss").inc(stats["misses"])
        registry.counter("cache.store").inc(stats["stores"])

    # -- resource accounting ------------------------------------------------
    def _payload_snapshot(self) -> dict[str, int] | None:
        """Copy of the executor's cumulative payload counters, if it has any."""
        payload = getattr(self.executor, "payload", None)
        return dict(payload) if isinstance(payload, dict) else None

    def _finish_resources(
        self,
        tracker: ResourceTracker,
        payload_before: dict[str, int] | None,
        *,
        meters: dict[str, Any] | None,
    ) -> dict[str, Any]:
        """Close the run's resource bracket and assemble the summary.

        ``pool`` is the pool payload delta attributable to this run (only
        present when a real pool dispatched); ``workers`` summarises the
        per-worker meters shipped home by :class:`TracedCall` (traced
        runs only — untraced parallel runs have no shipping envelope).
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
                    for key in ("fn_bytes", "task_bytes", "shm_bytes", "maps")
                }
        if meters is not None:
            workers: dict[str, Any] = {}
            cpu = meters.get("resources.worker.cpu_s")
            if cpu is not None:
                workers["cpu_s"] = cpu.get("sum", 0.0)
                workers["tasks"] = cpu.get("count", 0)
            rss = meters.get("resources.worker.rss_peak_bytes")
            if rss is not None:
                workers["rss_peak_bytes"] = int(rss.get("value", 0))
            if workers:
                res["workers"] = workers
        return res

    @staticmethod
    def _emit_resource_meters(registry: MetricsRegistry, res: dict[str, Any]) -> None:
        registry.histogram("resources.cpu_s").observe(res.get("cpu_s", 0.0))
        registry.max_gauge("resources.rss_peak_bytes").set(res.get("rss_peak_bytes", 0))

    # -- batched dispatch ---------------------------------------------------
    def _map_tasks(
        self,
        fn: Callable[[Any], Any],
        tasks: list[Any],
        traced: "_TracedDispatch | None",
        span_name: str | None,
        blocks_done: Callable[[Any], int] = lambda _result: 1,
    ) -> list[Any]:
        """One executor fan-out, through :class:`TracedCall` when traced.

        Every completed result ticks the ambient progress emitter by
        ``blocks_done(result)``: 1 for fan-outs that complete one block
        per result, the chunk's length for the batched phase A, and 0
        for the batched tail phase (whose blocks phase A already
        counted), so ``done`` converges to the task total exactly once
        per block.
        """
        progress = get_progress()

        def on_result(result: Any) -> None:
            if isinstance(result, ShippedResult):
                result = result.value
            progress.tick(blocks_done(result))

        if traced is None:
            return self.executor.map(fn, tasks, on_result)
        call = TracedCall(
            fn=fn,
            trace_id=traced.tracer.trace_id,
            parent_id=traced.parent_id,
            span_name=span_name,
        )
        shipped = self.executor.map(call, tasks, on_result)
        values = []
        for s in shipped:
            traced.tracer.adopt(s.spans)
            traced.registry.merge(s.meters)
            values.append(s.value)
        return values

    def _dispatch_batched(
        self,
        fn: Callable[[Any], Any],
        pending_tasks: list[Any],
        traced: "_TracedDispatch | None" = None,
    ) -> tuple[list[Any], dict[str, int]]:
        """Two-phase dispatch: chunked reconstruction, then batched tails.

        Phase A maps the reconstruct job over chunks of the pending
        tasks (the :func:`_chunk_group` policy: one chunk when serial);
        the job opens one ``block`` span per block itself.  Tasks that
        short-circuited already hold their final result; the rest
        regroup by shared sample grid, are chunked to keep a parallel
        executor's pool busy, and phase B maps the tail job over the
        chunks (one ``batch`` span each).  Slot order is preserved, so
        the caller merges results exactly as in the per-block path.
        """
        recon_fn, tail_fn = fn.batched_split()
        workers = getattr(self.executor, "workers", 1)
        a_chunks = _chunk_group(list(enumerate(pending_tasks)), workers)
        produced = self._map_tasks(
            recon_fn,
            [tuple(task for _, task in c) for c in a_chunks],
            traced,
            None,
            blocks_done=len,
        )
        slots: list[Any] = [None] * len(pending_tasks)
        survivors: list[tuple[int, Any]] = []
        for members, items in zip(a_chunks, produced):
            for (i, _), item in zip(members, items):
                if isinstance(item, BlockResult):
                    slots[i] = item  # firewalled short-circuit: already final
                else:
                    survivors.append((i, item))
        groups: dict[bytes, list[tuple[int, Any]]] = {}
        for i, rb in survivors:
            grid = rb.reconstruction.counts.times.tobytes()
            groups.setdefault(grid, []).append((i, rb))
        chunks: list[list[tuple[int, Any]]] = []
        for members in groups.values():
            chunks.extend(_chunk_group(members, workers))
        computed = self._map_tasks(
            tail_fn,
            [tuple(rb for _, rb in c) for c in chunks],
            traced,
            "batch",
            blocks_done=lambda _result: 0,  # phase A already counted these blocks
        )
        for members, block_results in zip(chunks, computed):
            for (i, _), result in zip(members, block_results):
                slots[i] = result
        stats = {
            "blocks": len(survivors),
            "groups": len(groups),
            "chunks": len(chunks),
        }
        return slots, stats

    @staticmethod
    def _emit_batched_counters(registry: MetricsRegistry, stats: dict[str, int]) -> None:
        registry.counter("engine.batched.blocks").inc(stats["blocks"])
        registry.counter("engine.batched.groups").inc(stats["groups"])
        registry.counter("engine.batched.chunks").inc(stats["chunks"])

    # -- aggregation -------------------------------------------------------
    def _aggregate(self, results: list[Any], *, label: str, wall_s: float) -> RunMetrics:
        stages: dict[str, StageTotals] = {}
        routed = responsive = diurnal = wide = change_sensitive = 0
        saw_blocks = False
        for result in results:
            if not isinstance(result, BlockResult):
                continue
            saw_blocks = True
            routed += 1
            for record in result.stages:
                stages.setdefault(record.name, StageTotals()).add(record)
            c = result.analysis.classification
            if c.responsive:
                responsive += 1
                diurnal += int(c.is_diurnal)
                wide += int(c.is_wide_swing)
                change_sensitive += int(c.is_change_sensitive)
        funnel = (
            {
                "routed": routed,
                "responsive": responsive,
                "diurnal": diurnal,
                "wide_swing": wide,
                "change_sensitive": change_sensitive,
            }
            if saw_blocks
            else {}
        )
        return RunMetrics(
            label=label,
            executor=self.executor.name,
            n_tasks=len(results),
            wall_s=wall_s,
            stages=stages,
            funnel=funnel,
            fallback=getattr(self.executor, "fallback_reason", None),
        )


def default_engine() -> CampaignEngine:
    """Engine for callers that did not pick one: ``REPRO_WORKERS`` decides.

    ``REPRO_WORKERS`` unset, empty, ``0`` or ``1`` means serial; any
    larger value selects a :class:`SharedMemoryExecutor` pool of that
    size, which stays up until the engine is closed — callers that own
    the engine should use it as a context manager (see
    :func:`engine_scope`).  A value that is not an integer, or is
    negative, also runs serial — but loudly, via ``warnings.warn``,
    instead of silently ignoring the setting.  The CLI's
    ``--workers N`` flag sets this variable for the whole run.

    ``REPRO_CACHE=DIR`` (the CLI's ``--cache DIR``) additionally attaches
    the content-addressed analysis cache rooted at that directory.

    ``REPRO_SHARDS`` (the CLI's ``--shards N``) is resolved by the
    engine itself: each run streams through N contiguous shards with
    results spilled to disk between them, bounding coordinator RSS.
    """
    raw = envconfig.raw("REPRO_WORKERS")
    workers = 1
    if raw:
        try:
            workers = int(raw)
        except ValueError:
            warnings.warn(
                f"REPRO_WORKERS={raw!r} is not an integer; running serial",
                RuntimeWarning,
                stacklevel=2,
            )
            workers = 1
        if workers < 0:
            warnings.warn(
                f"REPRO_WORKERS={raw!r} is negative; clamping to serial",
                RuntimeWarning,
                stacklevel=2,
            )
            workers = 1
    cache = default_cache()
    if workers <= 1:
        return CampaignEngine(SerialExecutor(), cache)
    return CampaignEngine(SharedMemoryExecutor(workers=workers), cache)


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
