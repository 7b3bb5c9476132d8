"""Spans and counters recorded around each layer's public entry points.

The tracer patches the public functions listed in :data:`ENTRY_POINTS`
for the duration of a traced campaign, from outside the program: each
call opens a span (name, start, end, parent span, run id) and adds the
layer's work counters.  Spans stay in memory until :meth:`Tracer.dump`.

A layer's self time is its spans' durations minus the time their child
spans cover; the root ``engine`` span is opened by the benchmark around
each timed campaign, so the self times of all layers sum to the traced
wall.

An entry point that no longer exists (a later change removed or renamed
it) is skipped and reported in :attr:`Tracer.absent`; its layer then
reports zero calls instead of crashing the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterator

__all__ = [
    "ENTRY_POINTS",
    "LAYERS",
    "EntryPoint",
    "Span",
    "Tracer",
    "self_times",
]

#: Layers in report order; ``engine`` is the benchmark's own root span.
LAYERS = (
    "truth",
    "probe",
    "repair",
    "combine",
    "reconstruct",
    "classify",
    "trend",
    "detect",
    "aggregate",
    "cache",
    "spill",
    "dispatch",
    "engine",
)


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    run_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(
    spans: list[Span], key: Callable[[Span], str] = lambda s: s.layer
) -> dict[str, float]:
    """Self time per ``key`` (the layer by default): each span's duration
    minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        clipped = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(span.span_id, ())
            if end > span.start and start < span.end
        ]
        out[key(span)] += span.duration - _covered(clipped)
    return dict(out)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------
CountFn = Callable[[Any, tuple, Any, dict], dict[str, float]]


@dataclass(frozen=True)
class EntryPoint:
    """One public function to wrap: ``module:Class.method``.

    ``span`` is the span name (None: count only, no span); ``count``
    maps (self, args, result, before) to counter increments, where
    ``before`` is what ``snapshot(self)`` returned before the call.
    """

    module: str
    qualname: str
    layer: str
    span: str | None
    count: CountFn | None = None
    snapshot: Callable[[Any], dict] | None = None

    @property
    def label(self) -> str:
        return f"{self.module}:{self.qualname}"


def _len0(args: tuple) -> int:
    return len(args[0])


def _payload(executor: Any) -> dict:
    payload = getattr(executor, "payload", None)
    return dict(payload) if isinstance(payload, dict) else {}


def _dispatch_counts(executor: Any, args: tuple, result: Any, before: dict) -> dict:
    after = _payload(executor)
    delta = {k: after.get(k, 0) - before.get(k, 0) for k in after}
    return {
        "dispatch.maps": 1,
        "dispatch.task_bytes": delta.get("task_bytes", 0),
        "dispatch.shm_bytes": delta.get("shm_bytes", 0),
        "dispatch.pool_spawns": delta.get("pool_spawns", 0),
        "dispatch.fallbacks": int(getattr(executor, "fallback_reason", None) is not None),
    }


def _spill_bytes(spill: Any) -> dict:
    return {"bytes_written": getattr(spill, "bytes_written", 0)}


ENTRY_POINTS: tuple[EntryPoint, ...] = (
    EntryPoint(
        "repro.net.world", "WorldModel.truth", "truth", "truth",
        lambda s, a, r, b: {"truth.calls": 1, "truth.cells": r.active.size},
    ),
    EntryPoint(
        "repro.net.prober", "TrinocularObserver.observe", "probe", "probe",
        lambda s, a, r, b: {"probe.calls": 1, "probe.probes": len(r)},
    ),
    EntryPoint(
        "repro.core.pipeline", "BlockPipeline.stage_repair", "repair", "repair",
        lambda s, a, r, b: {"repair.probes_in": sum(len(x) for x in a[0])},
    ),
    EntryPoint("repro.core.pipeline", "BlockPipeline.stage_combine", "combine", "combine"),
    EntryPoint(
        "repro.core.pipeline", "BlockPipeline.stage_reconstruct", "reconstruct", "reconstruct",
        lambda s, a, r, b: {"reconstruct.samples": len(r.counts)},
    ),
    EntryPoint(
        "repro.core.sensitivity", "SensitivityClassifier.classify_batch", "classify", "classify",
        lambda s, a, r, b: {"classify.rows": _len0(a)},
    ),
    EntryPoint(
        "repro.core.trend", "TrendExtractor.extract_batch", "trend", "trend",
        lambda s, a, r, b: {"trend.rows": _len0(a)},
    ),
    EntryPoint(
        "repro.core.changes", "ChangeDetector.detect_batch", "detect", "detect",
        lambda s, a, r, b: {
            "detect.rows": _len0(a),
            "detect.events": sum(len(report.events) for report in r),
        },
    ),
    EntryPoint("repro.core.aggregate", "GridAggregator.add_all", "aggregate", "aggregate"),
    EntryPoint(
        "repro.core.aggregate", "GridAggregator.cell_daily_fractions", "aggregate", "aggregate"
    ),
    EntryPoint(
        "repro.datasets.builder", "DatasetBuilder.truth", "builder", None,
        lambda s, a, r, b: {"builder.truth_calls": 1},
    ),
    EntryPoint(
        "repro.runtime.cache", "AnalysisCache.get", "cache", "cache.get",
        lambda s, a, r, b: {"cache.hits": int(r[0]), "cache.misses": int(not r[0])},
    ),
    EntryPoint("repro.runtime.cache", "AnalysisCache.put", "cache", "cache.put"),
    EntryPoint(
        "repro.runtime.spill", "SpillDir.write_shard", "spill", "spill.write",
        lambda s, a, r, b: {"spill.bytes": s.bytes_written - b["bytes_written"]},
        _spill_bytes,
    ),
    EntryPoint("repro.runtime.spill", "SpilledResults.__getitem__", "spill", "spill.read"),
    *(
        EntryPoint(
            "repro.runtime.executors", f"{cls}.map", "dispatch", "dispatch",
            _dispatch_counts, _payload,
        )
        for cls in ("SerialExecutor", "ParallelExecutor", "SharedMemoryExecutor")
    ),
)


def _resolve(point: EntryPoint) -> tuple[Any, str, Any] | None:
    """(owner, attribute, original) for an entry point, or None if gone."""
    try:
        owner: Any = importlib.import_module(point.module)
    except ImportError:
        return None
    *path, attr = point.qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, "__dict__", {}).get(attr)  # defined here, not inherited
    if not callable(original):
        return None
    return owner, attr, original


#: (owner, attribute, original) of every patch currently installed.
_PATCHED: list[tuple[Any, str, Any]] = []


def _unpatch_in_child() -> None:
    """Give a forked child (a pool worker) the program's own functions.

    Its spans could never reach the coordinator, and the wrappers would
    only add their cost to the traced wall.
    """
    for owner, attr, original in reversed(_PATCHED):
        setattr(owner, attr, original)
    _PATCHED.clear()


os.register_at_fork(after_in_child=_unpatch_in_child)


class Tracer:
    """Patches :data:`ENTRY_POINTS` while active and records spans.

    Single-threaded by design: the stack of open spans is the call
    stack of the coordinator process.  Only the coordinator is traced:
    a process forked while the tracer is installed (a pool worker) runs
    unpatched, so worker-side layers are invisible to it.
    """

    def __init__(self, entry_points: tuple[EntryPoint, ...] = ENTRY_POINTS) -> None:
        self.entry_points = entry_points
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, name, layer, start, end, parent, self.run_id))

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every resolvable entry point; restore all on exit."""
        restore: list[tuple[Any, str, Any]] = []
        self.absent = []
        try:
            for point in self.entry_points:
                found = _resolve(point)
                if found is None:
                    self.absent.append(point.label)
                    continue
                owner, attr, original = found
                setattr(owner, attr, self._wrap(point, original))
                restore.append((owner, attr, original))
                _PATCHED.append(restore[-1])
            yield self
        finally:
            for patch in reversed(restore):
                owner, attr, original = patch
                setattr(owner, attr, original)
                _PATCHED.remove(patch)

    def _wrap(self, point: EntryPoint, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def wrapper(obj: Any, *args: Any, **kwargs: Any) -> Any:
            before = point.snapshot(obj) if point.snapshot is not None else {}
            if point.span is None:
                result = fn(obj, *args, **kwargs)
            else:
                with tracer.span(point.span, point.layer):
                    result = fn(obj, *args, **kwargs)
            if point.count is not None:
                for key, value in point.count(obj, args, result, before).items():
                    tracer.counts[key] += value
            return result

        return wrapper

    def dump(self, path: str) -> None:
        """Write every recorded span as one JSON object per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
