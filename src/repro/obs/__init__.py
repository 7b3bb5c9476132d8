"""Telemetry for the campaign engine: spans, progress, durable sinks.

Three pillars (see docs/algorithms.md, "Observability"):

* the run record — one :class:`~repro.runtime.engine.RunMetrics` per
  engine run (stage table, funnel, cache, shards, resources), built
  from the :class:`~repro.core.stages.StageRecord` entries every block
  carries; :mod:`repro.obs.resources` measures its CPU and RSS;
* :mod:`repro.obs.trace` — hierarchical spans
  (run -> campaign -> block -> stage) recorded by an ambient
  :class:`~repro.obs.trace.Tracer`; the default is a zero-cost no-op,
  and worker-process span fragments ship home with task results;
* :mod:`repro.obs.progress` — ``progress.jsonl`` heartbeats while a
  run is in flight.

:mod:`repro.obs.sinks` writes spans, run records and a ``run.json``
manifest so any experiment run is reconstructable after the fact
(``repro --trace DIR`` to write, ``repro report DIR`` to re-render).
"""

from .progress import (
    NoopProgress,
    ProgressEmitter,
    default_progress,
    get_progress,
    set_progress,
    use_progress,
)
from .resources import (
    ResourceSnapshot,
    ResourceTracker,
    cpu_seconds,
    format_bytes,
    peak_rss_bytes,
    rss_bytes,
    thread_cpu_seconds,
)
from .trace import (
    NOOP,
    NoopTracer,
    SpanRecord,
    Tracer,
    annotate,
    get_tracer,
    set_tracer,
    use_tracer,
)
from .sinks import SavedRun, git_describe, load_run, render_report, write_run

__all__ = [
    "NOOP",
    "NoopProgress",
    "NoopTracer",
    "ProgressEmitter",
    "ResourceSnapshot",
    "ResourceTracker",
    "SavedRun",
    "SpanRecord",
    "Tracer",
    "annotate",
    "cpu_seconds",
    "default_progress",
    "format_bytes",
    "get_progress",
    "get_tracer",
    "git_describe",
    "load_run",
    "peak_rss_bytes",
    "render_report",
    "rss_bytes",
    "set_progress",
    "set_tracer",
    "thread_cpu_seconds",
    "use_progress",
    "use_tracer",
    "write_run",
]
