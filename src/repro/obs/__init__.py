"""Telemetry for the campaign engine: tracing, metrics, durable sinks.

Three pillars (see docs/algorithms.md, "Observability"):

* :mod:`repro.obs.trace` — hierarchical spans
  (run -> campaign -> block -> stage) recorded by an ambient
  :class:`~repro.obs.trace.Tracer`; the default is a zero-cost no-op,
  and worker-process span fragments ship home with task results;
* :mod:`repro.obs.metrics` — a :class:`~repro.obs.metrics.MetricsRegistry`
  of counters, gauges, and fixed-bucket histograms with
  snapshot / reset / merge semantics (worker snapshots fold into the
  parent's registry);
* :mod:`repro.obs.sinks` — JSONL span/metrics writers plus a ``run.json``
  manifest so any experiment run is reconstructable after the fact
  (``repro --trace DIR`` to write, ``repro report DIR`` to re-render).
"""

from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MaxGauge,
    MetricsRegistry,
    get_registry,
    scoped_registry,
    set_registry,
)
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
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MaxGauge",
    "MetricsRegistry",
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
    "get_registry",
    "get_tracer",
    "git_describe",
    "load_run",
    "peak_rss_bytes",
    "render_report",
    "rss_bytes",
    "scoped_registry",
    "set_progress",
    "set_registry",
    "set_tracer",
    "thread_cpu_seconds",
    "use_progress",
    "use_tracer",
    "write_run",
]
