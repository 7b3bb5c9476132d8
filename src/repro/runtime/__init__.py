"""Staged campaign execution: one engine for every per-block fan-out.

The paper runs its Table 1 pipeline over 5.2M /24 blocks — an
embarrassingly parallel per-block map.  This package is the single
seam through which the repo drives that map:

* :class:`~repro.runtime.executors.Executor` — the pluggable mapping
  strategy (:class:`SerialExecutor`, and the process pool
  :class:`PoolExecutor` — persistent workers fed plain pickles, with
  chunked dispatch and serial fallback);
* :class:`~repro.runtime.engine.CampaignEngine` — runs an iterable of
  block tasks through an executor and aggregates per-stage
  :class:`~repro.core.stages.StageRecord` instrumentation into
  :class:`~repro.runtime.engine.RunMetrics`;
* :class:`~repro.runtime.jobs.BlockAnalysisJob` — the picklable
  simulate-observe-analyze task the dataset builder and the campaign
  protocol both dispatch.

``REPRO_WORKERS=N`` (or ``repro --workers N``) selects the default
executor process-wide; see :func:`~repro.runtime.engine.default_engine`.
``REPRO_SHARDS=N`` (or ``repro --shards N``) additionally streams each
run through N contiguous shards with results spilled to a
memory-mappable on-disk layout between shards
(:mod:`~repro.runtime.sharding`, :mod:`~repro.runtime.spill`), bounding
coordinator RSS for paper-scale worlds.
"""

from .cache import (
    AnalysisCache,
    CACHE_SCHEMA,
    default_cache,
    stable_token,
    task_keyer,
)
from .engine import (
    BlockResult,
    CampaignEngine,
    EngineRun,
    RunMetrics,
    ShippedResult,
    StageTotals,
    TracedCall,
    default_engine,
    drain_run_log,
    engine_scope,
    peek_run_log,
)
from .executors import Executor, PoolExecutor, SerialExecutor
from .jobs import BlockAnalysisJob
from .sharding import ShardPlan, resolve_shards
from .spill import SpillDir, SpilledResults

__all__ = [
    "AnalysisCache",
    "BlockAnalysisJob",
    "BlockResult",
    "CACHE_SCHEMA",
    "CampaignEngine",
    "EngineRun",
    "Executor",
    "PoolExecutor",
    "RunMetrics",
    "SerialExecutor",
    "ShardPlan",
    "ShippedResult",
    "SpillDir",
    "SpilledResults",
    "StageTotals",
    "TracedCall",
    "default_cache",
    "default_engine",
    "drain_run_log",
    "engine_scope",
    "peek_run_log",
    "resolve_shards",
    "stable_token",
    "task_keyer",
]
