"""Central registry of metric instrument names (REP005).

Every ``counter``/``gauge``/``histogram`` call site in ``src/repro``
must name its instrument with either

* a **literal string** listed in :data:`METRICS`, or
* a call to :func:`metric_name` whose first argument is a literal
  family from :data:`METRIC_FAMILIES`.

The ``repro lint`` rule REP005 enforces this statically by parsing this
module, so a new instrument is a one-line registration here — and a
typo'd or ad-hoc f-string name fails CI instead of silently forking a
metric family.  Keeping the names in one place is what makes dashboards
and the run-manifest schema greppable: ``git grep probes.sent`` finds
the producer, this registry, and every consumer.
"""

from __future__ import annotations

__all__ = ["METRICS", "METRIC_FAMILIES", "metric_name"]

#: Every statically-named instrument in the codebase.  Sorted; one name
#: per line so diffs stay reviewable.
METRICS = frozenset(
    {
        "blocks.analyzed",
        "blocks.firewalled",
        "cache.bytes.at_rest",
        "cache.bytes.hit",
        "cache.bytes.store",
        "cache.hit",
        "cache.miss",
        "cache.store",
        "engine.run_wall_s",
        "engine.shards",
        "engine.tasks",
        "executor.chunk_size",
        "executor.fallbacks",
        "executor.payload.task_bytes",
        "executor.pool_spawns",
        "executor.pool_workers",
        "resources.cpu_s",
        "resources.rss_peak_bytes",
        "resources.worker.cpu_s",
        "resources.worker.rss_peak_bytes",
        "spill.bytes.written",
    }
)

#: Dotted prefixes of instruments whose tail is data-dependent (an
#: observer letter, a pipeline stage, a funnel key).  Dynamic names are
#: built through :func:`metric_name` so the family itself stays a
#: checked literal.
METRIC_FAMILIES = frozenset(
    {
        "funnel",
        "probes.positive",
        "probes.sent",
        "stage",
    }
)


def metric_name(family: str, *parts: str) -> str:
    """Build ``family.part[.part...]`` after checking the family is registered.

    Raises ``ValueError`` for an unregistered family or an empty tail, so
    a name that would dodge the static check also fails at runtime.
    """
    if family not in METRIC_FAMILIES:
        raise ValueError(
            f"metric family {family!r} is not registered in repro.obs.names"
        )
    if not parts:
        raise ValueError(f"metric family {family!r} used without a tail")
    return ".".join((family, *parts))
