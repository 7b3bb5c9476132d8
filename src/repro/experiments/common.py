"""Shared infrastructure for the per-table/figure experiments.

Experiments share worlds and expensive analysis campaigns through the
memoized factories here.  Scale is controlled by ``n_blocks``; the
defaults are laptop-sized (the paper analyses 5.2M blocks, we report
fractions and shapes at 10^2-10^3 block scale — see DESIGN.md §2).

The *campaign* implements the paper's §3.4 protocol for the real-world
results: change-sensitive blocks are identified on 2020m1-ejnw (January,
pre-Covid baseline), then changes are detected over all of 2020h1-ejnw
for exactly those blocks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from datetime import date, timedelta
from typing import Iterator, Sequence

import numpy as np

from ..core.aggregate import BlockRecord, GridAggregator
from ..core.pipeline import BlockAnalysis, BlockPipeline
from ..datasets.builder import DatasetBuilder, DatasetResult, block_record
from ..datasets.catalog import dataset
from ..net.loss import LossModel
from ..net.observations import ObservationSeries
from ..net.prober import ProbeLane, ProbeTarget, TrinocularObserver, observe_batch
from ..net.usage import BlockTruth
from ..net.world import WorldModel, scenario_baseline2023, scenario_covid2020
from ..obs.trace import get_tracer
from ..runtime import envconfig
from ..runtime.engine import CampaignEngine, RunMetrics, engine_scope

__all__ = [
    "SITES",
    "Campaign",
    "bench_scale",
    "control_campaign",
    "covid_campaign",
    "covid_world",
    "control_world",
    "fmt_table",
    "observe_blocks",
    "site_lanes",
    "sparkline",
    "top_peaks",
]

#: the four Trinocular sites the single-block experiments probe with
SITES = "ejnw"


def bench_scale(default: int = 400) -> int:
    """World size for experiments, overridable via REPRO_SCALE."""
    return envconfig.get_int("REPRO_SCALE", default)


@functools.lru_cache(maxsize=4)
def covid_world(n_blocks: int = 400, seed: int = 20, diurnal_boost: float = 1.0) -> WorldModel:
    """The early-2020 world (memoized per scale/seed)."""
    return WorldModel(
        scenario_covid2020(), n_blocks=n_blocks, seed=seed, diurnal_boost=diurnal_boost
    )


@functools.lru_cache(maxsize=4)
def control_world(n_blocks: int = 400, seed: int = 23, diurnal_boost: float = 1.0) -> WorldModel:
    """The 2023 control world (Spring Festival, no Covid)."""
    return WorldModel(
        scenario_baseline2023(), n_blocks=n_blocks, seed=seed, diurnal_boost=diurnal_boost
    )


@dataclass(frozen=True)
class Campaign:
    """A §3.4-style analysis campaign over one world.

    ``baseline`` is the dataset that defines change-sensitivity;
    ``analysis_window`` is the dataset over which changes are detected
    for those blocks.  ``records`` feed the :class:`GridAggregator`.
    """

    world: WorldModel
    baseline: DatasetResult
    records: tuple[BlockRecord, ...]
    analyses: dict[str, BlockAnalysis]
    first_day: int
    n_days: int
    metrics: tuple[RunMetrics, ...] = ()  # (baseline run, detection run)

    def aggregator(
        self, *, min_responsive: int = 5, min_change_sensitive: int = 5
    ) -> GridAggregator:
        agg = GridAggregator(
            min_responsive=min_responsive, min_change_sensitive=min_change_sensitive
        )
        return agg.add_all(list(self.records))

    def day_of(self, when: date) -> int:
        """UTC day index (since the world epoch) of a calendar date."""
        return (when - self.world.epoch.date()).days

    def date_of(self, day: int) -> date:
        return self.world.epoch.date() + timedelta(days=int(day))


def _run_campaign(
    world: WorldModel,
    baseline_name: str,
    window_name: str,
    *,
    engine: CampaignEngine | None = None,
) -> Campaign:
    """The §3.4 protocol as two engine runs over one shared code path.

    Run 1 analyzes every block on the baseline window; run 2 re-analyzes
    exactly the change-sensitive responsive blocks on the detection
    window (``detect_on_all`` so trend/CUSUM run regardless of how the
    longer window classifies them).  Both runs dispatch through the same
    :class:`~repro.runtime.engine.CampaignEngine` the dataset builder
    uses — serial or parallel is purely the executor's business.
    """
    # tag every span the engine opens below (the two campaign spans and
    # their block/stage children) with the protocol's identity, so a
    # saved trace says which §3.4 run each subtree belongs to
    with engine_scope(engine) as engine, get_tracer().tagged(
        protocol="s3.4",
        baseline=baseline_name,
        window=window_name,
        n_blocks=world.n_blocks,
    ):
        return _run_campaign_tagged(world, baseline_name, window_name, engine=engine)


def _run_campaign_tagged(
    world: WorldModel,
    baseline_name: str,
    window_name: str,
    *,
    engine: CampaignEngine,
) -> Campaign:
    builder = DatasetBuilder(world)
    baseline = builder.analyze(baseline_name, engine=engine)
    cs_set = set(baseline.change_sensitive())
    window = dataset(window_name)
    start = window.start_s(world.epoch)
    first_day = int(start // 86_400)
    n_days = int(window.duration_days)

    def baseline_responsive(cidr: str) -> bool:
        base = baseline.analyses.get(cidr)
        return base is not None and base.classification.responsive

    targets = [
        spec
        for spec in world.blocks
        if spec.block.cidr in cs_set and baseline_responsive(spec.block.cidr)
    ]
    windowed = builder.analyze(
        window,
        blocks=targets,
        pipeline=BlockPipeline(detect_on_all=True),
        engine=engine,
    )

    records: list[BlockRecord] = []
    for spec in world.blocks:
        cidr = spec.block.cidr
        analysis = windowed.analyses.get(cidr)
        if analysis is not None:
            records.append(
                block_record(spec, analysis, responsive=True, change_sensitive=True)
            )
        else:
            records.append(
                BlockRecord(
                    geo=spec.geo,
                    responsive=baseline_responsive(cidr),
                    change_sensitive=False,
                )
            )
    metrics = tuple(
        m for m in (baseline.metrics, windowed.metrics) if m is not None
    )
    return Campaign(
        world=world,
        baseline=baseline,
        records=tuple(records),
        analyses=dict(windowed.analyses),
        first_day=first_day,
        n_days=n_days,
        metrics=metrics,
    )


def covid_campaign(n_blocks: int | None = None, seed: int = 20) -> Campaign:
    """Baseline on 2020m1-ejnw, change detection over 2020h1-ejnw.

    The effective scale is resolved *before* the memoized call so that
    changing ``REPRO_SCALE`` between calls yields a fresh campaign
    instead of silently replaying the old scale's cache.
    """
    n = bench_scale(1600) if n_blocks is None else n_blocks
    return _cached_campaign("covid", n, seed)


def control_campaign(n_blocks: int | None = None, seed: int = 23) -> Campaign:
    """The 2023q1 control campaign (Appendix B.3/B.4)."""
    n = bench_scale(1600) if n_blocks is None else n_blocks
    return _cached_campaign("control", n, seed)


@functools.lru_cache(maxsize=4)
def _cached_campaign(kind: str, n_blocks: int, seed: int) -> Campaign:
    if kind == "covid":
        world = covid_world(n_blocks, seed, diurnal_boost=3.0)
        return _run_campaign(world, "2020m1-ejnw", "2020h1-ejnw")
    world = control_world(n_blocks, seed, diurnal_boost=3.0)
    return _run_campaign(world, "2023q1-ejnw", "2023q1-ejnw")


# ---------------------------------------------------------------------------
# probing hand-built blocks
# ---------------------------------------------------------------------------
def site_lanes(
    truth: BlockTruth,
    order: np.ndarray,
    seed: int,
    phase_step_s: float,
    *,
    sites: Sequence[str] = SITES,
    losses: Sequence[LossModel | None] | None = None,
    salt: tuple[int, ...] = (),
    start_s: float = 0.0,
    duration_s: float | None = None,
) -> list[ProbeLane]:
    """One block's Trinocular site lanes, ready for :func:`observe_blocks`.

    Site ``i`` of ``sites`` starts ``phase_step_s * (i + 1)`` seconds
    into each round, probes through ``losses[i]`` (no loss when None)
    and draws its loss from ``default_rng([seed, i, *salt])``.
    """
    end_s = None if duration_s is None else start_s + duration_s
    target = ProbeTarget.of(truth, order, start_s, end_s)
    losses = losses or [None] * len(sites)
    return [
        ProbeLane(
            TrinocularObserver(name, phase_offset_s=phase_step_s * (i + 1)),
            target,
            losses[i],
            np.random.default_rng([seed, i, *salt]),
            start_s,
            duration_s,
        )
        for i, name in enumerate(sites)
    ]


def observe_blocks(
    blocks: Sequence[Sequence[ProbeLane]],
) -> Iterator[list[ObservationSeries]]:
    """Probe every block's lanes in one :func:`observe_batch` call.

    Yields each block's logs in turn, assembled as they are asked for,
    so only one block's logs need be live at a time.
    """
    logs = observe_batch([lane for lanes in blocks for lane in lanes])
    at = 0
    for lanes in blocks:
        yield [logs[i] for i in range(at, at + len(lanes))]
        at += len(lanes)


# ---------------------------------------------------------------------------
# plain-text reporting helpers (no matplotlib offline)
# ---------------------------------------------------------------------------
def fmt_table(headers: list[str], rows: list[list[object]]) -> str:
    """Render an aligned plain-text table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for r, row in enumerate(cells):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


_SPARK = " .:-=+*#%@"


def sparkline(values: np.ndarray) -> str:
    """A coarse character sparkline for daily series."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        return ""
    hi = np.nanmax(v)
    if not np.isfinite(hi) or hi <= 0:
        return " " * v.size
    idx = np.clip((v / hi * (len(_SPARK) - 1)).astype(int), 0, len(_SPARK) - 1)
    return "".join(_SPARK[i] for i in idx)


def top_peaks(values: np.ndarray, k: int = 3) -> list[tuple[int, float]]:
    """The k largest (index, value) entries of a daily series."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v)[::-1][:k]
    return [(int(i), float(v[i])) for i in order]
