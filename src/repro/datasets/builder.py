"""Streaming dataset builder: simulate, observe, analyze, tabulate.

The builder glues the substrate to the pipeline: for each block of a
:class:`~repro.net.world.WorldModel` it generates ground truth, runs the
requested observers over a dataset window (with per-path loss models),
and hands the probe logs to a :class:`~repro.core.pipeline.BlockPipeline`.
:func:`simulate_chunk` does the same simulation for a whole chunk of
blocks at once (the batched runtime path): every (block, observer) lane
of the chunk is probed in one :func:`~repro.net.prober.observe_batch`.

Observations are cached per (block, observer) and *sliced* for narrower
windows — mirroring the paper, which reuses one measurement stream for
every analysis window (quarters, months, halves).  Both caches evict
least-recently-used entries by bytes at rest (array payload size), not
entry count, so a handful of huge blocks cannot balloon memory while
many small blocks still fit; experiments stream block-by-block either
way, and eviction never changes results (evicted windows are
re-simulated deterministically).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from ..core.pipeline import BlockAnalysis, BlockPipeline
from ..core.aggregate import BlockRecord
from ..core.reconstruction import Reconstruction
from ..core.stages import StageContext, StageMeter, StageShare
from ..net.bayesian import BayesianTrinocularObserver
from ..net.observations import ObservationSeries
from ..net.prober import (
    AdditionalProber,
    ProbeLane,
    ProbeLogs,
    ProbeTarget,
    TrinocularObserver,
    observe_batch,
    probe_order,
)
from ..net.survey import SurveyObserver
from ..net.usage import ROUND_SECONDS, BlockTruth
from ..net.world import BlockSpec, WorldModel
from ..runtime.engine import CampaignEngine, RunMetrics, engine_scope
from ..runtime.jobs import BlockAnalysisJob
from ..runtime.spill import SpilledResults
from .catalog import TRINOCULAR_SITES, DatasetSpec, dataset

__all__ = [
    "ChunkSimulation",
    "DatasetBuilder",
    "DatasetResult",
    "FunnelCounts",
    "SpilledAnalyses",
    "batches_lanes",
    "block_record",
    "reconstruct_logs",
    "simulate_chunk",
    "unresponsive_analysis",
]

#: Below this many lanes in a chunk, per-lane ``observe`` beats the lane
#: kernel's fixed per-round cost (``repro bench``'s ``prober_lanes``
#: section puts the crossover at 16-32 lanes).
MIN_BATCH_LANES = 32

#: Bytes at rest each of a builder's truth and observation caches may
#: hold — roomy enough that the "last few blocks" working set never
#: evicts early.
CACHE_BYTES = 32 * 1024 * 1024


class SpilledAnalyses(Mapping[str, BlockAnalysis]):
    """Lazy cidr → :class:`BlockAnalysis` view over spilled engine results.

    A sharded :meth:`DatasetBuilder.analyze` run keeps its per-block
    results on disk (:class:`~repro.runtime.spill.SpilledResults`);
    materialising ``{cidr: analysis}`` would pull the whole world back
    into RAM and defeat the point.  This mapping rehydrates exactly one
    block's analysis per lookup, and iterating items in key order walks
    the spill shards sequentially.  ``dict(analyses)`` still works for
    callers that want the eager behaviour on a small subset.
    """

    def __init__(self, keys: Sequence[str], results: "Sequence[Any]") -> None:
        self._keys = list(keys)
        self._results = results
        self._index = {key: i for i, key in enumerate(self._keys)}

    def __getitem__(self, key: str) -> BlockAnalysis:
        analysis = self._results[self._index[key]].analysis
        assert isinstance(analysis, BlockAnalysis)
        return analysis

    def __iter__(self) -> Iterator[str]:
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: object) -> bool:
        return key in self._index


@dataclass(frozen=True)
class FunnelCounts:
    """Table 2's per-dataset filtering funnel."""

    routed: int = 0
    not_responsive: int = 0
    responsive: int = 0
    not_diurnal: int = 0
    diurnal: int = 0
    narrow_swing: int = 0
    wide_swing: int = 0
    not_change_sensitive: int = 0
    change_sensitive: int = 0

    @property
    def change_sensitive_fraction(self) -> float:
        """Share of responsive blocks that are change-sensitive."""
        return self.change_sensitive / self.responsive if self.responsive else 0.0

    def rows(self) -> list[tuple[str, int]]:
        """(label, count) rows in Table 2 order."""
        return [
            ("routed blocks", self.routed),
            ("not responsive", self.not_responsive),
            ("responsive", self.responsive),
            ("not diurnal", self.not_diurnal),
            ("diurnal", self.diurnal),
            ("narrow swing", self.narrow_swing),
            ("wide swing", self.wide_swing),
            ("not change-sensitive", self.not_change_sensitive),
            ("change-sensitive", self.change_sensitive),
        ]


@dataclass
class DatasetResult:
    """All per-block analyses for one dataset window.

    ``analyses`` is a plain dict for in-memory runs and a lazy
    :class:`SpilledAnalyses` view for sharded runs — both map cidr to
    analysis and iterate in block order."""

    spec: DatasetSpec
    world: WorldModel
    analyses: Mapping[str, BlockAnalysis] = field(default_factory=dict)  # key: cidr
    block_specs: dict[str, BlockSpec] = field(default_factory=dict)
    metrics: RunMetrics | None = None  # instrumentation of the engine run

    def funnel(self) -> FunnelCounts:
        routed = len(self.analyses)
        responsive = diurnal = wide = cs = 0
        for analysis in self.analyses.values():
            c = analysis.classification
            if not c.responsive:
                continue
            responsive += 1
            diurnal += int(c.is_diurnal)
            wide += int(c.is_wide_swing)
            cs += int(c.is_change_sensitive)
        return FunnelCounts(
            routed=routed,
            not_responsive=routed - responsive,
            responsive=responsive,
            not_diurnal=responsive - diurnal,
            diurnal=diurnal,
            narrow_swing=responsive - wide,
            wide_swing=wide,
            not_change_sensitive=responsive - cs,
            change_sensitive=cs,
        )

    def records(self) -> list[BlockRecord]:
        """Aggregation records (geolocation + change days) per block."""
        return [
            block_record(self.block_specs[cidr], analysis)
            for cidr, analysis in self.analyses.items()
        ]

    def change_sensitive(self) -> list[str]:
        return [c for c, a in self.analyses.items() if a.is_change_sensitive]


class DatasetBuilder:
    """Simulates observers over a world and runs the analysis pipeline."""

    def __init__(
        self,
        world: WorldModel,
        pipeline: BlockPipeline | None = None,
        *,
        observer_style: str = "adaptive",
    ) -> None:
        """``observer_style`` picks the probing algorithm: "adaptive" is
        the paper's stop-at-first-positive description; "bayesian" is the
        full belief-driven Trinocular of [71] (see repro.net.bayesian).

        The truth and observation caches are each bounded by
        :data:`CACHE_BYTES` of array payload at rest."""
        self.world = world
        self.pipeline = pipeline or BlockPipeline()
        if observer_style == "adaptive":
            observer_cls = TrinocularObserver
        elif observer_style == "bayesian":
            observer_cls = BayesianTrinocularObserver
        else:
            raise ValueError(f"unknown observer_style: {observer_style!r}")
        self.observer_style = observer_style
        self.observers = {
            name: observer_cls(name, phase_offset_s=phase)
            for name, phase in TRINOCULAR_SITES.items()
        }
        self.additional = AdditionalProber(name="a", phase_offset_s=601.0)
        self.survey = SurveyObserver(name="survey", phase_offset_s=0.0)
        self._obs_cache: OrderedDict[tuple[str, str], tuple[float, float, ObservationSeries]] = (
            OrderedDict()
        )
        self._truth_cache: OrderedDict[str, tuple[float, BlockTruth]] = OrderedDict()
        self._obs_cache_bytes = 0
        self._truth_cache_bytes = 0

    # -- simulation -------------------------------------------------------
    @staticmethod
    def _truth_nbytes(truth: BlockTruth) -> int:
        return truth.addresses.nbytes + truth.active.nbytes + truth.col_times.nbytes

    @staticmethod
    def _series_nbytes(series: ObservationSeries) -> int:
        n = series.times.nbytes + series.addresses.nbytes + series.results.nbytes
        if series.sources is not None:
            n += series.sources.nbytes
        return n

    def truth(self, spec: BlockSpec, start_s: float, duration_s: float) -> BlockTruth:
        """Ground truth covering at least ``[0, start+duration)``, cached."""
        end = start_s + duration_s
        cached = self._truth_cache.get(spec.block.cidr)
        if cached is not None and cached[0] >= end:
            self._truth_cache.move_to_end(spec.block.cidr)
            return cached[1]
        truth = self.world.truth(spec, end)
        if cached is not None:
            self._truth_cache_bytes -= self._truth_nbytes(cached[1])
        self._truth_cache[spec.block.cidr] = (end, truth)
        self._truth_cache.move_to_end(spec.block.cidr)
        self._truth_cache_bytes += self._truth_nbytes(truth)
        # evict coldest-first by bytes at rest, always keeping the newest
        while self._truth_cache_bytes > CACHE_BYTES and len(self._truth_cache) > 1:
            _, (_, old) = self._truth_cache.popitem(last=False)
            self._truth_cache_bytes -= self._truth_nbytes(old)
        return truth

    def observe(
        self, spec: BlockSpec, observer: str, start_s: float, duration_s: float
    ) -> ObservationSeries:
        """One observer's probe log for a window (cached + sliced)."""
        key = (spec.block.cidr, observer)
        end_s = start_s + duration_s
        cached = self._obs_cache.get(key)
        if cached is not None and cached[0] <= start_s and cached[1] >= end_s:
            self._obs_cache.move_to_end(key)
            return cached[2].slice_time(start_s, end_s)

        sim_start = start_s if cached is None else min(cached[0], start_s)
        sim_end = end_s if cached is None else max(cached[1], end_s)
        series = self._simulate(spec, observer, sim_start, sim_end - sim_start)
        if cached is not None:
            self._obs_cache_bytes -= self._series_nbytes(cached[2])
        self._obs_cache[key] = (sim_start, sim_end, series)
        self._obs_cache.move_to_end(key)
        self._obs_cache_bytes += self._series_nbytes(series)
        while self._obs_cache_bytes > CACHE_BYTES and len(self._obs_cache) > 1:
            _, (_, _, old) = self._obs_cache.popitem(last=False)
            self._obs_cache_bytes -= self._series_nbytes(old)
        return series.slice_time(start_s, end_s)

    def _simulate(
        self, spec: BlockSpec, observer: str, start_s: float, duration_s: float
    ) -> ObservationSeries:
        truth = self.truth(spec, start_s, duration_s)
        order = probe_order(truth.n_addresses, spec.seed)
        rng = _lane_rng(spec, observer)
        loss = self.world.loss_model(spec, observer)
        if observer == "survey":
            return self.survey.observe(
                truth, None, loss, rng, start_s=start_s, duration_s=duration_s
            )
        if observer == "a":
            return self.additional.observe(
                truth, order, loss, rng, start_s=start_s, duration_s=duration_s
            )
        return self.observers[observer].observe(
            truth,
            order,
            loss,
            rng,
            start_s=start_s,
            duration_s=duration_s,
            start_cursor=_start_cursor(spec, observer, truth.n_addresses),
        )

    def observe_dataset(
        self, spec: BlockSpec, ds: DatasetSpec | str
    ) -> list[ObservationSeries]:
        """All of a dataset's observer logs for one block."""
        ds = dataset(ds) if isinstance(ds, str) else ds
        start = ds.start_s(self.world.epoch)
        return [self.observe(spec, obs, start, ds.duration_s) for obs in ds.observers]

    # -- analysis -----------------------------------------------------------
    def reconstruct_block(
        self,
        spec: BlockSpec,
        ds: DatasetSpec | str,
        pipeline: BlockPipeline | None = None,
        *,
        ctx: StageContext | None = None,
    ) -> Reconstruction:
        """Simulate one block's observers and reconstruct its count series.

        This is the front half of :meth:`analyze_block` (truth, probe,
        repair, combine, reconstruct).  The batched runtime path gets the
        same reconstructions, byte for byte, from :func:`simulate_chunk`
        plus :func:`reconstruct_logs` per block; this per-block form is
        its oracle (and what it runs for chunks :func:`batches_lanes`
        declines).
        """
        ds = dataset(ds) if isinstance(ds, str) else ds
        pipeline = pipeline or self.pipeline
        ctx = ctx if ctx is not None else StageContext()
        start = ds.start_s(self.world.epoch)
        with ctx.stage("truth") as active:
            truth = self.truth(spec, start, ds.duration_s)
            active.n_out = truth.active.size
        with ctx.stage("probe", n_in=len(ds.observers)) as active:
            logs = self.observe_dataset(spec, ds)
            active.n_out = sum(len(log) for log in logs)
        return reconstruct_logs(pipeline, logs, truth.addresses, start, ds, ctx)

    def analyze_block(
        self,
        spec: BlockSpec,
        ds: DatasetSpec | str,
        pipeline: BlockPipeline | None = None,
        *,
        ctx: StageContext | None = None,
    ) -> BlockAnalysis:
        """Run the pipeline on one block for one dataset window."""
        pipeline = pipeline or self.pipeline
        ctx = ctx if ctx is not None else StageContext()
        recon = self.reconstruct_block(spec, ds, pipeline, ctx=ctx)
        return pipeline.analyze_tail(recon, ctx)

    def analyze(
        self,
        ds: DatasetSpec | str,
        *,
        blocks: list[BlockSpec] | None = None,
        pipeline: BlockPipeline | None = None,
        engine: CampaignEngine | None = None,
    ) -> DatasetResult:
        """Analyze a whole dataset (all world blocks unless given).

        Blocks are dispatched through ``engine`` (the ``REPRO_WORKERS``
        default when not given, closed again before returning) as one
        :class:`BlockAnalysisJob` per block; firewalled blocks
        short-circuit inside the job.  The engine's
        :class:`~repro.runtime.engine.RunMetrics` lands on the returned
        result.
        """
        ds = dataset(ds) if isinstance(ds, str) else ds
        blocks = list(self.world.blocks) if blocks is None else blocks
        job = BlockAnalysisJob(
            world=self.world,
            ds=ds,
            pipeline=pipeline or self.pipeline,
            observer_style=self.observer_style,
        )
        with engine_scope(engine) as engine:
            run = engine.run(job, blocks, label=f"analyze:{ds.name}")
        result = DatasetResult(spec=ds, world=self.world, metrics=run.metrics)
        if isinstance(run.results, SpilledResults):
            # sharded run: results live on disk — expose a lazy view
            # instead of rehydrating the whole world into one dict
            # (jobs key results by cidr, so keys come from the specs)
            keys = [spec.block.cidr for spec in blocks]
            result.analyses = SpilledAnalyses(keys, run.results)
            result.block_specs = dict(zip(keys, blocks))
            return result
        analyses: dict[str, BlockAnalysis] = {}
        for spec, block_result in zip(blocks, run.results):
            analyses[block_result.key] = block_result.analysis
            result.block_specs[block_result.key] = spec
        result.analyses = analyses
        return result

    # -- block statistics ----------------------------------------------------
    def availability(self, spec: BlockSpec, start_s: float, duration_s: float) -> float:
        """Long-run availability A: mean activity over E(b) and time (§3.2.3)."""
        truth = self.truth(spec, start_s, duration_s)
        lo = truth.column_of(start_s)
        hi = truth.column_of(start_s + duration_s - 1.0) + 1
        window = truth.active[:, lo:hi]
        return float(window.mean()) if window.size else 0.0


def _observer_stream(observer: str) -> int:
    """Stable small integer per observer name for seeding."""
    return sum(ord(ch) << (8 * i) for i, ch in enumerate(observer[:4]))


def _lane_rng(spec: BlockSpec, observer: str) -> np.random.Generator:
    """The loss-draw stream of one (block, observer) pair."""
    return np.random.default_rng([spec.seed, 0xC, _observer_stream(observer)])


def _start_cursor(spec: BlockSpec, observer: str, n_addresses: int) -> int:
    """Each observer starts its cursor at an independent position."""
    rng = np.random.default_rng([spec.seed, 0xD, _observer_stream(observer)])
    return int(rng.integers(n_addresses))


def reconstruct_logs(
    pipeline: BlockPipeline,
    logs: list[ObservationSeries],
    addresses: np.ndarray,
    start_s: float,
    ds: DatasetSpec,
    ctx: StageContext,
) -> Reconstruction:
    """Repair, combine and reconstruct one block's probe logs."""
    grid = start_s + np.arange(int(ds.duration_s / ROUND_SECONDS)) * ROUND_SECONDS
    per_observer = pipeline.stage_repair(logs, ctx)
    merged = pipeline.stage_combine(per_observer, ctx)
    return pipeline.stage_reconstruct(merged, addresses, grid, ctx)


def batches_lanes(ds: DatasetSpec, observer_style: str, n_blocks: int) -> bool:
    """Whether :func:`simulate_chunk` probes a chunk of ``n_blocks``.

    It does for the adaptive Trinocular sites with at least
    :data:`MIN_BATCH_LANES` lanes; other chunks (the survey, the §2.8
    prober, the bayesian style, small chunks) are simulated per block.
    """
    return (
        observer_style == "adaptive"
        and all(name in TRINOCULAR_SITES for name in ds.observers)
        and n_blocks * len(ds.observers) >= MIN_BATCH_LANES
    )


@dataclass
class ChunkSimulation:
    """Truth and probe logs of a chunk of responsive blocks.

    Built by :func:`simulate_chunk`.  Block ``j``'s logs are assembled
    by :meth:`logs` on demand, so a caller that reconstructs block by
    block holds one block's logs at a time.  Costs are per block:
    ``truth_cost`` as measured, ``probe_cost`` the block's share of the
    chunk's probing by probe count.
    """

    ds: DatasetSpec
    start_s: float
    lanes: ProbeLogs  # block-major: block j's observers are lanes j*n .. j*n+n-1
    addresses: list[np.ndarray]  # E(b) per block
    truth_cells: list[int]
    truth_cost: list[StageShare]
    probe_cost: list[StageShare]
    n_probes: list[int]

    def logs(self, j: int) -> list[ObservationSeries]:
        """Block ``j``'s probe logs, in the dataset's observer order."""
        n = len(self.ds.observers)
        end_s = self.start_s + self.ds.duration_s
        return [self.lanes[j * n + k].slice_time(self.start_s, end_s) for k in range(n)]


def simulate_chunk(
    world: WorldModel, specs: Sequence[BlockSpec], ds: DatasetSpec
) -> ChunkSimulation:
    """Generate truth and probe every site observer of a chunk of blocks.

    Each block's truth is generated through :meth:`WorldModel.truth`
    and only the window's columns are kept (packed, in probe order);
    every (block, observer) lane of the chunk then runs in one
    :func:`~repro.net.prober.observe_batch`, on the streams
    :meth:`DatasetBuilder.observe` uses, so every log is bit-identical
    to the per-block one.
    """
    start = ds.start_s(world.epoch)
    end = start + ds.duration_s
    targets: list[ProbeTarget] = []
    truth_cost: list[StageShare] = []
    truth_cells: list[int] = []
    for spec in specs:
        meter = StageMeter()
        truth = world.truth(spec, end)
        order = probe_order(truth.n_addresses, spec.seed)
        targets.append(ProbeTarget.of(truth, order, start, end))
        truth_cost.append(meter.shares(1))
        truth_cells.append(truth.active.size)

    meter = StageMeter()
    observers = [
        TrinocularObserver(name, phase_offset_s=TRINOCULAR_SITES[name])
        for name in ds.observers
    ]
    logs = observe_batch(
        [
            ProbeLane(
                observer=obs,
                target=target,
                loss=world.loss_model(spec, obs.name),
                rng=_lane_rng(spec, obs.name),
                start_s=start,
                duration_s=ds.duration_s,
                start_cursor=_start_cursor(spec, obs.name, target.m),
            )
            for spec, target in zip(specs, targets)
            for obs in observers
        ]
    )
    n = len(observers)
    n_probes = [
        sum(logs.n_probes(j * n + k) for k in range(n)) for j in range(len(specs))
    ]
    return ChunkSimulation(
        ds=ds,
        start_s=start,
        lanes=logs,
        addresses=[target.addresses for target in targets],
        truth_cells=truth_cells,
        truth_cost=truth_cost,
        probe_cost=meter.split(n_probes),
        n_probes=n_probes,
    )


def block_record(
    spec: BlockSpec,
    analysis: BlockAnalysis,
    *,
    responsive: bool | None = None,
    change_sensitive: bool | None = None,
) -> BlockRecord:
    """The aggregation record for one analyzed block.

    ``responsive``/``change_sensitive`` override the analysis's own
    classification — campaign runs label blocks by their *baseline*
    verdict while the change days come from the detection window.
    """
    return BlockRecord(
        geo=spec.geo,
        responsive=(
            analysis.classification.responsive if responsive is None else responsive
        ),
        change_sensitive=(
            analysis.is_change_sensitive
            if change_sensitive is None
            else change_sensitive
        ),
        downward_days=analysis.downward_change_days(),
        upward_days=analysis.upward_change_days(),
    )


def unresponsive_analysis() -> BlockAnalysis:
    """A constant analysis object for blocks that never answer probes."""
    from ..core.reconstruction import Reconstruction
    from ..core.sensitivity import BlockClassification
    from ..timeseries.series import TimeSeries

    empty = TimeSeries(np.array([]), np.array([]))
    return BlockAnalysis(
        reconstruction=Reconstruction(
            counts=empty,
            complete_time_s=float("nan"),
            eb_size=0,
            observed_addresses=np.array([], dtype=np.int16),
        ),
        classification=BlockClassification(responsive=False, diurnal=None, swing=None),
        trend=None,
        changes=None,
    )
