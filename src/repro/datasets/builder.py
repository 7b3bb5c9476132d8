"""Streaming dataset builder: simulate, observe, analyze, tabulate.

The builder glues the substrate to the pipeline: for each block of a
:class:`~repro.net.world.WorldModel` it generates ground truth, runs the
requested observers over a dataset window (with per-path loss models),
and hands the probe logs to a :class:`~repro.core.pipeline.BlockPipeline`.
:func:`simulate_chunk` is the one simulate path: it does the simulation
for a whole chunk of blocks, probing every (block, observer) lane of the
chunk in one :func:`~repro.net.prober.observe_batch` when
:func:`batches_lanes` accepts the dataset (the adaptive Trinocular sites)
and lane by lane otherwise (the survey, the §2.8 prober, the bayesian
style).  The builder's per-block methods (:meth:`DatasetBuilder.observe_dataset`,
:meth:`DatasetBuilder.reconstruct_block`, the runtime's oracle) are its
one-block case; every lane is set up through :func:`setup_lane`.

The builder keeps no state between calls: every window is simulated from
its own start, over exactly the columns it asks for, so an answer never
depends on what was asked before.  Truth is window-local (a block's
activity on a day does not depend on the window observing it), so two
windows agree wherever they overlap, and two windows with the same start
give probe logs that share a prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..core.pipeline import BlockAnalysis, BlockPipeline
from ..core.aggregate import BlockRecord
from ..core.reconstruction import Reconstruction
from ..core.stages import StageContext, StageMeter, StageShare
from ..net.bayesian import BayesianTrinocularObserver
from ..net.loss import LossModel
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
    "LaneSetup",
    "SpilledAnalyses",
    "batches_lanes",
    "block_record",
    "reconstruct_logs",
    "sample_grid",
    "setup_lane",
    "simulate_chunk",
    "unresponsive_analysis",
]

#: Anything that probes one lane: a Trinocular site (adaptive or
#: bayesian), the survey, or the §2.8 additional prober.
Observer = TrinocularObserver | BayesianTrinocularObserver | SurveyObserver | AdditionalProber


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
        full belief-driven Trinocular of [71] (see repro.net.bayesian)."""
        self.world = world
        self.pipeline = pipeline or BlockPipeline()
        self.observer_style = observer_style
        self.observers = {
            name: _make_observer(name, observer_style) for name in TRINOCULAR_SITES
        }

    # -- simulation -------------------------------------------------------
    def truth(self, spec: BlockSpec, start_s: float, duration_s: float) -> BlockTruth:
        """Ground truth covering ``[start_s, start_s + duration_s)`` (the
        window's columns only; see :meth:`WorldModel.truth`)."""
        return self.world.truth(spec, duration_s, start_s=start_s)

    def observe(
        self,
        spec: BlockSpec,
        observer: str,
        start_s: float,
        duration_s: float,
        *,
        truth: BlockTruth,
    ) -> ObservationSeries:
        """One observer's probe log for exactly one window.

        ``truth`` is the block's :meth:`truth` for the same window."""
        lane = setup_lane(self.world, spec, observer, self.observer_style, truth.n_addresses)
        order = probe_order(truth.n_addresses, spec.seed)
        log = lane.observe(truth, order, start_s, duration_s)
        return log.slice_time(start_s, start_s + duration_s)

    def observe_dataset(
        self, spec: BlockSpec, ds: DatasetSpec | str, *, truth: BlockTruth | None = None
    ) -> list[ObservationSeries]:
        """All of a dataset's observer logs for one block, probed together.

        ``truth`` is the block's :meth:`truth` for the dataset window,
        when the caller has it already."""
        ds = dataset(ds) if isinstance(ds, str) else ds
        truths = None if truth is None else [truth]
        return simulate_chunk(self.world, [spec], ds, self.observer_style, truths).logs(0)

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
        repair, combine, reconstruct): a one-block :func:`simulate_chunk`
        whose logs take the log route (:func:`reconstruct_logs`).  The
        runtime gets the same reconstructions, byte for byte, from
        whole chunks, straight from the lane kernel's rounds
        (:class:`~repro.core.front_half.LaneBlock`); this per-block form
        is its oracle.
        """
        ds = dataset(ds) if isinstance(ds, str) else ds
        pipeline = pipeline or self.pipeline
        ctx = ctx if ctx is not None else StageContext()
        sim = simulate_chunk(self.world, [spec], ds, self.observer_style)
        meter = StageMeter()
        logs = sim.logs(0)
        sim.record(0, ctx, meter.shares(1))
        return reconstruct_logs(pipeline, logs, sim.addresses[0], sim.start_s, ds, ctx)

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
    def availability(
        self, spec: BlockSpec, start_s: float, duration_s: float, *, truth: BlockTruth
    ) -> float:
        """Long-run availability A: mean activity over E(b) and time (§3.2.3).

        ``truth`` is the block's :meth:`truth` for the same window."""
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


def _make_observer(name: str, style: str) -> Observer:
    """The observer object of a site, the survey or the §2.8 prober."""
    if name == "survey":
        return SurveyObserver(name="survey", phase_offset_s=0.0)
    if name == "a":
        return AdditionalProber(name="a", phase_offset_s=601.0)
    if style == "adaptive":
        return TrinocularObserver(name, phase_offset_s=TRINOCULAR_SITES[name])
    if style == "bayesian":
        return BayesianTrinocularObserver(name, phase_offset_s=TRINOCULAR_SITES[name])
    raise ValueError(f"unknown observer_style: {style!r}")


@dataclass(frozen=True)
class LaneSetup:
    """How one (block, observer) lane is probed: built by :func:`setup_lane`."""

    observer: Observer
    loss: LossModel
    rng: np.random.Generator
    start_cursor: int

    def observe(
        self, truth: BlockTruth, order: np.ndarray, start_s: float, duration_s: float
    ) -> ObservationSeries:
        """The lane's probe log from its observer's own ``observe``."""
        if isinstance(self.observer, SurveyObserver):  # scans E(b) in address order
            return self.observer.observe(
                truth, None, self.loss, self.rng, start_s=start_s, duration_s=duration_s
            )
        return self.observer.observe(
            truth,
            order,
            self.loss,
            self.rng,
            start_s=start_s,
            duration_s=duration_s,
            start_cursor=self.start_cursor,
        )

    def probe_lane(self, target: ProbeTarget, start_s: float, duration_s: float) -> ProbeLane:
        """The lane as :func:`~repro.net.prober.observe_batch` takes it."""
        assert isinstance(self.observer, TrinocularObserver)
        return ProbeLane(
            self.observer, target, self.loss, self.rng, start_s, duration_s, self.start_cursor
        )


def setup_lane(
    world: WorldModel, spec: BlockSpec, name: str, style: str, n_addresses: int
) -> LaneSetup:
    """The observer, loss model, loss-draw stream and start cursor of a lane.

    Only the Trinocular sites start their cursor at an independent
    position; the §2.8 prober starts at the first target.
    """
    cursor = _start_cursor(spec, name, n_addresses) if name in TRINOCULAR_SITES else 0
    return LaneSetup(
        observer=_make_observer(name, style),
        loss=world.loss_model(spec, name),
        rng=_lane_rng(spec, name),
        start_cursor=cursor,
    )


def sample_grid(start_s: float, ds: DatasetSpec) -> np.ndarray:
    """The round grid a block's count series is sampled on."""
    return start_s + np.arange(int(ds.duration_s / ROUND_SECONDS)) * ROUND_SECONDS


def reconstruct_logs(
    pipeline: BlockPipeline,
    logs: list[ObservationSeries],
    addresses: np.ndarray,
    start_s: float,
    ds: DatasetSpec,
    ctx: StageContext,
) -> Reconstruction:
    """Repair, combine and reconstruct one block's probe logs."""
    grid = sample_grid(start_s, ds)
    per_observer = pipeline.stage_repair(logs, ctx)
    merged = pipeline.stage_combine(per_observer, ctx)
    return pipeline.stage_reconstruct(merged, addresses, grid, ctx)


def batches_lanes(ds: DatasetSpec, observer_style: str) -> bool:
    """Whether :func:`simulate_chunk` probes a chunk's lanes in one batch.

    It does for the adaptive Trinocular sites; other chunks (the survey,
    the §2.8 prober, the bayesian style) are probed lane by lane.
    """
    return observer_style == "adaptive" and all(
        name in TRINOCULAR_SITES for name in ds.observers
    )


@dataclass
class ChunkSimulation:
    """Truth and probe logs of a chunk of responsive blocks.

    Built by :func:`simulate_chunk`.  From the lane kernel, lanes keep
    only their resolved rounds (``lanes.rounds(i)``), which
    :class:`~repro.core.front_half.LaneBlock` reconstructs from directly;
    :meth:`logs` assembles block ``j``'s logs on demand for the log
    route.  Lanes probed one by one hold their logs.  Costs are per block:
    ``truth_cost`` as measured, ``probe_cost`` as measured per lane or
    the block's share of the kernel's probing by probe count.
    """

    ds: DatasetSpec
    start_s: float
    lanes: ProbeLogs  # block-major: block j's observers are lanes j*n .. j*n+n-1
    addresses: list[np.ndarray]  # E(b) per block
    truth_cells: list[int]
    truth_cost: list[StageShare]
    probe_cost: list[StageShare]
    n_probes: list[int]

    def lane_ids(self, j: int) -> range:
        """Block ``j``'s lanes, in the dataset's observer order."""
        n = len(self.ds.observers)
        return range(j * n, (j + 1) * n)

    def logs(self, j: int) -> list[ObservationSeries]:
        """Block ``j``'s probe logs, in the dataset's observer order."""
        end_s = self.start_s + self.ds.duration_s
        return [self.lanes[i].slice_time(self.start_s, end_s) for i in self.lane_ids(j)]

    def record(self, j: int, ctx: StageContext, assembly: StageShare) -> None:
        """Record block ``j``'s ``truth`` and ``probe`` stages in ``ctx``.

        ``assembly`` is the probing work done for the block after the
        chunk was simulated (resolving its lanes or assembling its logs).
        """
        truth, probe = self.truth_cost[j], self.probe_cost[j]
        ctx.record_batched(
            "truth", wall_s=truth.wall_s, n_out=self.truth_cells[j], cpu_s=truth.cpu_s
        )
        ctx.record_batched(
            "probe",
            wall_s=probe.wall_s + assembly.wall_s,
            n_in=len(self.ds.observers),
            n_out=self.n_probes[j],
            n_batch=len(self.addresses),
            cpu_s=probe.cpu_s + assembly.cpu_s,
        )


def simulate_chunk(
    world: WorldModel,
    specs: Sequence[BlockSpec],
    ds: DatasetSpec,
    observer_style: str = "adaptive",
    truths: Iterable[BlockTruth] | None = None,
) -> ChunkSimulation:
    """Generate truth and probe every observer lane of a chunk of blocks.

    Each block's truth is generated once through :meth:`WorldModel.truth`
    (or drawn, one block at a time, from ``truths``: the caller's own
    truths for the window, in block order) and every lane is set up by
    :func:`setup_lane` on its own streams, so a block's logs do not
    depend on the chunk it is simulated in, nor on whether
    :meth:`DatasetBuilder.observe` probes one of its lanes alone.  When
    :func:`batches_lanes` accepts the dataset, only the window's truth
    columns are kept (packed, in probe order) and all lanes run in one
    :func:`~repro.net.prober.observe_batch`; otherwise each lane runs
    through its observer's own ``observe`` while its block's truth is
    live.
    """
    start = ds.start_s(world.epoch)
    end = start + ds.duration_s
    batched = batches_lanes(ds, observer_style)
    batch: list[ProbeLane] = []
    per_lane: list[ObservationSeries] = []
    addresses: list[np.ndarray] = []
    truth_cost: list[StageShare] = []
    truth_cells: list[int] = []
    lane_cost: list[StageShare] = []
    given = None if truths is None else iter(truths)
    for spec in specs:
        meter = StageMeter()
        truth = world.truth(spec, ds.duration_s, start_s=start) if given is None else next(given)
        order = probe_order(truth.n_addresses, spec.seed)
        lanes = [
            setup_lane(world, spec, name, observer_style, truth.n_addresses)
            for name in ds.observers
        ]
        if batched:
            target = ProbeTarget.of(truth, order, start, end)
            batch.extend(lane.probe_lane(target, start, ds.duration_s) for lane in lanes)
        truth_cost.append(meter.shares(1))
        truth_cells.append(truth.active.size)
        addresses.append(truth.addresses)
        if not batched:
            meter = StageMeter()
            per_lane.extend(lane.observe(truth, order, start, ds.duration_s) for lane in lanes)
            lane_cost.append(meter.shares(1))

    meter = StageMeter()
    logs = observe_batch(batch) if batched else ProbeLogs(per_lane)
    n = len(ds.observers)
    n_probes = [
        sum(logs.n_probes(j * n + k) for k in range(n)) for j in range(len(specs))
    ]
    return ChunkSimulation(
        ds=ds,
        start_s=start,
        lanes=logs,
        addresses=addresses,
        truth_cells=truth_cells,
        truth_cost=truth_cost,
        probe_cost=meter.split(n_probes) if batched else lane_cost,
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
