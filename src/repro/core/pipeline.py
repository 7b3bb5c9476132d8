"""The per-block end-to-end pipeline (paper Table 1).

``probe logs -> 1-loss repair -> merge -> reconstruction ->
change-sensitivity -> STL trend -> CUSUM changes``.

:class:`BlockPipeline` is the public entry point a downstream user calls
with per-observer probe logs; every stage is configurable and all stage
outputs are kept on the result for inspection (the example scripts and
the Figure 1 experiment print them).

Each stage is individually invokable (``stage_repair`` ...
``stage_detect``) and reports wall time, input/output sizes, and skip
reasons into an optional :class:`~repro.core.stages.StageContext`;
:meth:`BlockPipeline.analyze` is the canonical composition of the six
stages and the runtime's :class:`~repro.runtime.engine.CampaignEngine`
aggregates the per-stage records across blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..net.observations import ObservationSeries, merge_observations
from ..net.usage import ROUND_SECONDS
from ..timeseries.detect import zscore_rows
from ..timeseries.series import BlockMatrix, TimeSeries, group_block_matrices
from .changes import ChangeDetector, ChangeReport
from .outages import OutageDetector, corroborate_changes
from .reconstruction import Reconstruction, reconstruct
from .repair import one_loss_repair
from .sensitivity import BlockClassification, SensitivityClassifier
from .stages import StageContext, StageMeter
from .trend import MIN_ABS_SCALE, MIN_REL_SCALE, TrendExtractor, TrendResult

__all__ = ["BlockAnalysis", "BlockPipeline"]


@dataclass(frozen=True)
class BlockAnalysis:
    """Everything the pipeline learned about one block."""

    reconstruction: Reconstruction
    classification: BlockClassification
    trend: TrendResult | None
    changes: ChangeReport | None

    @property
    def is_change_sensitive(self) -> bool:
        return self.classification.is_change_sensitive

    @property
    def counts(self) -> TimeSeries:
        return self.reconstruction.counts

    def downward_change_days(self) -> tuple[int, ...]:
        """UTC days with human-candidate downward changes."""
        if self.changes is None:
            return ()
        return tuple(e.day for e in self.changes.human_candidates if e.is_downward)

    def upward_change_days(self) -> tuple[int, ...]:
        if self.changes is None:
            return ()
        return tuple(e.day for e in self.changes.human_candidates if not e.is_downward)


@dataclass(frozen=True)
class BlockPipeline:
    """Configured analysis pipeline for /24 blocks.

    Parameters
    ----------
    apply_repair:
        Run 1-loss repair on each observer's log before merging (§2.3).
    classifier, trend_extractor, detector:
        The three analysis stages; defaults follow the paper.
    detect_on_all:
        When False (the paper's behaviour) trend extraction and change
        detection run only on change-sensitive blocks; True forces them
        on every responsive block (useful for validation studies).
    corroborate_outages:
        Run the §2.6 cross-check: detect outages on the reconstructed
        counts and re-label overlapping change events as
        "outage-confirmed".  Off by default — the paired down/up filter
        already covers most cases; turn it on when the outage evidence
        should be explicit.
    sample_seconds:
        Grid step for the reconstructed count series.
    """

    apply_repair: bool = True
    classifier: SensitivityClassifier = field(default_factory=SensitivityClassifier)
    trend_extractor: TrendExtractor = field(default_factory=TrendExtractor)
    detector: ChangeDetector = field(default_factory=ChangeDetector)
    outage_detector: OutageDetector = field(default_factory=OutageDetector)
    detect_on_all: bool = False
    corroborate_outages: bool = False
    sample_seconds: float = ROUND_SECONDS

    # -- stages ------------------------------------------------------------
    # Each stage can be called on its own (validation studies poke at
    # intermediate products) and records itself into ``ctx`` when given.

    def stage_repair(
        self, per_observer: list[ObservationSeries], ctx: StageContext | None = None
    ) -> list[ObservationSeries]:
        """1-loss repair of each observer's probe log (§2.3)."""
        ctx = ctx if ctx is not None else StageContext()
        n_in = sum(len(s) for s in per_observer)
        if not self.apply_repair:
            ctx.skip("repair", "disabled", n_in=n_in)
            return per_observer
        with ctx.stage("repair", n_in=n_in) as active:
            repaired = [one_loss_repair(s) for s in per_observer]
            active.n_out = sum(len(s) for s in repaired)
        return repaired

    def stage_combine(
        self, per_observer: list[ObservationSeries], ctx: StageContext | None = None
    ) -> ObservationSeries:
        """Merge per-observer logs into one time-ordered stream (§2.4)."""
        ctx = ctx if ctx is not None else StageContext()
        with ctx.stage("combine", n_in=sum(len(s) for s in per_observer)) as active:
            merged = merge_observations(per_observer)
            active.n_out = len(merged)
        return merged

    def stage_reconstruct(
        self,
        merged: ObservationSeries,
        eb_addresses: np.ndarray,
        sample_times: np.ndarray | None = None,
        ctx: StageContext | None = None,
    ) -> Reconstruction:
        """Hold-last-state count reconstruction over E(b) (§2.3)."""
        ctx = ctx if ctx is not None else StageContext()
        with ctx.stage("reconstruct", n_in=len(merged)) as active:
            if sample_times is None:
                sample_times = self._default_grid(merged)
            recon = reconstruct(merged, eb_addresses, sample_times)
            active.n_out = len(recon.counts)
        return recon

    def stage_classify(
        self, recon: Reconstruction, ctx: StageContext | None = None
    ) -> BlockClassification:
        """Change-sensitivity funnel: responsive -> diurnal -> wide swing."""
        ctx = ctx if ctx is not None else StageContext()
        with ctx.stage("classify", n_in=len(recon.counts)) as active:
            classification = self.classifier.classify(recon.counts)
            active.n_out = int(classification.is_change_sensitive)
        return classification

    def stage_trend(
        self,
        recon: Reconstruction,
        classification: BlockClassification,
        ctx: StageContext | None = None,
    ) -> TrendResult | None:
        """STL trend extraction (§2.5) for blocks that pass the funnel."""
        ctx = ctx if ctx is not None else StageContext()
        n_in = len(recon.counts)
        if not self._should_detect(classification):
            reason = (
                "not-responsive"
                if not classification.responsive
                else "not-change-sensitive"
            )
            ctx.skip("trend", reason, n_in=n_in)
            return None
        with ctx.stage("trend", n_in=n_in) as active:
            try:
                trend = self.trend_extractor.extract(recon.counts)
            except ValueError:
                trend = None
            active.n_out = len(trend.trend) if trend is not None else 0
        return trend

    def stage_detect(
        self,
        recon: Reconstruction,
        trend: TrendResult | None,
        ctx: StageContext | None = None,
    ) -> ChangeReport | None:
        """CUSUM change detection (§2.6) on the normalized trend."""
        ctx = ctx if ctx is not None else StageContext()
        if trend is None:
            ctx.skip("detect", "no-trend")
            return None
        with ctx.stage("detect", n_in=len(trend.normalized_trend)) as active:
            changes = self.detector.detect(trend.normalized_trend)
            if self.corroborate_outages and changes is not None:
                outages = self.outage_detector.detect(recon.counts)
                changes = ChangeReport(
                    events=corroborate_changes(changes.events, outages),
                    cusum=changes.cusum,
                    normalized_trend=changes.normalized_trend,
                )
            active.n_out = len(changes.events) if changes is not None else 0
        return changes

    # -- composition -------------------------------------------------------
    def analyze(
        self,
        per_observer: list[ObservationSeries],
        eb_addresses: np.ndarray,
        *,
        sample_times: np.ndarray | None = None,
        ctx: StageContext | None = None,
    ) -> BlockAnalysis:
        """Run the full pipeline over one block's per-observer probe logs."""
        ctx = ctx if ctx is not None else StageContext()
        per_observer = self.stage_repair(per_observer, ctx)
        merged = self.stage_combine(per_observer, ctx)
        recon = self.stage_reconstruct(merged, eb_addresses, sample_times, ctx)
        return self.analyze_tail(recon, ctx)

    def analyze_tail(
        self, recon: Reconstruction, ctx: StageContext | None = None
    ) -> BlockAnalysis:
        """Run the analysis stages (classify/trend/detect) on a reconstruction."""
        ctx = ctx if ctx is not None else StageContext()
        classification = self.stage_classify(recon, ctx)
        trend = self.stage_trend(recon, classification, ctx)
        changes = self.stage_detect(recon, trend, ctx)
        return BlockAnalysis(
            reconstruction=recon,
            classification=classification,
            trend=trend,
            changes=changes,
        )

    def analyze_tail_batch(
        self,
        recons: Sequence[Reconstruction],
        ctxs: Sequence[StageContext] | None = None,
    ) -> list[BlockAnalysis]:
        """Batched classify/trend/detect across many reconstructions.

        Blocks are grouped by shared sample grid into :class:`BlockMatrix`
        batches; every analysis stage then runs once per batch through the
        batched kernels, which are per-row bit-identical to the scalar
        path, so each returned :class:`BlockAnalysis` equals
        ``analyze_tail(recons[i])`` byte for byte.  Per-block stage records
        carry the block's true input/output sizes and an even share of the
        batch wall time (``batch_wall / B``), keeping aggregated stage
        totals, skip counters, and traced span accounting shaped exactly
        like the per-block path's.
        """
        if ctxs is None:
            ctxs = [StageContext() for _ in recons]
        if len(ctxs) != len(recons):
            raise ValueError("need one StageContext per reconstruction")
        analyses: list[BlockAnalysis | None] = [None] * len(recons)
        for indices, matrix in group_block_matrices([r.counts for r in recons]):
            n_batch = len(indices)
            meter = StageMeter()
            classifications = self.classifier.classify_batch(matrix)
            share = meter.shares(n_batch)
            for pos, i in enumerate(indices):
                ctxs[i].record_batched(
                    "classify",
                    wall_s=share.wall_s,
                    n_in=matrix.n_samples,
                    n_out=int(classifications[pos].is_change_sensitive),
                    n_batch=n_batch,
                    cpu_s=share.cpu_s,
                )

            selected = [
                pos
                for pos in range(n_batch)
                if self._should_detect(classifications[pos])
            ]
            selected_set = set(selected)
            trends: list[TrendResult | None] = [None] * n_batch
            for pos in range(n_batch):
                if pos in selected_set:
                    continue
                reason = (
                    "not-responsive"
                    if not classifications[pos].responsive
                    else "not-change-sensitive"
                )
                ctxs[indices[pos]].skip("trend", reason, n_in=matrix.n_samples)
            if selected:
                meter = StageMeter()
                extracted = self.trend_extractor.extract_batch(matrix.take(selected))
                share = meter.shares(len(selected))
                for k, pos in enumerate(selected):
                    trends[pos] = extracted[k]
                    ctxs[indices[pos]].record_batched(
                        "trend",
                        wall_s=share.wall_s,
                        n_in=matrix.n_samples,
                        n_out=len(extracted[k].trend) if extracted[k] is not None else 0,
                        n_batch=len(selected),
                        cpu_s=share.cpu_s,
                    )

            with_trend = [pos for pos in selected if trends[pos] is not None]
            changes: list[ChangeReport | None] = [None] * n_batch
            for pos in range(n_batch):
                if trends[pos] is None:
                    ctxs[indices[pos]].skip("detect", "no-trend")
            if with_trend:
                meter = StageMeter()
                stacked = np.stack([trends[pos].trend.values for pos in with_trend])
                normalized = BlockMatrix(
                    trends[with_trend[0]].trend.times,
                    zscore_rows(
                        stacked,
                        min_abs_scale=MIN_ABS_SCALE,
                        min_rel_scale=MIN_REL_SCALE,
                    ),
                )
                reports = self.detector.detect_batch(normalized)
                if self.corroborate_outages:
                    reports = [
                        ChangeReport(
                            events=corroborate_changes(
                                report.events,
                                self.outage_detector.detect(
                                    recons[indices[pos]].counts
                                ),
                            ),
                            cusum=report.cusum,
                            normalized_trend=report.normalized_trend,
                        )
                        for pos, report in zip(with_trend, reports)
                    ]
                share = meter.shares(len(with_trend))
                for k, pos in enumerate(with_trend):
                    changes[pos] = reports[k]
                    ctxs[indices[pos]].record_batched(
                        "detect",
                        wall_s=share.wall_s,
                        n_in=len(reports[k].normalized_trend),
                        n_out=len(reports[k].events),
                        n_batch=len(with_trend),
                        cpu_s=share.cpu_s,
                    )

            for pos, i in enumerate(indices):
                analyses[i] = BlockAnalysis(
                    reconstruction=recons[i],
                    classification=classifications[pos],
                    trend=trends[pos],
                    changes=changes[pos],
                )
        return analyses  # every index was covered by exactly one grid group

    def _should_detect(self, classification: BlockClassification) -> bool:
        return classification.is_change_sensitive or (
            self.detect_on_all and classification.responsive
        )

    def _default_grid(self, merged: ObservationSeries) -> np.ndarray:
        if merged.is_empty:
            return np.array([], dtype=np.float64)
        start = float(merged.times[0]) - (float(merged.times[0]) % self.sample_seconds)
        stop = float(merged.times[-1])
        # A single-observation merge (or a degenerate log) can make the
        # span zero or negative; clamp so the grid always has at least one
        # step and always reaches past the last observation.
        span = max(stop - start, 0.0)
        n = max(int(np.ceil(span / self.sample_seconds)), 1)
        grid = start + np.arange(n + 1) * self.sample_seconds
        if grid[-1] < stop:  # float rounding on long windows
            grid = np.append(grid, grid[-1] + self.sample_seconds)
        return grid
