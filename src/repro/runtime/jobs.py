"""Picklable per-block task callables dispatched by the engine.

A job is a frozen dataclass whose fields are the deterministic inputs
(world, dataset window, pipeline config).  Frozen dataclasses pickle
cheaply, so the same job object is shipped once per chunk to pool
workers, and a job keeps no state between calls, which keeps results
byte-identical between serial and parallel execution.

The engine dispatches :class:`BlockAnalysisJob` through
:meth:`BlockAnalysisJob.map_chunk`, which analyses a whole chunk of
blocks in one call: :func:`~repro.datasets.builder.simulate_chunk` (the
one simulate path) probes the chunk's observer lanes, in one lane-kernel
call for the adaptive Trinocular sites, each block is repaired, combined
and reconstructed (straight from the lane kernel's rounds by
:class:`~repro.core.front_half.LaneBlock` when the kernel probed the
chunk), and the analysis tail — classify, trend, detect — runs over all
of the chunk's reconstructions at once through the batched columnar
kernels.  ``__call__`` stays the per-block oracle: it runs one block
through the dataset builder's ``analyze_block``, a one-block simulation
whose logs take the log route and the scalar tail.

Jobs are executor-agnostic: the process pool
(:class:`~repro.runtime.executors.PoolExecutor`) pickles the job once
per map and workers receive an unpickled copy.  Lint REP003 forbids
``*Job`` classes from capturing lambdas, nested functions or open
handles: a job carries only plain data, so the same pickled job works
on every executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..core.front_half import LaneBlock, SampleGrid
from ..core.pipeline import BlockPipeline
from ..core.reconstruction import Reconstruction
from ..core.stages import PIPELINE_STAGES, StageContext, StageMeter
from ..datasets.catalog import DatasetSpec
from ..net.world import BlockSpec, WorldModel
from ..obs.trace import annotate, get_tracer
from .cache import task_keyer
from .engine import BlockResult

if TYPE_CHECKING:  # datasets.builder composes over this package
    from ..datasets.builder import ChunkSimulation

__all__ = ["BlockAnalysisJob"]


@dataclass(frozen=True)
class BlockAnalysisJob:
    """Simulate a block's observers and run the Table 1 pipeline on it.

    Firewalled blocks (``responsive_by_design`` False) short-circuit to
    the constant unresponsive analysis with every stage recorded as
    skipped — they still count in the routed funnel, as in the paper's
    Table 2.
    """

    world: WorldModel
    ds: DatasetSpec
    pipeline: BlockPipeline
    observer_style: str = "adaptive"

    def cache_keyer(self) -> Callable[[BlockSpec], str | None]:
        """Content address of this job's result, per block: ``key(spec)``.

        Covers everything ``__call__`` derives its output from: world
        identity, dataset window + observers, pipeline parameters, the
        probing algorithm, and the block spec itself (seed, kind,
        events, loss).  The job-invariant part is hashed once, when this
        is called (:func:`~repro.runtime.cache.task_keyer`); the engine
        calls it once per run.  A key is None (uncacheable) if any of it
        fails to tokenize — the engine then just computes as usual.
        """
        return task_keyer(
            "block-analysis",
            {
                "world": self.world,
                "ds": self.ds,
                "pipeline": self.pipeline,
                "observer_style": self.observer_style,
            },
            "spec",
        )

    def __call__(self, spec: BlockSpec) -> BlockResult:
        # Imported here: datasets.builder composes over this package, so
        # a module-level import would be circular.
        from ..datasets.builder import DatasetBuilder

        # label the engine's per-task "block" span (no-op when untraced)
        annotate(block=spec.block.cidr, dataset=self.ds.name)
        if not spec.responsive_by_design:
            return _unresponsive_result(spec)
        ctx = StageContext()
        builder = DatasetBuilder(
            self.world, self.pipeline, observer_style=self.observer_style
        )
        analysis = builder.analyze_block(spec, self.ds, ctx=ctx)
        return BlockResult(
            key=spec.block.cidr, analysis=analysis, stages=tuple(ctx.records)
        )

    def map_chunk(self, specs: tuple[BlockSpec, ...]) -> tuple[BlockResult, ...]:
        """Analyse a chunk of blocks end to end; same results as ``__call__``.

        :func:`~repro.datasets.builder.simulate_chunk` generates every
        responsive block's truth and probes its observer lanes (in a
        ``chunk`` span): all lanes of the chunk together in the lane
        kernel when :func:`~repro.datasets.builder.batches_lanes` accepts
        the dataset, else block by block, lane by lane (the survey, the
        §2.8 prober, the bayesian style), so that only one block's probe
        logs are live at a time.  Each block is then repaired, combined
        and reconstructed in its own ``block`` span (see
        :meth:`_reconstruct`), with the firewalled short-circuit, funnel
        counters and ``truth``/``probe`` stage records of ``__call__``;
        the lane kernel's probing time is split across the chunk's
        blocks by probe count.  The tail then runs
        once over the chunk's reconstructions through
        :meth:`~repro.core.pipeline.BlockPipeline.analyze_tail_batch` (in
        one ``batch`` span; per-row bit-identical to the scalar stages),
        and each block's tail records follow its front-half records.
        """
        from ..datasets.builder import batches_lanes, sample_grid, simulate_chunk

        tracer = get_tracer()
        out: dict[int, BlockResult] = {}
        live: list[int] = []
        for i, spec in enumerate(specs):
            if spec.responsive_by_design:
                live.append(i)
                continue
            with tracer.span("block"):
                annotate(block=spec.block.cidr, dataset=self.ds.name)
                out[i] = _unresponsive_result(spec)
        responsive = [specs[i] for i in live]
        step = 1  # probed lane by lane: one block's probe logs live at a time
        if batches_lanes(self.ds, self.observer_style):
            step = max(len(responsive), 1)
        recons: list[Reconstruction] = []
        ctxs: list[StageContext] = []
        # the chunk's one window: every block is sampled on the same grid
        grid = SampleGrid.of(sample_grid(self.ds.start_s(self.world.epoch), self.ds))
        for lo in range(0, len(responsive), step):
            group = responsive[lo : lo + step]
            with tracer.span("chunk", attrs={"n_blocks": len(group)}):
                sim = simulate_chunk(self.world, group, self.ds, self.observer_style)
            for j, spec in enumerate(group):
                with tracer.span("block"):
                    annotate(block=spec.block.cidr, dataset=self.ds.name)
                    ctx = StageContext()
                    recon = self._reconstruct(sim, j, ctx, grid)
                recons.append(_canonical_reconstruction(recon))
                ctxs.append(ctx)
            del sim  # the probe outputs must not stay live through the tail
        with tracer.span("batch", attrs={"n_blocks": len(recons)}):
            analyses = self.pipeline.analyze_tail_batch(recons, ctxs)
        for i, spec, analysis, ctx in zip(live, responsive, analyses, ctxs):
            out[i] = BlockResult(
                key=spec.block.cidr, analysis=analysis, stages=tuple(ctx.records)
            )
        return tuple(out[i] for i in range(len(specs)))

    def _reconstruct(
        self, sim: ChunkSimulation, j: int, ctx: StageContext, grid: SampleGrid | None
    ) -> Reconstruction:
        """Block ``j`` of a simulated chunk, recorded like the per-block path.

        Lanes the kernel resolved go straight from their rounds to the
        reconstruction on the chunk's sample ``grid``
        (:class:`~repro.core.front_half.LaneBlock`); a block whose lanes
        hold plain logs, or whose probe or grid times are not whole
        seconds (``grid`` None), takes the per-block log route.
        """
        from ..datasets.builder import reconstruct_logs

        # resolving the lanes (or assembling their logs) is probing work too
        meter = StageMeter()
        block = LaneBlock.of(sim.lanes, sim.lane_ids(j), sim.addresses[j], grid)
        logs = sim.logs(j) if block is None else []
        sim.record(j, ctx, meter.shares(1))
        if block is None:
            return reconstruct_logs(
                self.pipeline, logs, sim.addresses[j], sim.start_s, self.ds, ctx
            )
        return block.reconstruct(ctx, repair=self.pipeline.apply_repair)


def _canonical_dtype_view(arr: np.ndarray) -> np.ndarray:
    """Re-view an array onto the process-canonical dtype singleton.

    Unpickled arrays carry a dtype *instance* distinct from numpy's
    interned singleton, and ufunc results inherit whichever instance
    their input held.  In a pool worker the job's world arrives
    unpickled, so :meth:`BlockAnalysisJob.map_chunk` re-views every
    reconstruction before the tail: left alone, the tail's output graph
    could mix both objects and its pickle bytes would differ from the
    serial path's — same values, different memo structure.  Viewing onto
    ``arr.dtype.type`` (which numpy resolves to the singleton) restores
    one dtype object per graph.
    """
    return arr.view(arr.dtype.type)


def _canonical_reconstruction(recon: Reconstruction) -> Reconstruction:
    from dataclasses import replace

    from ..timeseries.series import TimeSeries

    return replace(
        recon,
        counts=TimeSeries(
            _canonical_dtype_view(recon.counts.times),
            _canonical_dtype_view(recon.counts.values),
        ),
        observed_addresses=_canonical_dtype_view(recon.observed_addresses),
    )


def _unresponsive_result(spec: BlockSpec) -> BlockResult:
    """The short-circuit result of a block that never answers probes."""
    from ..datasets.builder import unresponsive_analysis

    ctx = StageContext()
    for name in PIPELINE_STAGES:
        ctx.skip(name, "firewalled")
    return BlockResult(
        key=spec.block.cidr,
        analysis=unresponsive_analysis(),
        stages=tuple(ctx.records),
    )
