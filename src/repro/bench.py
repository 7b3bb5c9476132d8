"""Kernel micro-benchmarks: vectorized/batched kernels against their oracles.

Each section times a fast kernel against its scalar reference and
asserts byte-identity between the two before a time is recorded — a
speedup over a kernel that disagrees is meaningless.  The ``truth``
section instead times window-local truth against generating the same
blocks from the scenario epoch, asserting the window's columns agree.
``repro bench`` writes the measured sections into
``BENCH_kernels.json``, and is the only writer of that file; it then
exits 1 if a row's speedup is not above its :data:`SPEEDUP_FLOORS`
entry.
Whole-campaign throughput and peak memory are not measured here: that
is the repo benchmark's job (``perfbench/``), which runs every workload
in fresh processes and checks its outputs.

The ``cache_keys`` section times cache keying, not a kernel: each task's
whole input dict tokenized and hashed against the per-run keyer, with
every key asserted equal.

``measure_cusum_scaling`` exists because the first question these
numbers raised was "why is ``cusum_rows`` only ~1.2x batched?".  The
answer used to be "because ``detect_cusum_batch`` only hoisted NaN
forward-fill and looped per-row passes"; the row-parallel
``_cusum_pass_batch`` kernel replaced that loop (all rows' segments
advance together as 2-D reductions, Python work is O(alarms)), and the
sweep now shows the speedup growing with B (~1.5x at 16 to ~2x at 256)
instead of flat.  See docs/algorithms.md §14.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import sys
import time
from datetime import datetime
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "BENCH_FILE",
    "DEFAULT_SECTIONS",
    "SPEEDUP_FLOORS",
    "below_floor",
    "count_matrix_fixture",
    "measure_batched_kernels",
    "measure_cache_keys",
    "measure_cusum_scaling",
    "measure_front_half",
    "measure_kernels",
    "measure_prober_lanes",
    "measure_truth",
    "quarter_block_fixture",
    "run_sections",
    "write_sections",
]

BENCH_FILE = "BENCH_kernels.json"
DEFAULT_SECTIONS = (
    "kernels",
    "batched",
    "cusum_rows_scaling",
    "prober_lanes",
    "front_half",
    "truth",
    "cache_keys",
)

QUARTER_S = 84 * 86_400.0
BATCH_BLOCKS = 256
LANES_DATASET = "2020it89-match-ejnw"  # two weeks, four observers
FRONT_HALF_DATASET = "2020h1-ejnw"  # 26 weeks, four observers
FRONT_HALF_BLOCKS = 16  # responsive blocks: 64 lanes, one lane-kernel chunk
#: the front half's chunks: funnel-2w's two-week window at its width, and
#: the 26-week window
FRONT_HALF_ROWS = ((LANES_DATASET, 128), (FRONT_HALF_DATASET, FRONT_HALF_BLOCKS))
TRUTH_BLOCKS = 48  # responsive blocks per truth window
CACHE_KEY_BLOCKS = 300  # the funnel-2w benchmark world: 300 blocks of seed 20
CUSUM_BATCH_SIZES = (16, 64, 256, 1024)
PROBER_LANE_COUNTS = (4, 8, 16, 32, 64, 256, 1024)
#: rows of at most this many lanes also time one call per lane (a
#: one-lane call costs ~20 ms per two-week lane, ~0.2 s per 26-week lane)
ONE_LANE_MAX = 16
#: campaign-h1's detection chunk: 28 blocks x 4 observers over 26 weeks,
#: next to one block's four lanes
LONG_WINDOW_LANES = (4, 112)
#: the speedup each row must beat, loose so that noisy shared runners
#: pass (the one-lane prober has none: it costs about what its oracle does)
SPEEDUP_FLOORS: dict[str, dict[str, float]] = {
    "kernels": {"full_scan_durations": 1.5, "cusum": 1.5},
    "batched": {"trend": 3.0, "classify": 1.5, "cusum_rows": 0.8},
    "cusum_rows_scaling": {str(b): 0.6 for b in CUSUM_BATCH_SIZES},
    "prober_lanes": {"4": 1.5, f"{FRONT_HALF_DATASET}:4": 1.5},
}


# ---------------------------------------------------------------------------
# fixtures (the quarter fixture is shared with benchmarks/test_microbench.py)
# ---------------------------------------------------------------------------
def quarter_block_fixture():
    """One block's quarter-length truth, probe order, and observation log."""
    from .net.events import Calendar
    from .net.prober import TrinocularObserver, probe_order
    from .net.usage import WorkplaceUsage, round_grid

    calendar = Calendar(epoch=datetime(2020, 1, 1), tz_hours=0.0)
    usage = WorkplaceUsage(n_desktops=60, n_servers=2)
    truth = usage.generate(5, round_grid(QUARTER_S), calendar)
    order = probe_order(truth.n_addresses, 5)
    log = TrinocularObserver("e").observe(truth, order, rng=np.random.default_rng(6))
    return truth, order, log


def count_matrix_fixture(n_blocks: int = BATCH_BLOCKS):
    """``n_blocks`` plausible two-week count series sharing one round grid."""
    from .timeseries.series import BlockMatrix, TimeSeries

    rng = np.random.default_rng(17)
    n = int(14 * 86_400.0 / 660.0)  # two weeks of 11-minute rounds
    times = np.arange(n) * 660.0
    series = []
    for _ in range(n_blocks):
        level = rng.uniform(8.0, 60.0)
        amp = rng.uniform(0.1, 0.5) * level
        values = level + amp * np.sin(2 * np.pi * times / 86_400.0)
        values += rng.normal(0.0, 0.05 * level, n)
        series.append(TimeSeries(times, values))
    return series, BlockMatrix.from_series(series)


def _best_of(fn: Callable[..., Any], *args: Any, repeats: int = 3, **kwargs: Any):
    """(best wall seconds, last result) over ``repeats`` calls."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best, result


# ---------------------------------------------------------------------------
# measurement cores
# ---------------------------------------------------------------------------
def measure_kernels(quarter_block=None) -> dict[str, dict[str, float]]:
    """Vectorized-vs-reference speedups on the quarter fixture.

    ``prober`` times one lane through the lane kernel
    (``TrinocularObserver.observe``, a one-lane ``observe_batch``)
    against the scalar ``observe_reference``; ``full_scan_durations``
    and ``cusum`` time the vectorized kernels against their oracles.
    """
    from .core.reconstruction import full_scan_durations, full_scan_durations_reference
    from .net.prober import TrinocularObserver
    from .timeseries.detect import detect_cusum, detect_cusum_reference

    truth, order, log = quarter_block or quarter_block_fixture()
    obs = TrinocularObserver("e")

    fast_s, fast_log = _best_of(
        lambda: obs.observe(truth, order, rng=np.random.default_rng(1))
    )
    ref_s, ref_log = _best_of(
        lambda: obs.observe_reference(truth, order, rng=np.random.default_rng(1))
    )
    for field in ("times", "addresses", "results"):
        assert np.array_equal(getattr(fast_log, field), getattr(ref_log, field))
    prober = {"vectorized_s": fast_s, "reference_s": ref_s, "speedup": ref_s / fast_s}

    fast_s, fast_d = _best_of(full_scan_durations, log, truth.addresses)
    ref_s, ref_d = _best_of(full_scan_durations_reference, log, truth.addresses)
    assert np.array_equal(fast_d, ref_d)
    recon = {"vectorized_s": fast_s, "reference_s": ref_s, "speedup": ref_s / fast_s}

    # the pipeline's shape: a long z-scored trend with a few level shifts
    rng = np.random.default_rng(3)
    steps = np.repeat([0.0, -3.0, -0.5, 2.5, 0.0], 10_000)
    y = steps + rng.normal(0.0, 0.1, steps.size)
    fast_s, fast_c = _best_of(detect_cusum, y, 1.0, 0.0055)
    ref_s, ref_c = _best_of(detect_cusum_reference, y, 1.0, 0.0055)
    assert fast_c.alarms == ref_c.alarms
    cusum = {"vectorized_s": fast_s, "reference_s": ref_s, "speedup": ref_s / fast_s}

    return {"prober": prober, "full_scan_durations": recon, "cusum": cusum}


def measure_batched_kernels(count_matrix=None) -> dict[str, dict[str, float]]:
    """Batched-vs-scalar-loop wall times over the 256-block batch."""
    from .core.sensitivity import SensitivityClassifier
    from .core.trend import TrendExtractor
    from .timeseries.detect import detect_cusum, detect_cusum_batch, zscore_rows
    from .timeseries.series import BlockMatrix

    series, matrix = count_matrix or count_matrix_fixture()
    out: dict[str, dict[str, float]] = {}

    extractor = TrendExtractor()
    batch_s, batch_trends = _best_of(extractor.extract_batch, matrix)
    loop_s, loop_trends = _best_of(lambda: [extractor.extract(s) for s in series])
    for b, l in zip(batch_trends, loop_trends):
        assert pickle.dumps(b) == pickle.dumps(l)
    out["trend"] = {"batched_s": batch_s, "scalar_s": loop_s, "speedup": loop_s / batch_s}

    classifier = SensitivityClassifier()
    batch_s, batch_cls = _best_of(classifier.classify_batch, matrix)
    loop_s, loop_cls = _best_of(lambda: [classifier.classify(s) for s in series])
    for b, l in zip(batch_cls, loop_cls):
        assert pickle.dumps(b) == pickle.dumps(l)
    out["classify"] = {
        "batched_s": batch_s,
        "scalar_s": loop_s,
        "speedup": loop_s / batch_s,
    }

    trends = BlockMatrix(
        batch_trends[0].trend.times,
        zscore_rows(
            np.stack([t.trend.values for t in batch_trends]),
            min_abs_scale=0.5,
            min_rel_scale=0.02,
        ),
    )
    batch_s, batch_cusum = _best_of(detect_cusum_batch, trends.values, 1.0, 0.0055)
    loop_s, loop_cusum = _best_of(
        lambda: [detect_cusum(row, 1.0, 0.0055) for row in trends.values]
    )
    for b, l in zip(batch_cusum, loop_cusum):
        assert pickle.dumps(b) == pickle.dumps(l)
    out["cusum_rows"] = {
        "batched_s": batch_s,
        "scalar_s": loop_s,
        "speedup": loop_s / batch_s,
    }
    return out


def measure_cusum_scaling(
    batch_sizes: Sequence[int] = CUSUM_BATCH_SIZES,
) -> dict[str, dict[str, float]]:
    """``cusum_rows`` batched-vs-loop speedup across batch sizes.

    Does the batched speedup grow with B (per-call overhead amortised)
    or stay flat (a per-row loop inside the batch)?  Results are keyed
    by B so the file records the whole curve.
    """
    from .timeseries.detect import detect_cusum, detect_cusum_batch, zscore_rows

    rng = np.random.default_rng(23)
    n = int(14 * 86_400.0 / 660.0)
    out: dict[str, dict[str, float]] = {}
    for b in batch_sizes:
        base = np.repeat(
            rng.uniform(-0.5, 0.5, (b, (n + 5) // 6)), 6, axis=1
        )[:, :n]
        rows = zscore_rows(
            base + rng.normal(0.0, 0.1, (b, n)),
            min_abs_scale=0.5,
            min_rel_scale=0.02,
        )
        batch_s, batch_res = _best_of(detect_cusum_batch, rows, 1.0, 0.0055)
        loop_s, loop_res = _best_of(
            lambda r=rows: [detect_cusum(row, 1.0, 0.0055) for row in r]
        )
        for x, y in zip(batch_res, loop_res):
            assert pickle.dumps(x) == pickle.dumps(y)
        out[str(b)] = {
            "batched_s": batch_s,
            "scalar_s": loop_s,
            "speedup": loop_s / batch_s,
            "rows_per_sec_batched": b / batch_s if batch_s > 0 else 0.0,
        }
    return out


def measure_prober_lanes(
    lane_counts: Sequence[int] = PROBER_LANE_COUNTS,
) -> dict[str, dict[str, float]]:
    """What batching lanes buys: ``L`` one-lane calls against one ``L``-lane call.

    The lanes are the (block, observer) pairs of a covid world's
    responsive blocks over ``LANES_DATASET`` (the benchmark's
    ``funnel-2w`` window), with the runtime's own loss models, cursors
    and generator seeds.  For each ``L`` the first ``L`` lanes go
    through one ``observe_batch`` call (``lanes_s``); on rows of at
    most :data:`ONE_LANE_MAX` lanes they also go through one
    ``TrinocularObserver.observe`` call each (``one_lane_s``, and the
    ``speedup`` of batching).  Rows are keyed by ``L``.  The
    :data:`LONG_WINDOW_LANES` rows do the same over the 26-week
    ``FRONT_HALF_DATASET`` window (112 lanes is the shape of
    ``campaign-h1``'s detection chunk, where the kernel's per-round
    cost rather than its per-probe cost sets the time), keyed
    ``"<dataset>:<L>"``.  Both sides include building every probe log
    (the batch assembles them on access).  Before anything is recorded
    the batched logs are asserted equal to the one-lane ones, to the
    previous row's on the lanes they share, and, for the row's last
    lane, to ``observe_reference``.
    """
    out = {str(n): row for n, row in _time_lanes(LANES_DATASET, lane_counts).items()}
    for n, row in _time_lanes(FRONT_HALF_DATASET, LONG_WINDOW_LANES).items():
        out[f"{FRONT_HALF_DATASET}:{n}"] = row
    return out


def _time_lanes(ds_name: str, lane_counts: Sequence[int]) -> dict[int, dict[str, float]]:
    """One ``L``-lane ``observe_batch`` call (and, for small ``L``, ``L``
    one-lane calls) over dataset ``ds_name``'s window, for the first
    ``L`` lanes of a covid world, per ``L`` in ascending order."""
    from .datasets.builder import setup_lane
    from .datasets.catalog import dataset
    from .net.prober import ProbeTarget, observe_batch, probe_order
    from .net.world import WorldModel, scenario_covid2020

    ds = dataset(ds_name)
    n_lanes = max(lane_counts)
    n_blocks = 3 * n_lanes // len(ds.observers)  # ~47% of blocks respond
    world = WorldModel(scenario_covid2020(), n_blocks=n_blocks, seed=11)
    start = ds.start_s(world.epoch)
    end = start + ds.duration_s
    lanes: list[tuple[Any, ...]] = []  # (spec, observer name, truth, order, target)
    for spec in world.blocks:
        if len(lanes) >= n_lanes:
            break
        if not spec.responsive_by_design:
            continue
        truth = world.truth(spec, ds.duration_s, start_s=start)
        order = probe_order(truth.n_addresses, spec.seed)
        target = ProbeTarget.of(truth, order, start, end)
        lanes.extend((spec, name, truth, order, target) for name in ds.observers)
    if len(lanes) < n_lanes:
        raise RuntimeError(f"prober_lanes: world has only {len(lanes)} lanes")

    def setup(spec: Any, name: str, truth: Any) -> Any:
        return setup_lane(world, spec, name, "adaptive", truth.n_addresses)

    def one_lane(chosen: list[tuple[Any, ...]]) -> list[Any]:
        return [
            setup(spec, name, truth).observe(truth, order, start, ds.duration_s)
            for spec, name, truth, order, _ in chosen
        ]

    def batched(chosen: list[tuple[Any, ...]]) -> list[Any]:
        logs = observe_batch(
            [
                setup(spec, name, truth).probe_lane(target, start, ds.duration_s)
                for spec, name, truth, _, target in chosen
            ]
        )
        return list(logs)

    def same(a: Any, b: Any) -> bool:
        return all(
            np.array_equal(getattr(a, f), getattr(b, f))
            for f in ("times", "addresses", "results")
        )

    def oracle(spec: Any, name: str, truth: Any, order: Any) -> Any:
        lane = setup(spec, name, truth)
        return lane.observer.observe_reference(
            truth,
            order,
            lane.loss,
            lane.rng,
            start_s=start,
            duration_s=ds.duration_s,
            start_cursor=lane.start_cursor,
        )

    out: dict[int, dict[str, float]] = {}
    previous: list[Any] = []
    for n in lane_counts:
        chosen = lanes[:n]
        batch_s, batch_logs = _best_of(batched, chosen, repeats=2)
        assert all(same(a, b) for a, b in zip(batch_logs, previous))
        assert same(batch_logs[-1], oracle(*chosen[-1][:4]))
        row = {
            "lanes": float(n),
            "probes": float(sum(len(log) for log in batch_logs)),
            "lanes_s": batch_s,
        }
        if n <= ONE_LANE_MAX:
            one_s, one_logs = _best_of(one_lane, chosen, repeats=2)
            assert all(same(a, b) for a, b in zip(batch_logs, one_logs))
            row.update(one_lane_s=one_s, speedup=one_s / batch_s)
        out[n] = row
        previous = batch_logs
    return out


def measure_front_half(
    rows: Sequence[tuple[str, int]] = FRONT_HALF_ROWS,
) -> dict[str, dict[str, float]]:
    """The columnar front half against the per-block log route.

    For each ``(dataset, n_blocks)`` row, one chunk of ``n_blocks``
    responsive blocks of a covid world is simulated once (untimed)
    through ``simulate_chunk``.  Then each block's repair/combine/
    reconstruct front half is timed both ways:
    :class:`~repro.core.front_half.LaneBlock` straight from the lane
    rounds, and the oracle, which assembles every lane's log and runs
    ``reconstruct_logs`` on it.  Every reconstruction is asserted
    byte-identical before anything is recorded.  Each row also splits
    the columnar route's best run into resolving the lanes
    (``LaneBlock.of``) and its ``repair``, ``combine`` and
    ``reconstruct`` stage records.  Keyed ``dataset:blocks``.
    """
    from .core.front_half import LaneBlock, SampleGrid
    from .core.pipeline import BlockPipeline
    from .core.stages import StageContext
    from .datasets.builder import reconstruct_logs, sample_grid, simulate_chunk
    from .datasets.catalog import dataset
    from .net.world import WorldModel, scenario_covid2020

    pipeline = BlockPipeline()
    out: dict[str, dict[str, float]] = {}
    for name, n_blocks in rows:
        ds = dataset(name)
        world = WorldModel(scenario_covid2020(), n_blocks=3 * n_blocks, seed=11)
        specs = [spec for spec in world.blocks if spec.responsive_by_design][:n_blocks]
        if len(specs) < n_blocks:
            raise RuntimeError(f"front_half: world has only {len(specs)} responsive blocks")
        sim = simulate_chunk(world, specs, ds)
        grid = SampleGrid.of(sample_grid(sim.start_s, ds))
        assert grid is not None
        split: dict[str, float] = {}

        def columnar() -> list[Any]:
            split.clear()
            t0 = time.perf_counter()
            blocks = [
                LaneBlock.of(sim.lanes, sim.lane_ids(j), sim.addresses[j], grid)
                for j in range(len(specs))
            ]
            split["of_s"] = time.perf_counter() - t0
            recons = []
            for block in blocks:
                assert block is not None
                ctx = StageContext()
                recons.append(block.reconstruct(ctx))
                for record in ctx.records:
                    key = f"{record.name}_s"
                    split[key] = split.get(key, 0.0) + record.wall_s
            return recons

        def oracle() -> list[Any]:
            return [
                reconstruct_logs(
                    pipeline, sim.logs(j), sim.addresses[j], sim.start_s, ds, StageContext()
                )
                for j in range(len(specs))
            ]

        runs = []
        for _ in range(2):
            t0 = time.perf_counter()
            got = columnar()
            runs.append((time.perf_counter() - t0, dict(split)))
        columnar_s, stages = min(runs, key=lambda run: run[0])
        oracle_s, want = _best_of(oracle, repeats=2)
        for a, b in zip(got, want):
            assert pickle.dumps(a) == pickle.dumps(b)
        out[f"{name}:{n_blocks}"] = {
            "blocks": float(len(specs)),
            "probes": float(sum(sim.n_probes)),
            "columnar_s": columnar_s,
            **stages,
            "oracle_s": oracle_s,
            "speedup": oracle_s / columnar_s,
        }
    return out


def measure_truth(n_blocks: int = TRUTH_BLOCKS) -> dict[str, dict[str, float]]:
    """Window-local truth against generating the same blocks from day 0.

    For the two-week ``LANES_DATASET`` and the 26-week
    ``FRONT_HALF_DATASET`` window, ``n_blocks`` responsive blocks of a
    covid world get their truth from ``WorldModel.truth`` twice: over
    the window only, and from the scenario epoch to the window's end
    (what truth cost before it was window-local).  Every window truth
    is asserted equal to the epoch truth's columns over the window
    before anything is recorded.  Keyed by dataset name.
    """
    from .datasets.catalog import dataset
    from .net.usage import ROUND_SECONDS
    from .net.world import WorldModel, scenario_covid2020

    world = WorldModel(scenario_covid2020(), n_blocks=3 * n_blocks, seed=11)
    specs = [spec for spec in world.blocks if spec.responsive_by_design][:n_blocks]
    if len(specs) < n_blocks:
        raise RuntimeError(f"truth: world has only {len(specs)} responsive blocks")
    out: dict[str, dict[str, float]] = {}
    for name in (LANES_DATASET, FRONT_HALF_DATASET):
        ds = dataset(name)
        start = ds.start_s(world.epoch)

        def window(start: float = start, duration: float = ds.duration_s) -> list[Any]:
            return [world.truth(spec, duration, start_s=start) for spec in specs]

        def from_epoch(end: float = start + ds.duration_s) -> list[Any]:
            return [world.truth(spec, end) for spec in specs]

        window_s, got = _best_of(window, repeats=2)
        epoch_s, want = _best_of(from_epoch, repeats=2)
        first = int(start // ROUND_SECONDS)
        for a, b in zip(got, want):
            assert np.array_equal(a.addresses, b.addresses)
            assert np.array_equal(a.active, b.active[:, first:])
        out[name] = {
            "blocks": float(len(specs)),
            "window_cells": float(sum(t.active.size for t in got)),
            "from_epoch_cells": float(sum(t.active.size for t in want)),
            "window_s": window_s,
            "from_epoch_s": epoch_s,
            "speedup": epoch_s / window_s,
        }
    return out


def measure_cache_keys(n_blocks: int = CACHE_KEY_BLOCKS) -> dict[str, dict[str, float]]:
    """Cache keys per task against one keyer per run.

    Every block of the ``funnel-2w``-shaped world (``covid_world(n_blocks,
    20)``) is keyed for a ``LANES_DATASET`` block analysis twice: per
    task, as ``sha256(stable_token((kind, CACHE_SCHEMA, inputs)))`` over
    the job's whole input dict (which tokenizes the world for every key),
    and by the callable of one ``BlockAnalysisJob.cache_keyer()`` call,
    whose build is timed with it.  Every key is asserted equal before
    anything is recorded.  Keyed ``block-analysis:blocks``.
    """
    from .core.pipeline import BlockPipeline
    from .datasets.catalog import dataset
    from .experiments.common import covid_world
    from .runtime.cache import CACHE_SCHEMA, stable_token
    from .runtime.jobs import BlockAnalysisJob

    world = covid_world(n_blocks, 20, diurnal_boost=1.0)
    job = BlockAnalysisJob(world=world, ds=dataset(LANES_DATASET), pipeline=BlockPipeline())
    inputs = {
        "world": job.world,
        "ds": job.ds,
        "pipeline": job.pipeline,
        "observer_style": job.observer_style,
    }

    def per_task() -> list[str]:
        return [
            hashlib.sha256(
                stable_token(("block-analysis", CACHE_SCHEMA, {**inputs, "spec": s})).encode()
            ).hexdigest()
            for s in world.blocks
        ]

    def per_run() -> list[str | None]:
        key = job.cache_keyer()
        return [key(spec) for spec in world.blocks]

    per_task_s, want = _best_of(per_task, repeats=2)
    per_run_s, got = _best_of(per_run, repeats=3)
    assert got == want and None not in got
    return {
        f"block-analysis:{len(world.blocks)}": {
            "keys": float(len(got)),
            "per_task_s": per_task_s,
            "per_run_s": per_run_s,
            "speedup": per_task_s / per_run_s,
        }
    }


def run_sections(sections: Iterable[str]) -> dict[str, Any]:
    """Measure each named section; unknown names raise ``ValueError``."""
    runners: dict[str, Callable[[], Any]] = {
        "kernels": measure_kernels,
        "batched": measure_batched_kernels,
        "cusum_rows_scaling": measure_cusum_scaling,
        "prober_lanes": measure_prober_lanes,
        "front_half": measure_front_half,
        "truth": measure_truth,
        "cache_keys": measure_cache_keys,
    }
    out: dict[str, Any] = {}
    for name in sections:
        runner = runners.get(name)
        if runner is None:
            raise ValueError(
                f"unknown bench section {name!r}; known: {sorted(runners)}"
            )
        out[name] = runner()
    return out


def below_floor(sections: dict[str, Any]) -> list[str]:
    """One line per measured row whose speedup is not above its floor."""
    out = []
    for section, floors in SPEEDUP_FLOORS.items():
        for row, floor in floors.items():
            stats = sections.get(section, {}).get(row)
            if stats is not None and not stats["speedup"] > floor:
                out.append(f"{section}/{row}: {stats['speedup']:.2f}x, floor {floor}x")
    return out


def write_sections(path: "str | os.PathLike[str]", sections: dict[str, Any]) -> None:
    """Replace the named top-level sections of the bench file in place.

    Sections not named are left as they are, so ``repro bench
    --sections X`` refreshes only its own numbers.  A missing or
    unreadable file starts empty.
    """
    p = Path(path)
    try:
        doc = json.loads(p.read_text())
    except (OSError, json.JSONDecodeError):
        doc = {}
    if not isinstance(doc, dict):
        doc = {}
    doc.update(sections)
    p.write_text(json.dumps(doc, indent=2) + "\n")


# ---------------------------------------------------------------------------
# CLI (``repro bench``)
# ---------------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description=(
            "Time the vectorized/batched kernels against their scalar "
            "oracles (asserting identical output first), write the "
            "measured sections into BENCH_kernels.json, and fail if a "
            "speedup is not above its floor."
        ),
    )
    parser.add_argument(
        "--output",
        default=BENCH_FILE,
        help="bench file to update (default: %(default)s)",
    )
    parser.add_argument(
        "--sections",
        default=",".join(DEFAULT_SECTIONS),
        help="comma-separated sections to run (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    sections = run_sections(s for s in args.sections.split(",") if s)
    write_sections(args.output, sections)
    print(f"bench: wrote {', '.join(sections)} to {args.output}")
    for section, payload in sections.items():
        for sub, stats in payload.items():
            if "speedup" in stats:
                print(f"  {section}/{sub}: {stats['speedup']:.2f}x")
    failed = below_floor(sections)
    for line in failed:
        print(f"bench: speedup not above its floor: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
