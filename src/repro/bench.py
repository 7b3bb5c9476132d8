"""Kernel/engine micro-benchmark measurement cores and the bench trajectory.

``BENCH_kernels.json`` used to be a single overwritten snapshot; this
module versions it into a **trajectory**: the latest sections stay at
the top level (so existing greps and the pytest artifact tests keep
working), and every ``repro bench`` invocation appends a full record —
git describe, machine fingerprint, timings — to a bounded ``history``
list.  ``repro bench --check`` then compares the newest record against
the median of comparable prior records (same machine fingerprint, and
for the engine section the same scale) and fails on a >threshold%
regression, which is what ROADMAP item 1 means by "a BENCH section
tracking blocks/sec at scale".

The measurement functions here are the single source of truth: the
``benchmarks/test_microbench.py`` artifact tests import them, so pytest
runs and ``repro bench`` runs time exactly the same code on exactly the
same fixtures.  Every vectorized/batched measurement asserts
byte-identity against its scalar oracle before timing lands in the
artifact — a speedup over a kernel that disagrees is meaningless.

``measure_cusum_scaling`` exists because the trajectory's first real
question was "why is ``cusum_rows`` only ~1.2x batched?".  The answer
used to be "because ``detect_cusum_batch`` only hoisted NaN
forward-fill and looped per-row passes"; the row-parallel
``_cusum_pass_batch`` kernel replaced that loop (all rows' segments
advance together as 2-D reductions, Python work is O(alarms)), and the
sweep now shows the speedup growing with B (~1.5x at 16 to ~2x at 256+)
instead of flat.  See docs/algorithms.md §14.

``measure_scale`` extends the trajectory to out-of-core scale: a
sharded serial engine (``--shards``) streams world sizes from
``REPRO_BENCH_SCALES`` (default 1600, 25k, 100k blocks) and records
blocks/sec, peak coordinator RSS, and spill volume per scale — the
"scale" section ROADMAP item 1 asks for.  One pass per scale, no
best-of: a 100k-block world is minutes, and the RSS bound (not the
timing noise floor) is the headline.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import sys
import time
from datetime import datetime
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "BENCH_FILE",
    "BENCH_SCHEMA",
    "DEFAULT_SECTIONS",
    "DEFAULT_THRESHOLD_PCT",
    "append_record",
    "check_regression",
    "count_matrix_fixture",
    "load_history",
    "machine_fingerprint",
    "measure_batched_kernels",
    "measure_cusum_scaling",
    "measure_engine",
    "measure_kernels",
    "measure_prober_lanes",
    "measure_scale",
    "merge_latest_section",
    "quarter_block_fixture",
    "run_sections",
]

BENCH_FILE = "BENCH_kernels.json"
BENCH_SCHEMA = 1
HISTORY_CAP = 500
DEFAULT_THRESHOLD_PCT = 25.0
DEFAULT_SECTIONS = (
    "kernels",
    "batched",
    "cusum_rows_scaling",
    "prober_lanes",
    "engine",
    "scale",
)

QUARTER_S = 84 * 86_400.0
BATCH_BLOCKS = 256
ENGINE_DATASET = "2020it89-match-ejnw"  # two weeks, four observers
CUSUM_BATCH_SIZES = (16, 64, 256, 1024)
SCALE_SWEEP = (1_600, 25_000, 100_000)
SCALE_SHARD_BLOCKS = 2_000  # target shard width for the scale sweep
PROBER_LANE_COUNTS = (4, 16, 64, 256, 1024)


# ---------------------------------------------------------------------------
# fixtures (shared with benchmarks/test_microbench.py)
# ---------------------------------------------------------------------------
def quarter_block_fixture():
    """One block's quarter-length truth, probe order, and observation log."""
    from .net.events import Calendar
    from .net.prober import TrinocularObserver, probe_order
    from .net.usage import WorkplaceUsage, round_grid

    calendar = Calendar(epoch=datetime(2020, 1, 1), tz_hours=0.0)
    usage = WorkplaceUsage(n_desktops=60, n_servers=2)
    truth = usage.generate(np.random.default_rng(5), round_grid(QUARTER_S), calendar)
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
    """Vectorized-vs-reference speedups on the quarter fixture."""
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
    assert np.array_equal(fast_log.times, ref_log.times)
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

    The satellite question behind this sweep: does the ~1.2x batched
    speedup at B=256 grow with B (fixable dispatch overhead) or stay
    flat (bandwidth-bound per-row kernel)?  Results are keyed by B so
    the trajectory records the whole curve.
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
    """Lane-parallel ``observe_batch`` against per-lane ``observe``.

    The lanes are the (block, observer) pairs of a covid world's
    responsive blocks over ``ENGINE_DATASET`` (the benchmark's
    ``funnel-2w`` window), with the runtime's own loss models, cursors
    and generator seeds; the first ``L`` lanes are timed both ways for
    each ``L``.  Both sides include building every probe log (the batch
    assembles them on access), and every log is asserted equal before
    anything is recorded.  Keyed by ``L``; the keys avoid the gate's
    ``vectorized_s``/``batched_s`` names, so the crossover curve is a
    record, not a gated metric.
    """
    from .datasets.builder import _lane_rng, _start_cursor
    from .datasets.catalog import TRINOCULAR_SITES, dataset
    from .net.prober import (
        ProbeLane,
        ProbeTarget,
        TrinocularObserver,
        observe_batch,
        probe_order,
    )
    from .net.world import WorldModel, scenario_covid2020

    ds = dataset(ENGINE_DATASET)
    n_lanes = max(lane_counts)
    n_blocks = 3 * n_lanes // len(ds.observers)  # ~47% of blocks respond
    world = WorldModel(scenario_covid2020(), n_blocks=n_blocks, seed=11)
    start = ds.start_s(world.epoch)
    end = start + ds.duration_s
    observers = {
        n: TrinocularObserver(n, phase_offset_s=TRINOCULAR_SITES[n]) for n in ds.observers
    }
    lanes: list[tuple[Any, ...]] = []  # (spec, observer, truth, order, target)
    for spec in world.blocks:
        if len(lanes) >= n_lanes:
            break
        if not spec.responsive_by_design:
            continue
        truth = world.truth(spec, end)
        order = probe_order(truth.n_addresses, spec.seed)
        target = ProbeTarget.of(truth, order, start, end)
        lanes.extend((spec, observers[n], truth, order, target) for n in ds.observers)
    if len(lanes) < n_lanes:
        raise RuntimeError(f"prober_lanes: world has only {len(lanes)} lanes")

    def per_lane(chosen: list[tuple[Any, ...]]) -> list[Any]:
        return [
            obs.observe(
                truth,
                order,
                world.loss_model(spec, obs.name),
                _lane_rng(spec, obs.name),
                start_s=start,
                duration_s=ds.duration_s,
                start_cursor=_start_cursor(spec, obs.name, truth.n_addresses),
            )
            for spec, obs, truth, order, _ in chosen
        ]

    def batched(chosen: list[tuple[Any, ...]]) -> list[Any]:
        logs = observe_batch(
            [
                ProbeLane(
                    obs,
                    target,
                    world.loss_model(spec, obs.name),
                    _lane_rng(spec, obs.name),
                    start_s=start,
                    duration_s=ds.duration_s,
                    start_cursor=_start_cursor(spec, obs.name, truth.n_addresses),
                )
                for spec, obs, truth, _, target in chosen
            ]
        )
        return list(logs)

    out: dict[str, dict[str, float]] = {}
    for n in lane_counts:
        chosen = lanes[:n]
        lane_s, lane_logs = _best_of(per_lane, chosen, repeats=2)
        batch_s, batch_logs = _best_of(batched, chosen, repeats=2)
        for a, b in zip(batch_logs, lane_logs):
            assert np.array_equal(a.times, b.times)
            assert np.array_equal(a.addresses, b.addresses)
            assert np.array_equal(a.results, b.results)
        out[str(n)] = {
            "lanes": float(n),
            "probes": float(sum(len(log) for log in lane_logs)),
            "per_lane_s": lane_s,
            "lanes_s": batch_s,
            "speedup": lane_s / batch_s,
        }
    return out


def measure_engine(n_blocks: int | None = None) -> dict[str, float | int]:
    """Serial whole-world analysis throughput (blocks/sec at scale)."""
    from .datasets.builder import DatasetBuilder
    from .experiments.common import bench_scale
    from .net.world import WorldModel, scenario_covid2020
    from .runtime import CampaignEngine, SerialExecutor

    scale = int(n_blocks) if n_blocks is not None else bench_scale(200)
    world = WorldModel(scenario_covid2020(), n_blocks=scale, seed=11)
    engine = CampaignEngine(SerialExecutor())
    result = DatasetBuilder(world).analyze(ENGINE_DATASET, engine=engine)
    metrics = result.metrics
    return {
        "scale": scale,
        "wall_s": metrics.wall_s,
        "blocks_per_sec": metrics.blocks_per_sec,
    }


def _scale_sweep() -> tuple[int, ...]:
    """Scales for ``measure_scale``: ``REPRO_BENCH_SCALES`` (comma ints)
    overrides the default :data:`SCALE_SWEEP` so CI can run a tiny sweep."""
    from .runtime import envconfig

    return envconfig.get_int_csv("REPRO_BENCH_SCALES") or SCALE_SWEEP


def measure_scale(scales: "Sequence[int] | None" = None) -> dict[str, Any]:
    """Sharded out-of-core throughput and peak RSS across world scales.

    For each world size the whole ``ENGINE_DATASET`` campaign streams
    through a sharded serial engine (~:data:`SCALE_SHARD_BLOCKS` blocks
    per shard, at least two shards so spill/merge is always exercised)
    and records blocks/sec, the coordinator's peak RSS, and the spill
    volume.  One pass per scale — a 100k-block world takes minutes, and
    the headline is the RSS bound, not the timing noise floor.  The keys
    deliberately avoid ``vectorized_s``/``batched_s`` so the regression
    gate (which keys off those names) ignores this section: the sweep
    varies with ``REPRO_BENCH_SCALES`` and is not comparable run-to-run.
    """
    from .datasets.builder import DatasetBuilder
    from .net.world import WorldModel, scenario_covid2020
    from .runtime import CampaignEngine, SerialExecutor

    out: dict[str, Any] = {}
    for scale in scales if scales is not None else _scale_sweep():
        n_blocks = int(scale)
        n_shards = max(-(-n_blocks // SCALE_SHARD_BLOCKS), 2)
        world = WorldModel(scenario_covid2020(), n_blocks=n_blocks, seed=11)
        engine = CampaignEngine(SerialExecutor(), shards=n_shards)
        result = DatasetBuilder(world).analyze(ENGINE_DATASET, engine=engine)
        metrics = result.metrics
        resources = metrics.resources or {}
        shards = metrics.shards or {}
        out[str(n_blocks)] = {
            "n_blocks": n_blocks,
            "n_shards": shards.get("shards", n_shards),
            "wall_s": metrics.wall_s,
            "blocks_per_sec": metrics.blocks_per_sec,
            "rss_peak_bytes": resources.get("rss_peak_bytes", 0),
            "spill_bytes": shards.get("spill_bytes", 0),
        }
    return out


def run_sections(sections: Iterable[str]) -> dict[str, Any]:
    """Measure each named section; unknown names raise ``ValueError``."""
    runners: dict[str, Callable[[], Any]] = {
        "kernels": measure_kernels,
        "batched": measure_batched_kernels,
        "cusum_rows_scaling": measure_cusum_scaling,
        "prober_lanes": measure_prober_lanes,
        "engine": measure_engine,
        "scale": measure_scale,
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


# ---------------------------------------------------------------------------
# machine fingerprint and the versioned history document
# ---------------------------------------------------------------------------
def machine_fingerprint() -> dict[str, Any]:
    """What hardware/toolchain produced a record (comparability key)."""
    fields = {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count() or 1,
    }
    token = json.dumps(fields, sort_keys=True)
    fields["id"] = hashlib.sha256(token.encode()).hexdigest()[:12]
    return fields


def load_history(path: "str | os.PathLike[str]") -> dict[str, Any]:
    """Read the bench document, migrating a legacy flat snapshot in place.

    A pre-trajectory file (no ``schema`` key) keeps its sections as the
    "latest" values and starts with an empty history — old numbers are
    not fabricated into records they never were.
    """
    p = Path(path)
    try:
        doc = json.loads(p.read_text())
    except (OSError, json.JSONDecodeError):
        doc = {}
    if not isinstance(doc, dict):
        doc = {}
    if "schema" not in doc:
        doc = {"schema": BENCH_SCHEMA, **doc, "history": []}
    doc.setdefault("history", [])
    return doc


def append_record(
    path: "str | os.PathLike[str]", sections: dict[str, Any]
) -> dict[str, Any]:
    """Append one trajectory record and refresh the latest sections."""
    from .obs.sinks import git_describe

    doc = load_history(path)
    record = {
        "t_unix": time.time(),
        "git": git_describe(),
        "machine": machine_fingerprint(),
        "sections": sections,
    }
    doc["history"].append(record)
    doc["history"] = doc["history"][-HISTORY_CAP:]
    for name, payload in sections.items():
        doc[name] = payload
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")
    return doc


def merge_latest_section(
    path: "str | os.PathLike[str]", section: str, payload: Any
) -> None:
    """Update one latest section without touching the history.

    This is the pytest artifact tests' write path: they refresh the
    headline numbers on every run, while only explicit ``repro bench``
    invocations append trajectory records.
    """
    doc = load_history(path)
    doc[section] = payload
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


# ---------------------------------------------------------------------------
# regression gate
# ---------------------------------------------------------------------------
def _metric_paths(sections: dict[str, Any]) -> list[tuple[str, str, str, bool]]:
    """(section, sub-key, metric, lower_is_better) triples to compare."""
    paths: list[tuple[str, str, str, bool]] = []
    for section, payload in sections.items():
        if section == "engine":
            paths.append((section, "", "blocks_per_sec", False))
            continue
        if not isinstance(payload, dict):
            continue
        for sub, stats in payload.items():
            if not isinstance(stats, dict):
                continue
            if "vectorized_s" in stats:
                paths.append((section, sub, "vectorized_s", True))
            elif "batched_s" in stats:
                paths.append((section, sub, "batched_s", True))
    return paths


def _lookup(sections: dict[str, Any], section: str, sub: str, metric: str):
    payload = sections.get(section)
    if not isinstance(payload, dict):
        return None
    stats = payload.get(sub) if sub else payload
    if not isinstance(stats, dict):
        return None
    value = stats.get(metric)
    return float(value) if isinstance(value, (int, float)) else None


def _comparable(candidate: dict[str, Any], prior: dict[str, Any]) -> bool:
    """Prior records count only when measured on comparable ground."""
    cand_id = (candidate.get("machine") or {}).get("id")
    prior_id = (prior.get("machine") or {}).get("id")
    if cand_id != prior_id:
        return False
    cand_scale = _lookup(candidate.get("sections") or {}, "engine", "", "scale")
    prior_scale = _lookup(prior.get("sections") or {}, "engine", "", "scale")
    if cand_scale is not None and prior_scale is not None and cand_scale != prior_scale:
        return False
    return True


def check_regression(
    doc: dict[str, Any], threshold_pct: float = DEFAULT_THRESHOLD_PCT
) -> tuple[list[str], list[str]]:
    """(regressions, notes) for the newest record vs the prior trajectory.

    The newest history record is the candidate; the baseline per metric
    is the **median** of that metric over comparable prior records (same
    machine fingerprint; same engine scale).  Medians make one earlier
    noisy run harmless.  Timing metrics regress when slower than
    baseline by more than ``threshold_pct``; throughput metrics
    (``blocks_per_sec``) when lower by more than ``threshold_pct``.
    """
    history = doc.get("history") or []
    if len(history) < 2:
        return [], ["no prior trajectory records to compare against"]
    candidate = history[-1]
    pool = [r for r in history[:-1] if _comparable(candidate, r)]
    if not pool:
        return [], [
            "no comparable prior records (different machine fingerprint or scale)"
        ]

    regressions: list[str] = []
    notes: list[str] = []
    cand_sections = candidate.get("sections") or {}
    for section, sub, metric, lower_better in _metric_paths(cand_sections):
        cand = _lookup(cand_sections, section, sub, metric)
        if cand is None:
            continue
        prior_values = [
            v
            for r in pool
            if (v := _lookup(r.get("sections") or {}, section, sub, metric)) is not None
        ]
        if not prior_values:
            notes.append(f"{section}/{sub or metric}: new metric, no baseline yet")
            continue
        baseline = float(np.median(prior_values))
        label = f"{section}/{sub}/{metric}" if sub else f"{section}/{metric}"
        if baseline <= 0:
            continue
        if lower_better:
            change_pct = 100.0 * (cand - baseline) / baseline
            if change_pct > threshold_pct:
                regressions.append(
                    f"{label}: {cand:.6f}s vs median {baseline:.6f}s "
                    f"(+{change_pct:.0f}% slower, threshold {threshold_pct:.0f}%)"
                )
        else:
            change_pct = 100.0 * (baseline - cand) / baseline
            if change_pct > threshold_pct:
                regressions.append(
                    f"{label}: {cand:.2f} vs median {baseline:.2f} "
                    f"(-{change_pct:.0f}% throughput, threshold {threshold_pct:.0f}%)"
                )
    return regressions, notes


# ---------------------------------------------------------------------------
# CLI (``repro bench``)
# ---------------------------------------------------------------------------
def _summarise(sections: dict[str, Any]) -> list[str]:
    lines = []
    for section, payload in sections.items():
        if section == "engine" and isinstance(payload, dict):
            lines.append(
                f"  engine: {payload.get('blocks_per_sec', 0.0):.1f} blocks/s "
                f"at scale {payload.get('scale', '?')} "
                f"({payload.get('wall_s', 0.0):.2f}s wall)"
            )
            continue
        if section == "scale" and isinstance(payload, dict):
            for sub, stats in payload.items():
                if not isinstance(stats, dict):
                    continue
                rss_mib = float(stats.get("rss_peak_bytes", 0)) / (1024 * 1024)
                lines.append(
                    f"  scale/{sub}: {stats.get('blocks_per_sec', 0.0):.1f} blocks/s, "
                    f"{stats.get('n_shards', '?')} shards, peak RSS {rss_mib:.0f} MiB"
                )
            continue
        if not isinstance(payload, dict):
            continue
        for sub, stats in payload.items():
            if isinstance(stats, dict) and "speedup" in stats:
                lines.append(f"  {section}/{sub}: {stats['speedup']:.2f}x")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description=(
            "Run the kernel/engine microbenchmarks and append a record "
            "(git describe, machine fingerprint, timings) to the "
            "BENCH_kernels.json trajectory; --check compares the newest "
            "record against the recorded history."
        ),
    )
    parser.add_argument(
        "--output",
        default=BENCH_FILE,
        help="bench history file (default: %(default)s)",
    )
    parser.add_argument(
        "--sections",
        default=",".join(DEFAULT_SECTIONS),
        help="comma-separated sections to run (default: %(default)s)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare the newest record against the trajectory instead of measuring",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD_PCT,
        help="regression threshold in percent for --check (default: %(default)s)",
    )
    parser.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but exit 0 (CI smoke mode)",
    )
    args = parser.parse_args(argv)

    if args.check:
        doc = load_history(args.output)
        regressions, notes = check_regression(doc, threshold_pct=args.threshold)
        for note in notes:
            print(f"bench check: {note}")
        if regressions:
            for line in regressions:
                print(f"bench REGRESSION: {line}")
            if args.warn_only:
                print(f"bench check: {len(regressions)} regression(s), warn-only mode")
                return 0
            return 1
        print(
            f"bench check: OK ({len(doc.get('history') or [])} records, "
            f"threshold {args.threshold:.0f}%)"
        )
        return 0

    sections = run_sections(s for s in args.sections.split(",") if s)
    append_record(args.output, sections)
    doc = load_history(args.output)
    print(f"bench: recorded {len(doc['history'])} trajectory record(s) in {args.output}")
    for line in _summarise(sections):
        print(line)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
