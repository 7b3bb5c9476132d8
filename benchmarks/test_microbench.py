"""Component micro-benchmarks: throughput of the pipeline's hot paths.

Unlike the experiment benchmarks (single deterministic runs that
regenerate paper tables), these measure the per-call cost of the core
algorithms over realistic quarter-length inputs, plus the campaign
engine's serial vs. parallel throughput over a whole world (with the
per-stage timing breakdown printed for both).

The quarter fixture comes from :mod:`repro.bench`, whose ``repro
bench`` command times the kernels against their oracles, is the only
writer of ``BENCH_kernels.json`` and fails when a speedup is not above
its floor (``SPEEDUP_FLOORS``).
"""

from __future__ import annotations

import pickle
import time

import numpy as np
import pytest

from repro.bench import quarter_block_fixture
from repro.core.reconstruction import full_scan_durations, reconstruct
from repro.core.repair import one_loss_repair
from repro.core.trend import TrendExtractor
from repro.datasets.builder import DatasetBuilder
from repro.experiments.common import bench_scale
from repro.net.prober import TrinocularObserver
from repro.net.world import WorldModel, scenario_covid2020
from repro.runtime import AnalysisCache, CampaignEngine, SerialExecutor, PoolExecutor
from repro.timeseries.detect import detect_cusum, detect_cusum_reference
from repro.timeseries.stl import stl_decompose

ENGINE_DATASET = "2020it89-match-ejnw"  # two weeks, four observers


@pytest.fixture(scope="module")
def quarter_block():
    return quarter_block_fixture()


def test_prober_quarter(benchmark, quarter_block):
    """Adaptive probing of one block for a quarter (the simulation's hot loop)."""
    truth, order, _ = quarter_block

    def probe():
        return TrinocularObserver("e").observe(
            truth, order, rng=np.random.default_rng(1)
        )

    log = benchmark(probe)
    assert len(log) > 10_000


def test_reconstruction_quarter(benchmark, quarter_block):
    """Hold-last-state reconstruction over a quarter of probes."""
    truth, _, log = quarter_block
    recon = benchmark(reconstruct, log, truth.addresses, truth.col_times)
    assert recon.is_complete


def test_one_loss_repair_quarter(benchmark, quarter_block):
    """1-loss repair over a quarter of probes."""
    _, _, log = quarter_block
    repaired = benchmark(one_loss_repair, log)
    assert len(repaired) == len(log)


def test_stl_quarter_hourly(benchmark):
    """STL decomposition of a quarter-length hourly series."""
    rng = np.random.default_rng(2)
    n = 24 * 84
    t = np.arange(n)
    y = 12 + 5 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 0.5, n)
    result = benchmark(stl_decompose, y, 24)
    assert np.isfinite(result.trend).all()


def test_cusum_quarter_hourly(benchmark):
    """CUSUM over a quarter-length hourly trend."""
    rng = np.random.default_rng(3)
    y = np.concatenate([np.zeros(1000), np.full(1016, -3.0)]) + rng.normal(0, 0.1, 2016)
    result = benchmark(detect_cusum, y, 1.0, 0.0055)
    assert len(result.downward) >= 1


def test_trend_extraction_quarter(benchmark, quarter_block):
    """Full trend extraction (resample + interpolate + robust STL)."""
    truth, _, log = quarter_block
    recon = reconstruct(log, truth.addresses, truth.col_times)
    result = benchmark(TrendExtractor().extract, recon.counts)
    assert np.isfinite(result.trend.values).all()


# ---------------------------------------------------------------------------
# vectorized kernels vs their scalar reference oracles
# ---------------------------------------------------------------------------
def test_prober_quarter_reference(benchmark, quarter_block):
    """The scalar-loop oracle, for comparison with test_prober_quarter."""
    truth, order, _ = quarter_block

    def probe():
        return TrinocularObserver("e").observe_reference(
            truth, order, rng=np.random.default_rng(1)
        )

    log = benchmark(probe)
    assert len(log) > 10_000


def test_full_scan_quarter(benchmark, quarter_block):
    """Vectorized Figure 3 statistic over a quarter of probes."""
    truth, _, log = quarter_block
    durations = benchmark(full_scan_durations, log, truth.addresses)
    assert durations.size > 0


def test_full_scan_quarter_reference(benchmark, quarter_block):
    """The occurrence-dict oracle, for comparison with test_full_scan_quarter."""
    from repro.core.reconstruction import full_scan_durations_reference

    truth, _, log = quarter_block
    durations = benchmark(full_scan_durations_reference, log, truth.addresses)
    assert durations.size > 0


def test_cusum_quarter_hourly_reference(benchmark):
    """The scalar-recursion oracle, same input as test_cusum_quarter_hourly."""
    rng = np.random.default_rng(3)
    y = np.concatenate([np.zeros(1000), np.full(1016, -3.0)]) + rng.normal(0, 0.1, 2016)
    result = benchmark(detect_cusum_reference, y, 1.0, 0.0055)
    assert len(result.downward) >= 1


# ---------------------------------------------------------------------------
# campaign engine: serial vs parallel over a whole world
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def engine_world():
    """A 200-block world (REPRO_SCALE overrides) for engine benchmarks."""
    return WorldModel(scenario_covid2020(), n_blocks=bench_scale(200), seed=11)


def _engine_analyze(world, executor):
    with CampaignEngine(executor) as engine:
        result = DatasetBuilder(world).analyze(ENGINE_DATASET, engine=engine)
    print()
    print(result.metrics.report())  # the per-stage timing breakdown
    return result


@pytest.fixture(scope="module")
def serial_reference(engine_world):
    """Serial engine results the parallel benchmark is checked against."""
    return _engine_analyze(engine_world, SerialExecutor())


def test_engine_serial_world(benchmark, engine_world):
    """Whole-world analysis through the engine, one process."""
    result = benchmark.pedantic(
        _engine_analyze, args=(engine_world, SerialExecutor()), rounds=1, iterations=1
    )
    assert result.funnel().routed == engine_world.n_blocks


def test_engine_parallel_world(benchmark, engine_world, serial_reference):
    """Whole-world analysis through a 2-worker pool; byte-identical to serial."""
    result = benchmark.pedantic(
        _engine_analyze,
        args=(engine_world, PoolExecutor(workers=2)),
        rounds=1,
        iterations=1,
    )
    assert result.metrics.fallback is None
    assert list(result.analyses) == list(serial_reference.analyses)
    for cidr, analysis in result.analyses.items():
        assert pickle.dumps(analysis) == pickle.dumps(
            serial_reference.analyses[cidr]
        ), f"parallel analysis diverged from serial for {cidr}"


def test_engine_traced_world(benchmark, engine_world, serial_reference):
    """Whole-world analysis with full telemetry on: spans + worker accounting.

    The delta against ``test_engine_serial_world`` is the tracing
    overhead (span records shipped home with each task's CPU and RSS);
    it should stay in the low single-digit percent of run wall time.
    """
    from repro.obs.trace import Tracer, use_tracer

    def traced():
        with use_tracer(Tracer()) as tracer:
            result = _engine_analyze(engine_world, SerialExecutor())
        print(f"  ({len(tracer.finished)} spans recorded)")
        return result

    result = benchmark.pedantic(traced, rounds=1, iterations=1)
    assert result.metrics.resources["workers"]["tasks"] == engine_world.n_blocks
    for cidr, analysis in result.analyses.items():
        assert pickle.dumps(analysis) == pickle.dumps(
            serial_reference.analyses[cidr]
        ), f"traced analysis diverged from untraced for {cidr}"


# ---------------------------------------------------------------------------
# analysis cache: cold run vs warm (all-hits) run of a full experiment
# ---------------------------------------------------------------------------
def test_fig3_cache_cold_vs_warm(benchmark, tmp_path):
    """Figure 3 with a disk cache: the warm rerun must be all hits.

    A fresh engine per run (sharing only the cache directory) models
    separate CLI invocations with ``--cache``; the benchmark measures
    the warm path, which skips simulation entirely.
    """
    from repro.experiments import fig3
    from repro.runtime import drain_run_log

    def run_cached():
        engine = CampaignEngine(SerialExecutor(), AnalysisCache(tmp_path))
        result = fig3.run(engine=engine)
        return result, drain_run_log()

    drain_run_log()  # isolate from engine runs earlier in the session
    t0 = time.perf_counter()
    cold, cold_runs = run_cached()
    cold_s = time.perf_counter() - t0

    warm, warm_runs = benchmark.pedantic(run_cached, rounds=1, iterations=1)
    warm_s = sum(m.wall_s for m in warm_runs)
    print(f"\n  cold {cold_s:.2f}s -> warm {warm_s:.3f}s (engine wall)")

    assert all(m.cache and m.cache["hits"] == 0 for m in cold_runs)
    assert all(
        m.cache and m.cache["misses"] == 0 and m.cache["stores"] == 0
        for m in warm_runs
    ), "warm fig3 run was not 100% cache hits"
    assert pickle.dumps(warm) == pickle.dumps(cold)
    assert fig3.format_report(warm) == fig3.format_report(cold)
