"""Tests for the resource-accounting and progress (heartbeat) planes."""

from __future__ import annotations

import json
import warnings

import pytest

from repro.datasets.builder import DatasetBuilder
from repro.net.world import WorldModel, scenario_covid2020
from repro.obs.progress import (
    PROGRESS_INTERVAL_S,
    NoopProgress,
    ProgressEmitter,
    default_progress,
    get_progress,
    use_progress,
)
from repro.obs.resources import (
    ResourceSnapshot,
    ResourceTracker,
    cpu_seconds,
    format_bytes,
    peak_rss_bytes,
    rss_bytes,
    thread_cpu_seconds,
)
from repro.runtime import CampaignEngine, PoolExecutor, SerialExecutor

DATASET = "2020it89-match-ejnw"  # two weeks, four observers: cheap but real


def _square(x: int) -> int:
    """Module-level so the pool executors can pickle it."""
    return x * x


@pytest.fixture(scope="module")
def world40() -> WorldModel:
    """A small-but-real world: enough blocks for a genuine pool dispatch."""
    return WorldModel(scenario_covid2020(), n_blocks=40, seed=7)


class TestResourceHelpers:
    def test_rss_probes_return_positive_bytes(self):
        # any live python process holds tens of MB resident
        assert peak_rss_bytes() > 1_000_000
        assert rss_bytes() > 1_000_000

    def test_peak_is_a_high_water_mark(self):
        before = peak_rss_bytes()
        ballast = bytearray(32 * 1024 * 1024)
        ballast[::4096] = b"x" * len(ballast[::4096])  # fault the pages in
        after = peak_rss_bytes()
        del ballast
        assert after >= before

    def test_cpu_clocks_are_monotone(self):
        c0, t0 = cpu_seconds(), thread_cpu_seconds()
        sum(i * i for i in range(200_000))
        assert cpu_seconds() >= c0
        assert thread_cpu_seconds() >= t0

    def test_snapshot_now_is_picklable_shape(self):
        snap = ResourceSnapshot.now()
        assert snap.rss_peak_bytes > 0
        assert snap.wall_s > 0

    def test_tracker_summary_keys_and_utilization(self):
        with ResourceTracker() as tracker:
            sum(i * i for i in range(200_000))
        summary = tracker.summary()
        for key in (
            "wall_s",
            "cpu_s",
            "cpu_utilization",
            "rss_bytes",
            "rss_peak_bytes",
            "rss_peak_delta_bytes",
        ):
            assert key in summary, key
        assert summary["wall_s"] > 0
        assert 0.0 <= summary["cpu_utilization"]

    def test_peak_never_reads_below_current_rss(self, monkeypatch, tmp_path):
        """``ru_maxrss`` can lag ``/proc/self/statm`` by a few pages; a
        reported peak is the larger of the two."""
        from repro.obs import progress as progress_mod
        from repro.obs import resources as resources_mod

        current, high_water = 100 << 20, 99 << 20
        for mod in (resources_mod, progress_mod):
            monkeypatch.setattr(mod, "rss_bytes", lambda: current)
            monkeypatch.setattr(mod, "peak_rss_bytes", lambda: high_water)
        summary = ResourceTracker().summary()
        assert summary["rss_bytes"] == current
        assert summary["rss_peak_bytes"] == current
        assert summary["rss_peak_delta_bytes"] == 0
        emitter = ProgressEmitter(tmp_path, interval_s=0.0)
        emitter.begin("probes", 1)
        emitter.finish()
        for line in emitter.path.read_text().splitlines():
            record = json.loads(line)
            assert record["rss_bytes"] == current
            assert record["rss_peak_bytes"] == current

    def test_format_bytes(self):
        assert format_bytes(0) == "0 B"
        assert format_bytes(512) == "512 B"
        assert format_bytes(2048) == "2.0 KiB"
        assert format_bytes(5 * 1024 * 1024) == "5.0 MiB"
        assert format_bytes(3 * 1024**3) == "3.0 GiB"


class TestEngineResourceAccounting:
    def test_serial_run_reports_resources(self, world40):
        engine = CampaignEngine(SerialExecutor())
        result = DatasetBuilder(world40).analyze(DATASET, engine=engine)
        res = result.metrics.resources
        assert res is not None
        assert res["wall_s"] > 0
        assert res["cpu_s"] > 0
        assert res["rss_peak_bytes"] > 1_000_000
        assert "pool" not in res  # nothing crossed a process boundary
        report = result.metrics.report()
        assert "resources:" in report
        assert "cpu_s" in report  # per-stage column

    def test_parallel_run_reports_pool_payload(self, world40):
        # pool payload is measured during dispatch: no opt-in needed
        with CampaignEngine(PoolExecutor(workers=2)) as engine:
            result = DatasetBuilder(world40).analyze(DATASET, engine=engine)
            assert engine.executor.fallback_reason is None
        res = result.metrics.resources
        assert res is not None
        pool = res.get("pool")
        assert pool is not None
        assert set(pool) == {"fn_bytes", "task_bytes", "maps"}
        assert pool["fn_bytes"] > 0
        assert pool["task_bytes"] > 0
        assert pool["maps"] >= 1
        assert "pool:" in result.metrics.report()

    def test_payload_counts_each_byte_exactly_once(self):
        """fn_bytes is the job pickle times the chunks that carried it,
        task_bytes the summed task pickles; the run's pool section holds
        exactly those and the map count, and the executor's cumulative
        payload adds each byte once."""
        import pickle

        tasks = list(range(12))
        chunks = 6  # ceil(12 / (2 workers * 4)) = 2 tasks per chunk
        with CampaignEngine(PoolExecutor(workers=2)) as engine:
            run = engine.run(_square, tasks, label="square")
            assert engine.executor.fallback_reason is None
            payload = dict(engine.executor.payload)
        assert list(run.results) == [t * t for t in tasks]
        proto = pickle.HIGHEST_PROTOCOL
        fn_bytes = len(pickle.dumps(_square, protocol=proto)) * chunks
        task_bytes = sum(len(pickle.dumps(t, protocol=proto)) for t in tasks)
        assert run.metrics.resources is not None
        assert run.metrics.resources["pool"] == {
            "fn_bytes": fn_bytes,
            "task_bytes": task_bytes,
            "maps": 1,
        }
        # one run on a fresh executor: its cumulative payload is the run's
        assert {k: payload[k] for k in ("fn_bytes", "task_bytes", "maps")} == (
            run.metrics.resources["pool"]
        )

    def test_traced_run_reports_worker_resources(self, world40):
        from repro.obs.trace import Tracer, use_tracer

        engine = CampaignEngine(SerialExecutor())
        with use_tracer(Tracer()):
            result = DatasetBuilder(world40).analyze(DATASET, engine=engine)
        res = result.metrics.resources
        assert res is not None
        workers = res.get("workers")
        assert workers is not None
        # the chunk job reports once per block it carried
        assert workers["tasks"] == world40.n_blocks
        assert workers["rss_peak_bytes"] > 0
        assert "workers:" in result.metrics.report()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_traced_run_record_matches_untraced(self, world40, tmp_path, workers):
        """Tracing adds the ``workers`` entry and changes no other section.

        One traced campaign (serial, or through a 2-worker pool), sharded
        and cached, against an untraced one on the same executor: stage
        counts, funnel, cache and shard sections agree; only timings
        differ."""
        from contextlib import nullcontext

        from repro.obs.trace import Tracer, use_tracer
        from repro.runtime import AnalysisCache

        def run(executor, cache_dir, tracer=None):
            engine = CampaignEngine(executor, AnalysisCache(tmp_path / cache_dir), shards=2)
            scope = nullcontext() if tracer is None else use_tracer(tracer)
            with engine, scope:
                return DatasetBuilder(world40).analyze(DATASET, engine=engine).metrics

        def executor():
            return SerialExecutor() if workers == 1 else PoolExecutor(workers=workers)

        untraced = run(executor(), "untraced")
        traced = run(executor(), "traced", tracer=Tracer())

        assert traced.executor == untraced.executor
        assert traced.fallback is None
        assert "workers" not in untraced.resources
        res_workers = traced.resources["workers"]
        assert res_workers["tasks"] == world40.n_blocks
        assert res_workers["cpu_s"] > 0.0
        assert res_workers["rss_peak_bytes"] > 0

        def counts(m):
            return {
                name: (t.calls, t.n_in, t.n_out, t.skips) for name, t in m.stages.items()
            }

        assert counts(traced) == counts(untraced)
        assert traced.funnel == untraced.funnel
        assert traced.cache == untraced.cache
        assert traced.shards == untraced.shards

    def test_resources_roundtrip_through_dict(self, world40):
        from repro.runtime import RunMetrics

        engine = CampaignEngine(SerialExecutor())
        result = DatasetBuilder(world40).analyze(DATASET, engine=engine)
        reloaded = RunMetrics.from_dict(
            json.loads(json.dumps(result.metrics.as_dict()))
        )
        assert reloaded.resources == result.metrics.resources
        assert reloaded.report() == result.metrics.report()
        # run.json files saved before the one-phase dispatch carry a
        # since-dropped "batched" section; it is ignored on load
        saved = {**result.metrics.as_dict(), "batched": {"blocks": 1}}
        assert RunMetrics.from_dict(saved).report() == result.metrics.report()

    def test_active_tracemalloc_reaches_resources_and_report(self, world40):
        import tracemalloc

        started_here = not tracemalloc.is_tracing()
        if started_here:
            tracemalloc.start()
        try:
            engine = CampaignEngine(SerialExecutor())
            result = DatasetBuilder(world40).analyze(
                DATASET, blocks=list(world40.blocks)[:4], engine=engine
            )
        finally:
            if started_here:
                tracemalloc.stop()
        tm = result.metrics.resources["tracemalloc"]
        assert set(tm) == {"current_bytes", "peak_bytes", "delta_bytes"}
        assert tm["peak_bytes"] > 0
        assert "tracemalloc:" in result.metrics.report()

    def test_stage_totals_from_dict_ignores_retired_keys(self):
        from repro.runtime.engine import StageTotals

        saved = StageTotals(calls=2, wall_s=0.5, cpu_s=0.4, n_in=3, n_out=1).as_dict()
        # run.json files written by older versions carry since-dropped fields
        assert StageTotals.from_dict({**saved, "retired_field": 7}) == StageTotals.from_dict(
            saved
        )

    def test_accounting_preserves_byte_identity(self, world40):
        import pickle

        serial = DatasetBuilder(world40).analyze(
            DATASET, engine=CampaignEngine(SerialExecutor())
        )
        with CampaignEngine(PoolExecutor(workers=2)) as engine:
            parallel = DatasetBuilder(world40).analyze(DATASET, engine=engine)
        for cidr, analysis in parallel.analyses.items():
            assert pickle.dumps(analysis) == pickle.dumps(serial.analyses[cidr])


class TestProgressEmitter:
    def test_ambient_default_is_noop(self):
        assert type(get_progress()) is NoopProgress

    def test_engine_run_leaves_at_least_two_heartbeats(self, world40, tmp_path):
        emitter = ProgressEmitter(tmp_path, interval_s=0.0)
        with use_progress(emitter):
            engine = CampaignEngine(SerialExecutor())
            DatasetBuilder(world40).analyze(DATASET, engine=engine)
        lines = [
            json.loads(line)
            for line in emitter.path.read_text().splitlines()
            if line.strip()
        ]
        assert len(lines) >= 2
        assert lines[0]["event"] == "start"
        assert lines[-1]["event"] == "finish"
        assert lines[-1]["done"] == lines[-1]["total"] == world40.n_blocks
        assert lines[-1]["rss_bytes"] > 0
        assert lines[-1]["blocks_per_sec"] > 0

    def test_unwritable_sink_warns_once_and_degrades(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file where the directory should be")
        emitter = ProgressEmitter(target / "sub", interval_s=0.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            emitter.begin("x", 4)
            emitter.tick()
            emitter.finish()
        sink_warnings = [w for w in caught if "progress sink" in str(w.message)]
        assert len(sink_warnings) == 1  # one warning, then silence
        assert emitter._disabled

    def test_default_progress_reads_environment(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_PROGRESS", raising=False)
        assert type(default_progress()) is NoopProgress
        monkeypatch.setenv("REPRO_PROGRESS", str(tmp_path))
        emitter = default_progress()
        assert isinstance(emitter, ProgressEmitter)
        assert emitter.directory == tmp_path
        assert emitter.interval_s == PROGRESS_INTERVAL_S == 2.0

    def test_interval_rate_limits_mid_run_ticks(self, tmp_path):
        emitter = ProgressEmitter(tmp_path, interval_s=3600.0)
        emitter.begin("x", 100)
        for _ in range(50):
            emitter.tick()
        emitter.finish()
        lines = emitter.path.read_text().splitlines()
        # forced start + forced finish only; no tick squeezed between
        assert len(lines) == 2


class TestCliAcceptance:
    def test_fig3_metrics_and_progress(self, tmp_path, monkeypatch, capsys):
        """The ISSUE acceptance path: fig3 with --metrics --progress."""
        from repro.cli import main as cli_main
        from repro.obs.progress import set_progress

        monkeypatch.setenv("REPRO_SCALE", "16")
        monkeypatch.delenv("REPRO_PROGRESS", raising=False)
        sink = tmp_path / "progress"
        try:
            code = cli_main(["--metrics", "--progress", str(sink), "fig3"])
        finally:
            set_progress(NoopProgress())  # the CLI installs process-wide
        assert code == 0
        err = capsys.readouterr().err
        assert "resources:" in err
        assert "cpu" in err and "rss" in err
        heartbeats = [
            json.loads(line)
            for line in (sink / "progress.jsonl").read_text().splitlines()
            if line.strip()
        ]
        assert len(heartbeats) >= 2
