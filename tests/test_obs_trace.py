"""End-to-end trace round-trip: traced fig3 run -> JSONL -> repro report.

Satellite coverage for the telemetry tentpole: a traced parallel fig3
run at ``REPRO_SCALE=64`` is written to a tmpdir, reloaded from disk,
and checked for (a) a single rooted span tree including per-worker
block spans, (b) stage wall-times consistent between spans and
``RunMetrics``, (c) a report rendered from disk that matches the live
``--metrics`` tables, and (d) serial==parallel byte-identical analyses
with tracing enabled.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro import cli
from repro.datasets.builder import DatasetBuilder
from repro.experiments.common import covid_world
from repro.obs.sinks import load_run
from repro.obs.trace import NOOP, Tracer, get_tracer, use_tracer
from repro.runtime import CampaignEngine, SerialExecutor, PoolExecutor, drain_run_log

FIG3_DATASET = "2020q1-ejnw"


@pytest.fixture(scope="module")
def traced_fig3(tmp_path_factory):
    """One traced parallel fig3 CLI run; yields (trace dir, live RunMetrics)."""
    trace_dir = tmp_path_factory.mktemp("fig3-trace")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_SCALE", "64")
        mp.setenv("REPRO_WORKERS", "2")  # restored even though the CLI overwrites it
        drain_run_log()  # isolate from engine runs earlier in the session
        code = cli.main(["--workers", "2", "--trace", str(trace_dir), "fig3"])
        live_runs = drain_run_log()
    assert code == 0
    assert get_tracer() is NOOP  # the CLI uninstalled its tracer
    return trace_dir, live_runs


class TestTraceRoundTrip:
    def test_manifest_is_reconstructable(self, traced_fig3):
        trace_dir, _ = traced_fig3
        manifest = json.loads((trace_dir / "run.json").read_text())
        assert manifest["label"] == "fig3"
        assert manifest["env"] == {"REPRO_SCALE": "64", "REPRO_WORKERS": "2"}
        assert manifest["executors"] == ["pool[2]"]
        assert manifest["funnel"]["routed"] == 64
        assert manifest["wall_s"] > 0.0
        assert manifest["n_engine_runs"] == 2  # analyze + fig3:scan
        # probe volumes shipped home from the workers
        assert manifest["meters"]["probes.sent.trinocular"]["value"] > 0

    def test_spans_form_single_rooted_tree(self, traced_fig3):
        trace_dir, _ = traced_fig3
        saved = load_run(trace_dir)
        spans = saved.spans
        ids = [s.span_id for s in spans]
        assert len(set(ids)) == len(ids), "span ids must be unique"
        roots = [s for s in spans if s.parent_id is None]
        assert len(roots) == 1 and roots[0].name == "run"
        id_set = set(ids)
        for span in spans:
            if span.parent_id is not None:
                assert span.parent_id in id_set, f"orphan span {span.name}"
        assert {s.trace_id for s in spans} == {saved.manifest["trace_id"]}

    def test_block_spans_cover_all_tasks_across_workers(self, traced_fig3):
        trace_dir, _ = traced_fig3
        saved = load_run(trace_dir)
        blocks = [s for s in saved.spans if s.name == "block"]
        n_tasks = sum(r["n_tasks"] for r in saved.manifest["runs"])
        assert len(blocks) == n_tasks
        pids = {s.attrs["pid"] for s in blocks}
        assert len(pids) >= 1  # worker pids shipped back across the pool
        campaigns = {s.span_id for s in saved.spans if s.name == "campaign"}
        assert all(b.parent_id in campaigns for b in blocks)
        # the analysis job annotated its spans from inside the workers
        assert any("block" in b.attrs for b in blocks)

    def test_stage_span_walltimes_match_run_metrics(self, traced_fig3):
        trace_dir, _ = traced_fig3
        saved = load_run(trace_dir)
        analyze = next(r for r in saved.runs if r.label.startswith("analyze:"))
        campaign = next(
            s
            for s in saved.spans
            if s.name == "campaign" and s.attrs["label"] == analyze.label
        )
        block_ids = {
            s.span_id for s in saved.spans if s.parent_id == campaign.span_id
        }
        span_wall: dict[str, float] = {}
        span_calls: dict[str, int] = {}
        for s in saved.spans:
            if s.parent_id in block_ids and s.name.startswith("stage:"):
                stage = s.name.removeprefix("stage:")
                span_wall[stage] = span_wall.get(stage, 0.0) + s.wall_s
                span_calls[stage] = span_calls.get(stage, 0) + 1
        assert set(span_wall) == {n for n, t in analyze.stages.items() if t.calls}
        for stage, total in span_wall.items():
            recorded = analyze.stages[stage].wall_s
            assert total == pytest.approx(recorded, rel=0.05, abs=0.1), stage
            assert span_calls[stage] == analyze.stages[stage].calls

    def test_report_matches_live_metrics_output(self, traced_fig3, capsys):
        trace_dir, live_runs = traced_fig3
        assert cli.main(["report", str(trace_dir)]) == 0
        out = capsys.readouterr().out
        assert len(live_runs) == 2
        for live in live_runs:
            assert live.report() in out, f"saved report diverged for {live.label!r}"

    def test_report_on_missing_directory_fails_cleanly(self, tmp_path, capsys):
        assert cli.main(["report", str(tmp_path / "nope")]) == 2
        assert "run.json" in capsys.readouterr().err


class TestTracingDoesNotPerturbResults:
    def test_serial_parallel_byte_identical_with_tracing(self):
        world = covid_world(64, 26, diurnal_boost=2.0)  # the fig3 world
        dataset = "2020it89-match-ejnw"  # two weeks: cheap but real
        untraced = DatasetBuilder(world).analyze(
            dataset, engine=CampaignEngine(SerialExecutor())
        )
        with use_tracer(Tracer()):
            serial = DatasetBuilder(world).analyze(
                dataset, engine=CampaignEngine(SerialExecutor())
            )
        executor = PoolExecutor(workers=2)
        with use_tracer(Tracer()), CampaignEngine(executor) as engine:
            parallel = DatasetBuilder(world).analyze(dataset, engine=engine)
        assert executor.fallback_reason is None
        assert list(serial.analyses) == list(untraced.analyses) == list(parallel.analyses)
        for cidr, analysis in untraced.analyses.items():
            reference = pickle.dumps(analysis)
            assert pickle.dumps(serial.analyses[cidr]) == reference
            assert pickle.dumps(parallel.analyses[cidr]) == reference

    def test_cached_traced_runs_byte_identical(self, tmp_path):
        """Cold, warm, and traced-warm cached runs all match the baseline."""
        from repro.runtime import AnalysisCache

        world = covid_world(64, 26, diurnal_boost=2.0)
        dataset = "2020it89-match-ejnw"
        baseline = DatasetBuilder(world).analyze(
            dataset, engine=CampaignEngine(SerialExecutor())
        )
        cold_engine = CampaignEngine(SerialExecutor(), AnalysisCache(tmp_path))
        cold = DatasetBuilder(world).analyze(dataset, engine=cold_engine)
        assert cold.metrics.cache["misses"] == 64
        with use_tracer(Tracer()) as tracer, CampaignEngine(
            PoolExecutor(workers=2), AnalysisCache(tmp_path)
        ) as warm_engine:
            warm = DatasetBuilder(world).analyze(dataset, engine=warm_engine)
        assert warm.metrics.cache == {"hits": 64, "misses": 0, "stores": 0}
        assert list(warm.analyses) == list(baseline.analyses)
        for cidr, analysis in baseline.analyses.items():
            reference = pickle.dumps(analysis)
            assert pickle.dumps(cold.analyses[cidr]) == reference
            assert pickle.dumps(warm.analyses[cidr]) == reference
        # the traced campaign span advertises its hit count
        campaign_spans = [s for s in tracer.finished if s.name == "campaign"]
        assert any(s.attrs.get("cache_hits") == 64 for s in campaign_spans)

    def test_without_trace_flag_no_files_are_written(self, tmp_path, monkeypatch):
        # engine runs plus --metrics must never write anything to disk
        monkeypatch.chdir(tmp_path)
        engine = CampaignEngine(SerialExecutor())
        engine.run(len, [[1], [2, 2]], label="no-files")
        assert list(tmp_path.iterdir()) == []
