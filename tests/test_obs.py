"""Unit tests for the telemetry subsystem (repro.obs) and its engine hooks."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.core.stages import StageContext
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MaxGauge,
    MetricsRegistry,
    get_registry,
    scoped_registry,
)
from repro.obs.sinks import git_describe, load_run, render_report, write_run
from repro.obs.trace import NOOP, Tracer, get_tracer, use_tracer
from repro.runtime import (
    CampaignEngine,
    RunMetrics,
    SerialExecutor,
    PoolExecutor,
    StageTotals,
    default_engine,
)


def _square(x: int) -> int:
    return x * x


class TestTracer:
    def test_default_is_noop(self):
        tracer = get_tracer()
        assert tracer is NOOP
        assert not tracer.enabled
        with tracer.span("anything") as handle:
            handle.set(ignored=True)  # must be accepted and dropped
        assert tracer.finished == ()

    def test_nesting_records_parentage(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
        inner, outer_rec = tracer.finished  # inner closes first
        assert inner.name == "inner" and outer_rec.name == "outer"
        assert inner.parent_id == outer_rec.span_id
        assert outer_rec.parent_id is None
        assert inner.trace_id == outer_rec.trace_id == tracer.trace_id
        assert inner.wall_s >= 0.0 and inner.start_unix > 0.0

    def test_root_parent_id_attaches_fragments(self):
        fragment = Tracer(trace_id="t", root_parent_id="campaign-span")
        with fragment.span("block"):
            pass
        assert fragment.finished[0].parent_id == "campaign-span"

    def test_annotate_sets_attrs_on_innermost_span(self):
        tracer = Tracer()
        with tracer.span("block"):
            tracer.annotate(block="1.2.3.0/24")
        assert tracer.finished[0].attrs["block"] == "1.2.3.0/24"
        tracer.annotate(dropped=True)  # no open span: silently ignored

    def test_tags_apply_to_spans_closed_inside(self):
        tracer = Tracer()
        with tracer.tagged(protocol="s3.4"):
            with tracer.span("campaign"):
                pass
        with tracer.span("untagged"):
            pass
        tagged, untagged = tracer.finished
        assert tagged.attrs["protocol"] == "s3.4"
        assert "protocol" not in untagged.attrs

    def test_use_tracer_restores_previous(self):
        tracer = Tracer()
        with use_tracer(tracer):
            assert get_tracer() is tracer
        assert get_tracer() is NOOP

    def test_adopt_and_span_record_roundtrip(self):
        tracer = Tracer()
        with tracer.span("a", attrs={"k": 1}):
            pass
        record = tracer.finished[0]
        other = Tracer()
        other.adopt([record])
        assert other.finished == [record]
        clone = type(record).from_dict(json.loads(json.dumps(record.as_dict())))
        assert clone == record

    def test_span_closes_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert tracer.finished[0].name == "boom"
        assert tracer.current_span_id is None


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        reg.gauge("g").set(2.5)
        hist = reg.histogram("h", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            hist.observe(v)
        snap = reg.snapshot()
        assert snap["c"] == {"type": "counter", "value": 5}
        assert snap["g"] == {"type": "gauge", "value": 2.5}
        assert snap["h"]["counts"] == [1, 1, 1]  # <=0.1, <=1.0, overflow
        assert snap["h"]["count"] == 3 and snap["h"]["sum"] == pytest.approx(5.55)

    def test_histogram_bucket_edges_are_le(self):
        hist = Histogram(buckets=(1.0, 2.0))
        hist.observe(1.0)  # on the boundary: belongs to the <=1.0 bucket
        assert hist.counts == [1, 0, 0]

    def test_histogram_quantile_and_mean(self):
        hist = Histogram(buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.5, 3.0):
            hist.observe(v)
        assert hist.mean == pytest.approx(1.625)
        assert hist.quantile(0.5) == 2.0
        assert Histogram().quantile(0.9) == 0.0

    def test_invalid_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(buckets=(1.0, 1.0))

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_snapshot_reset(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        snap = reg.reset()
        assert snap["c"]["value"] == 3
        assert len(reg) == 0

    def test_merge_folds_worker_snapshots(self):
        worker = MetricsRegistry()
        worker.counter("c").inc(2)
        worker.gauge("g").set(7)
        worker.histogram("h", buckets=(1.0,)).observe(0.5)
        parent = MetricsRegistry()
        parent.counter("c").inc(1)
        parent.merge(worker.snapshot())
        parent.merge(worker.snapshot())
        snap = parent.snapshot()
        assert snap["c"]["value"] == 5
        assert snap["g"]["value"] == 7.0
        assert snap["h"]["counts"] == [2, 0] and snap["h"]["count"] == 2

    def test_merge_bucket_mismatch_raises(self):
        parent = MetricsRegistry()
        parent.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="bucket mismatch"):
            parent.merge(
                {"h": {"type": "histogram", "bounds": [5.0], "counts": [0, 0], "sum": 0.0, "count": 0}}
            )

    def test_scoped_registry_isolates_and_restores(self):
        outer = get_registry()
        with scoped_registry() as inner:
            assert get_registry() is inner
            inner.counter("only-here").inc()
        assert get_registry() is outer
        assert "only-here" not in outer.snapshot()

    def test_max_gauge_keeps_high_water(self):
        gauge = MaxGauge()
        gauge.set(5.0)
        gauge.set(3.0)  # lower values never pull the high-water down
        assert gauge.value == 5.0
        gauge.set(9.0)
        assert gauge.as_dict() == {"type": "max", "value": 9.0}

    def test_max_gauge_merge_takes_max(self):
        parent = MetricsRegistry()
        parent.max_gauge("m").set(4.0)
        worker = MetricsRegistry()
        worker.max_gauge("m").set(7.0)
        parent.merge(worker.snapshot())
        assert parent.snapshot()["m"]["value"] == 7.0
        parent.merge({"m": {"type": "max", "value": 2.0}})
        assert parent.snapshot()["m"]["value"] == 7.0

    @staticmethod
    def _worker_snapshot(seed: int) -> dict:
        reg = MetricsRegistry()
        reg.counter("c").inc(seed)
        reg.gauge("g").set(float(seed))
        reg.max_gauge("m").set(float(seed * 3))
        hist = reg.histogram("h", buckets=(1.0, 2.0))
        # boundary values on purpose: 1.0 and 2.0 land in their <= bucket
        for value in (0.5, 1.0, 2.0, float(seed)):
            hist.observe(value)
        return reg.snapshot()

    def test_merge_of_merged_equals_merge_of_originals(self):
        """Merging is associative: pre-folding worker pairs changes nothing.

        This is the property the engine relies on when parallel workers
        ship snapshots home in arbitrary interleavings: any grouping of
        the same snapshots must fold to the same totals.
        """
        snaps = [self._worker_snapshot(s) for s in (1, 2, 3, 4)]

        flat = MetricsRegistry()
        for snap in snaps:
            flat.merge(snap)

        left = MetricsRegistry()
        left.merge(snaps[0])
        left.merge(snaps[1])
        right = MetricsRegistry()
        right.merge(snaps[2])
        right.merge(snaps[3])
        grouped = MetricsRegistry()
        grouped.merge(left.snapshot())
        grouped.merge(right.snapshot())

        # order-preserving grouping (what staged merging does) is exact;
        # counters/histograms/max-gauges are order-insensitive outright,
        # plain gauges keep last-write-wins semantics either way
        assert grouped.snapshot() == flat.snapshot()

    def test_merge_preserves_histogram_bucket_edges(self):
        """Boundary observations stay in their <= bucket across a merge."""
        worker = MetricsRegistry()
        worker.histogram("h", buckets=(1.0, 2.0)).observe(1.0)
        worker.histogram("h").observe(2.0)
        parent = MetricsRegistry()
        parent.histogram("h", buckets=(1.0, 2.0)).observe(1.0)
        parent.merge(worker.snapshot())
        snap = parent.snapshot()["h"]
        assert snap["counts"] == [2, 1, 0]
        assert snap["count"] == 3


class TestTracedEngineRun:
    def test_traced_run_adopts_block_spans_and_meters(self):
        tracer = Tracer()
        engine = CampaignEngine(SerialExecutor())
        run = engine.run(_square, [1, 2, 3], label="squares", tracer=tracer)
        assert run.results == [1, 4, 9]
        names = [s.name for s in tracer.finished]
        assert names.count("block") == 3 and names.count("campaign") == 1
        campaign = next(s for s in tracer.finished if s.name == "campaign")
        assert campaign.attrs["label"] == "squares"
        blocks = [s for s in tracer.finished if s.name == "block"]
        assert all(b.parent_id == campaign.span_id for b in blocks)
        assert run.metrics.meters["engine.tasks"]["value"] == 3

    def test_traced_parallel_matches_serial_results(self):
        tracer = Tracer()
        with CampaignEngine(PoolExecutor(workers=2)) as engine:
            run = engine.run(_square, list(range(10)), label="p", tracer=tracer)
        assert run.results == [i * i for i in range(10)]
        assert sum(1 for s in tracer.finished if s.name == "block") == 10

    def test_untraced_run_has_no_meters(self):
        run = CampaignEngine(SerialExecutor()).run(_square, [1, 2], label="u")
        assert run.metrics.meters is None


class TestSatelliteFixes:
    def test_blocks_per_sec_zero_time_and_empty(self):
        assert RunMetrics("x", "serial", n_tasks=5, wall_s=0.0).blocks_per_sec == 0.0
        assert RunMetrics("x", "serial", n_tasks=0, wall_s=0.0).blocks_per_sec == 0.0
        assert RunMetrics("x", "serial", n_tasks=0, wall_s=2.0).blocks_per_sec == 0.0
        assert RunMetrics("x", "serial", n_tasks=4, wall_s=2.0).blocks_per_sec == 2.0
        exported = json.dumps(RunMetrics("x", "serial", 5, 0.0).as_dict())
        assert "Infinity" not in exported

    def test_default_engine_warns_on_garbage_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.warns(RuntimeWarning, match="'many' is not an integer"):
            engine = default_engine()
        assert isinstance(engine.executor, SerialExecutor)

    def test_default_engine_clamps_negative_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "-3")
        with pytest.warns(RuntimeWarning, match="'-3' is negative"):
            engine = default_engine()
        assert isinstance(engine.executor, SerialExecutor)

    def test_default_engine_valid_values_stay_silent(self, monkeypatch):
        import warnings as warnings_mod

        for value, executor_cls in [("0", SerialExecutor), ("3", PoolExecutor)]:
            monkeypatch.setenv("REPRO_WORKERS", value)
            with warnings_mod.catch_warnings():
                warnings_mod.simplefilter("error")
                with default_engine() as engine:
                    assert isinstance(engine.executor, executor_cls)

    def test_stage_context_as_dict_aggregates_duplicates(self):
        ctx = StageContext()
        with ctx.stage("repair", n_in=10) as active:
            active.n_out = 9
        with ctx.stage("repair", n_in=9) as active:
            active.n_out = 8
        d = ctx.as_dict()["repair"]
        assert d["calls"] == 2
        assert d["n_in"] == 9 and d["n_out"] == 8  # most recent invocation
        assert d["wall_s"] == pytest.approx(ctx.total_wall_s)

    def test_stage_context_as_dict_single_call_has_calls_one(self):
        ctx = StageContext()
        ctx.skip("detect", "no-trend")
        assert ctx.as_dict()["detect"] == {
            "wall_s": 0.0,
            "cpu_s": 0.0,
            "n_in": 0,
            "n_out": 0,
            "skipped": "no-trend",
            "calls": 1,
        }


class TestSinks:
    def _run_metrics(self) -> RunMetrics:
        return RunMetrics(
            label="analyze:test",
            executor="serial",
            n_tasks=3,
            wall_s=0.25,
            stages={"repair": StageTotals(calls=3, wall_s=0.01, n_in=30, n_out=30)},
            funnel={"routed": 3, "responsive": 2},
        )

    def test_write_load_roundtrip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("run", attrs={"experiment": "test"}):
            with tracer.span("campaign"):
                pass
        metrics = self._run_metrics()
        out = write_run(
            tmp_path / "trace",
            tracer=tracer,
            runs=[metrics],
            label="test",
            meters={"c": {"type": "counter", "value": 1}},
        )
        saved = load_run(out)
        assert saved.manifest["label"] == "test"
        assert saved.manifest["trace_id"] == tracer.trace_id
        assert saved.manifest["n_spans"] == 2
        assert saved.manifest["funnel"] == {"routed": 3, "responsive": 2}
        assert saved.manifest["meters"]["c"]["value"] == 1
        assert saved.spans == tracer.finished
        assert len(saved.runs) == 1
        assert saved.runs[0].report() == metrics.report()
        children = saved.span_children()
        (root,) = children[None]
        assert root.name == "run"

    def test_render_report_contains_tables_and_header(self, tmp_path):
        tracer = Tracer()
        with tracer.span("run"):
            pass
        out = write_run(tmp_path, tracer=tracer, runs=[self._run_metrics()], label="t")
        text = render_report(load_run(out))
        assert "run 't'" in text
        assert "REPRO_SCALE" in text
        assert self._run_metrics().report() in text

    def test_load_run_requires_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="run.json"):
            load_run(tmp_path)

    def test_manifest_is_valid_strict_json(self, tmp_path):
        tracer = Tracer()
        # zero-time metrics must not leak Infinity into the manifest
        zero = RunMetrics(label="z", executor="serial", n_tasks=0, wall_s=0.0)
        out = write_run(tmp_path, tracer=tracer, runs=[zero], label="z")
        for name in ("run.json", "metrics.jsonl"):
            text = (out / name).read_text()
            assert "Infinity" not in text and "NaN" not in text

    def test_git_describe_is_string_or_none(self):
        desc = git_describe()
        assert desc is None or (isinstance(desc, str) and desc)
