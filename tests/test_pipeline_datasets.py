"""Integration tests: the block pipeline and the dataset builder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import BlockPipeline
from repro.datasets.builder import DatasetBuilder
from repro.datasets.catalog import CATALOG, TRINOCULAR_SITES, dataset


class TestCatalog:
    def test_paper_datasets_present(self):
        for name in (
            "2019q4-w",
            "2020q1-w",
            "2020q1-ejnw",
            "2020m1-ejnw",
            "2020h1-ejnw",
            "2020it89-w",
            "2023q1-ejnw",
        ):
            assert name in CATALOG

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError, match="unknown dataset"):
            dataset("2019q9-z")

    def test_survey_flag(self):
        assert dataset("2020it89-w").survey
        assert not dataset("2020q1-w").survey

    def test_window_resolution(self):
        from datetime import datetime

        ds = dataset("2020q1-w")
        start = ds.start_s(datetime(2019, 10, 1))
        assert start == pytest.approx(92 * 86_400.0)
        assert ds.duration_s == pytest.approx(12 * 7 * 86_400.0)

    def test_observer_names_are_known_sites(self):
        for ds in CATALOG.values():
            for obs in ds.observers:
                assert obs in TRINOCULAR_SITES or obs == "survey"

    def test_it89_matches_paper_dates(self):
        from datetime import date

        assert dataset("2020it89-w").start == date(2020, 2, 19)
        assert dataset("2020it89-w").weeks == 2


class TestPipeline:
    def test_full_pipeline_on_workplace_block(self, workplace_block):
        _, truth, order, log = workplace_block
        analysis = BlockPipeline().analyze([log], truth.addresses)
        assert analysis.classification.responsive
        assert analysis.classification.is_diurnal
        assert analysis.is_change_sensitive
        # 14 days, no WFH: no downward human changes expected far from edges
        assert analysis.trend is not None

    def test_detect_on_all_forces_trend(self, workplace_block):
        _, truth, order, log = workplace_block
        pipeline = BlockPipeline(
            detect_on_all=True,
        )
        analysis = pipeline.analyze([log], truth.addresses)
        assert analysis.trend is not None
        assert analysis.changes is not None

    def test_no_trend_without_change_sensitivity(self, workplace_block):
        _, truth, order, log = workplace_block
        # an empty E(b) intersection makes the block unresponsive
        analysis = BlockPipeline().analyze([log], np.array([250, 251], dtype=np.int16))
        assert not analysis.classification.responsive
        assert analysis.trend is None
        assert analysis.downward_change_days() == ()

    def test_repair_toggle_changes_nothing_without_loss(self, workplace_block):
        _, truth, order, log = workplace_block
        with_repair = BlockPipeline(apply_repair=True).analyze([log], truth.addresses)
        without = BlockPipeline(apply_repair=False).analyze([log], truth.addresses)
        a = with_repair.reconstruction.counts.dropna()
        b = without.reconstruction.counts.dropna()
        # near-lossless path: repair flips (almost) nothing
        assert abs(len(a) - len(b)) < 5


class TestDatasetBuilder:
    @pytest.fixture(scope="class")
    def builder(self, small_world):
        return DatasetBuilder(small_world)

    def test_observe_dataset_returns_one_log_per_observer(self, builder, small_world):
        spec = next(s for s in small_world.blocks if s.responsive_by_design)
        logs = builder.observe_dataset(spec, "2020m1-ejnw")
        assert [log.observer for log in logs] == ["e", "j", "n", "w"]

    def test_observers_differ(self, builder, small_world):
        spec = next(s for s in small_world.blocks if s.responsive_by_design)
        logs = builder.observe_dataset(spec, "2020m1-ejnw")
        assert not np.array_equal(logs[0].times, logs[1].times)

    def test_analyze_counts_firewalled_blocks_as_unresponsive(self, builder):
        result = builder.analyze("2020m1-w")
        funnel = result.funnel()
        assert funnel.routed == 60
        assert funnel.not_responsive >= sum(
            not s.responsive_by_design for s in builder.world.blocks
        )

    def test_funnel_arithmetic(self, builder):
        funnel = builder.analyze("2020m1-w").funnel()
        assert funnel.responsive + funnel.not_responsive == funnel.routed
        assert funnel.diurnal + funnel.not_diurnal == funnel.responsive
        assert funnel.wide_swing + funnel.narrow_swing == funnel.responsive
        assert (
            funnel.change_sensitive + funnel.not_change_sensitive == funnel.responsive
        )

    def test_records_have_geo(self, builder):
        result = builder.analyze("2020m1-w")
        records = result.records()
        assert len(records) == 60
        assert all(r.geo.country for r in records)

    def test_availability_in_unit_interval(self, builder, small_world):
        spec = next(s for s in small_world.blocks if s.responsive_by_design)
        truth = builder.truth(spec, 0.0, 14 * 86_400.0)
        a = builder.availability(spec, 0.0, 14 * 86_400.0, truth=truth)
        assert 0.0 <= a <= 1.0

    def test_survey_dataset_probes_every_address_each_round(self, builder, small_world):
        spec = next(s for s in small_world.blocks if s.responsive_by_design)
        survey_logs = builder.observe_dataset(spec, "2020it89-w")
        assert len(survey_logs) == 1
        log = survey_logs[0]
        truth = builder.truth(spec, log.times[0], 1.0)
        n_rounds = int(np.ceil(dataset("2020it89-w").duration_s / 660.0))
        assert len(log) == pytest.approx(n_rounds * truth.n_addresses, rel=0.01)
