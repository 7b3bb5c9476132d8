"""Integration test: pipeline outage corroboration (§2.6 cross-check)."""

from __future__ import annotations

from datetime import datetime

from repro.core.pipeline import BlockPipeline
from repro.experiments.common import observe_blocks, site_lanes
from repro.net.events import Calendar, Outage
from repro.net.prober import probe_order
from repro.net.usage import DynamicPoolUsage, round_grid

EPOCH = datetime(2020, 1, 1)


def _analyze(corroborate: bool, seed: int = 81):
    calendar = Calendar(
        epoch=EPOCH,
        tz_hours=0.0,
        # a 30-hour outage mid-month: long enough for unpaired alarms
        events=(Outage(start_s=14 * 86_400.0, end_s=14 * 86_400.0 + 30 * 3600.0),),
    )
    usage = DynamicPoolUsage(pool_size=48, peak=0.8, trough=0.1, quiet_week_probability=0.0)
    truth = usage.generate(seed, round_grid(28 * 86_400.0), calendar)
    order = probe_order(truth.n_addresses, seed)
    # the four sites' lanes, probed in one call
    [logs] = observe_blocks([site_lanes(truth, order, seed, 97.0)])
    pipeline = BlockPipeline(detect_on_all=True, corroborate_outages=corroborate)
    return pipeline.analyze(logs, truth.addresses)


class TestPipelineCorroboration:
    def test_outage_events_confirmed_when_enabled(self):
        analysis = _analyze(corroborate=True)
        assert analysis.changes is not None
        near = [
            e
            for e in analysis.changes.events
            if 13 <= e.day <= 17
        ]
        assert near, "the injected outage should produce change events"
        assert any(
            e.cause in ("outage-confirmed", "outage-like") for e in near
        )
        # nothing near the outage survives as a human candidate
        assert not [e for e in near if e.cause == "human-candidate"]

    def test_flag_off_keeps_paired_label_only(self):
        analysis = _analyze(corroborate=False)
        assert analysis.changes is not None
        assert not any(
            e.cause == "outage-confirmed" for e in analysis.changes.events
        )
