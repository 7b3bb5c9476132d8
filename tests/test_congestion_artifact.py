"""Regression test for the §3.3 failure mode.

"When congestion on the link is diurnal, it can falsely imply that
addresses in the target block are used diurnally."  A non-diurnal block
observed through a diurnally congested path must look diurnal before
1-loss repair and stop looking diurnal after it.
"""

from __future__ import annotations

from datetime import datetime

import numpy as np
import pytest

from repro.core.diurnal import DiurnalTest
from repro.core.reconstruction import reconstruct
from repro.core.repair import one_loss_repair
from repro.net.events import Calendar
from repro.net.loss import DiurnalCongestionLoss
from repro.net.prober import TrinocularObserver, probe_order
from repro.net.usage import SparseUsage, round_grid


@pytest.fixture(scope="module")
def congested_observation():
    calendar = Calendar(epoch=datetime(2023, 4, 1), tz_hours=8.0)
    usage = SparseUsage(
        n_addresses=120, mean_on_days=6.0, mean_off_days=3.0, stale_addresses=0
    )
    truth = usage.generate(7, round_grid(28 * 86_400.0), calendar)
    order = probe_order(truth.n_addresses, 7)
    loss = DiurnalCongestionLoss(base=0.04, peak=0.5, peak_hour=21.0, tz_hours=8.0)
    log = TrinocularObserver("w").observe(
        truth, order, loss, np.random.default_rng(3)
    )
    return truth, log


class TestCongestionArtifact:
    def test_ground_truth_is_not_diurnal(self, congested_observation):
        truth, _ = congested_observation
        from repro.timeseries.series import TimeSeries

        counts = TimeSeries(truth.col_times, truth.counts())
        verdict = DiurnalTest().evaluate(counts)
        assert not verdict.is_diurnal

    def test_congestion_fakes_diurnality(self, congested_observation):
        truth, log = congested_observation
        recon = reconstruct(log, truth.addresses, truth.col_times)
        verdict = DiurnalTest().evaluate(recon.counts)
        # the diurnal loss pattern leaks into the reconstruction
        assert verdict.energy_ratio > 0.3

    def test_repair_removes_the_artifact(self, congested_observation):
        truth, log = congested_observation
        raw = reconstruct(log, truth.addresses, truth.col_times)
        fixed = reconstruct(one_loss_repair(log), truth.addresses, truth.col_times)
        raw_ratio = DiurnalTest().evaluate(raw.counts).energy_ratio
        fixed_ratio = DiurnalTest().evaluate(fixed.counts).energy_ratio
        assert fixed_ratio < raw_ratio * 0.7

    def test_repair_restores_mean_activity(self, congested_observation):
        truth, log = congested_observation
        fixed = reconstruct(one_loss_repair(log), truth.addresses, truth.col_times)
        good = np.isfinite(fixed.counts.values)
        recon_mean = float(fixed.counts.values[good].mean())
        truth_mean = float(truth.counts().mean())
        assert recon_mean == pytest.approx(truth_mean, rel=0.1)
