"""Unit tests for the observer simulators."""

from __future__ import annotations

from datetime import datetime

import numpy as np
import pytest

from repro.net.events import Calendar
from repro.net.loss import BernoulliLoss, NoLoss
from repro.net.prober import AdditionalProber, TrinocularObserver, probe_order
from repro.net.survey import SurveyObserver
from repro.net.usage import (
    NatGatewayUsage,
    ServerFarmUsage,
    SparseUsage,
    WorkplaceUsage,
    round_grid,
)

EPOCH = datetime(2020, 1, 1)


def make_truth(usage, days=2, seed=0):
    cal = Calendar(epoch=EPOCH, tz_hours=0.0)
    return usage.generate(seed, round_grid(days * 86_400.0), cal)


class TestProbeOrder:
    def test_is_permutation(self):
        order = probe_order(100, seed=5)
        assert sorted(order.tolist()) == list(range(100))

    def test_deterministic(self):
        assert np.array_equal(probe_order(50, 7), probe_order(50, 7))

    def test_seed_changes_order(self):
        assert not np.array_equal(probe_order(50, 7), probe_order(50, 8))


class TestTrinocularObserver:
    def test_stops_at_first_positive(self):
        # a fully responsive block: exactly one probe per round
        truth = make_truth(ServerFarmUsage(n_servers=64, maintenance_rate_per_day=0.0), days=1)
        order = probe_order(truth.n_addresses, 1)
        log = TrinocularObserver("e").observe(truth, order)
        rounds = np.unique(np.floor(log.times / 660.0))
        assert len(log) == rounds.size  # one probe per round
        assert log.results.all()

    def test_probes_up_to_limit_when_dark(self):
        truth = make_truth(SparseUsage(n_addresses=40, mean_on_days=0.0001, mean_off_days=100.0))
        # force everything off
        truth.active[:] = False
        order = probe_order(truth.n_addresses, 1)
        obs = TrinocularObserver("e", max_probes_per_round=15)
        log = obs.observe(truth, order)
        per_round = np.bincount(np.floor(log.times / 660.0).astype(int))
        assert per_round.max() == 15
        assert not log.results.any()

    def test_cursor_walks_fixed_order(self):
        truth = make_truth(NatGatewayUsage(n_routers=0, stale_addresses=8), days=1)
        truth.active[:] = False
        order = probe_order(truth.n_addresses, 2)
        log = TrinocularObserver("e", max_probes_per_round=4).observe(truth, order)
        expected = truth.addresses[order[np.arange(len(log)) % truth.n_addresses]]
        assert np.array_equal(log.addresses, expected)

    def test_phase_offset_shifts_times(self):
        truth = make_truth(NatGatewayUsage(n_routers=2, stale_addresses=0), days=1)
        order = probe_order(truth.n_addresses, 3)
        log = TrinocularObserver("e", phase_offset_s=123.0).observe(truth, order)
        assert log.times[0] == pytest.approx(123.0)

    def test_loss_converts_replies_to_silence(self):
        truth = make_truth(ServerFarmUsage(n_servers=32, maintenance_rate_per_day=0.0), days=2)
        order = probe_order(truth.n_addresses, 4)
        lossless = TrinocularObserver("e").observe(truth, order, NoLoss())
        lossy = TrinocularObserver("e").observe(
            truth, order, BernoulliLoss(0.3), np.random.default_rng(1)
        )
        assert lossless.reply_rate() == pytest.approx(1.0)
        assert 0.5 < lossy.reply_rate() < 0.9

    def test_window_limits(self):
        truth = make_truth(NatGatewayUsage(n_routers=2, stale_addresses=0), days=3)
        order = probe_order(truth.n_addresses, 5)
        log = TrinocularObserver("e").observe(
            truth, order, start_s=86_400.0, duration_s=86_400.0
        )
        assert log.times[0] >= 86_400.0
        assert log.times[-1] < 2 * 86_400.0

    def test_rejects_wrong_order_length(self):
        truth = make_truth(NatGatewayUsage(n_routers=2, stale_addresses=0), days=1)
        with pytest.raises(ValueError, match="permute"):
            TrinocularObserver("e").observe(truth, np.arange(5))

    def test_results_match_truth_without_loss(self):
        truth = make_truth(WorkplaceUsage(n_desktops=20, n_servers=1), days=3)
        order = probe_order(truth.n_addresses, 6)
        log = TrinocularObserver("e").observe(truth, order, NoLoss())
        addr_row = {int(a): i for i, a in enumerate(truth.addresses)}
        for k in range(0, len(log), 97):
            row = addr_row[int(log.addresses[k])]
            col = truth.column_of(float(log.times[k]))
            assert bool(log.results[k]) == bool(truth.active[row, col])


class TestAdditionalProber:
    def test_fixed_probes_per_round(self):
        truth = make_truth(ServerFarmUsage(n_servers=256, maintenance_rate_per_day=0.0), days=1)
        prober = AdditionalProber()
        n = prober.probes_per_round(256)
        assert n == 8  # the paper's cap for a full block
        log = prober.observe(truth, probe_order(256, 7))
        per_round = np.bincount(np.floor(log.times / 660.0).astype(int))
        assert per_round.max() == n

    def test_guarantees_six_hour_scan(self):
        # 256 always-on addresses: the adaptive prober needs 256 rounds,
        # the additional prober must finish within 6 hours
        prober = AdditionalProber(target_scan_hours=6.0)
        n = prober.probes_per_round(256)
        rounds_needed = int(np.ceil(256 / n))
        assert rounds_needed * 660.0 <= 6.5 * 3600.0

    def test_small_blocks_get_one_probe(self):
        assert AdditionalProber().probes_per_round(8) == 1


class TestSurveyObserver:
    def test_probes_every_address_every_round(self):
        truth = make_truth(WorkplaceUsage(n_desktops=10, n_servers=1, stale_addresses=2), days=1)
        log = SurveyObserver().observe(truth)
        m = truth.n_addresses
        first_round = log.addresses[:m]
        assert sorted(first_round.tolist()) == sorted(truth.addresses.tolist())

    def test_reconstruction_ground_truth_quality(self):
        truth = make_truth(WorkplaceUsage(n_desktops=30, n_servers=2), days=2)
        log = SurveyObserver().observe(truth)
        # survey reply rate equals the truth's mean activity
        assert log.reply_rate() == pytest.approx(float(truth.active.mean()), abs=0.02)
