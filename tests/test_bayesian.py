"""Tests for the full Bayesian Trinocular observer.

Validates the paper's simplification: the stop-at-first-positive prober
(`TrinocularObserver`) and the belief-driven original produce probe
streams whose reconstructions agree closely.
"""

from __future__ import annotations

from datetime import datetime

import numpy as np
import pytest

from repro.core.reconstruction import reconstruct
from repro.net.bayesian import BayesianTrinocularObserver
from repro.net.events import Calendar
from repro.net.prober import TrinocularObserver, probe_order
from repro.net.usage import ServerFarmUsage, WorkplaceUsage, round_grid

EPOCH = datetime(2020, 1, 1)


def make_truth(usage, days=7, seed=0):
    cal = Calendar(epoch=EPOCH, tz_hours=0.0)
    return usage.generate(seed, round_grid(days * 86_400.0), cal)


class TestBayesianObserver:
    def test_one_probe_per_round_when_clearly_up(self):
        truth = make_truth(ServerFarmUsage(n_servers=64, maintenance_rate_per_day=0.0), days=1)
        order = probe_order(truth.n_addresses, 1)
        log = BayesianTrinocularObserver("e").observe(truth, order)
        per_round = np.bincount((log.times // 660.0).astype(int))
        # once confident, a single positive reply ends the round
        assert np.median(per_round) == 1

    def test_probes_more_when_uncertain(self):
        truth = make_truth(WorkplaceUsage(n_desktops=20, n_servers=0, stale_addresses=20), days=3)
        order = probe_order(truth.n_addresses, 2)
        log = BayesianTrinocularObserver("e").observe(truth, order)
        per_round = np.bincount((log.times // 660.0).astype(int))
        assert per_round.max() > 1  # nighttime rounds need several probes

    def test_caps_at_round_budget(self):
        truth = make_truth(WorkplaceUsage(n_desktops=30, n_servers=0), days=2)
        truth.active[:] = False
        order = probe_order(truth.n_addresses, 3)
        log = BayesianTrinocularObserver("e", max_probes_per_round=15).observe(truth, order)
        per_round = np.bincount((log.times // 660.0).astype(int))
        assert per_round.max() <= 15

    def test_results_match_truth(self):
        truth = make_truth(WorkplaceUsage(n_desktops=20, n_servers=1), days=2)
        order = probe_order(truth.n_addresses, 4)
        log = BayesianTrinocularObserver("e").observe(truth, order)
        rows = {int(a): i for i, a in enumerate(truth.addresses)}
        for k in range(0, len(log), 71):
            row = rows[int(log.addresses[k])]
            col = truth.column_of(float(log.times[k]))
            assert bool(log.results[k]) == bool(truth.active[row, col])

    def test_rejects_wrong_order(self):
        truth = make_truth(ServerFarmUsage(n_servers=8), days=1)
        with pytest.raises(ValueError, match="permute"):
            BayesianTrinocularObserver("e").observe(truth, np.arange(3))


class TestSimplificationValidity:
    """The paper's stop-at-first-positive is a faithful simplification."""

    @pytest.mark.parametrize("seed", [10, 11])
    def test_reconstructions_agree(self, seed):
        truth = make_truth(WorkplaceUsage(n_desktops=40, n_servers=2), days=7, seed=seed)
        order = probe_order(truth.n_addresses, seed)
        simple = TrinocularObserver("e").observe(
            truth, order, rng=np.random.default_rng(seed)
        )
        bayes = BayesianTrinocularObserver("e").observe(
            truth, order, rng=np.random.default_rng(seed)
        )
        rec_simple = reconstruct(simple, truth.addresses, truth.col_times)
        rec_bayes = reconstruct(bayes, truth.addresses, truth.col_times)
        r = rec_simple.counts.pearson(rec_bayes.counts)
        assert r > 0.95

    def test_probe_budgets_comparable(self):
        truth = make_truth(WorkplaceUsage(n_desktops=40, n_servers=2), days=7, seed=12)
        order = probe_order(truth.n_addresses, 12)
        simple = TrinocularObserver("e").observe(truth, order)
        bayes = BayesianTrinocularObserver("e").observe(truth, order)
        # belief-driven probing is cheaper: confidently-down rounds stop
        # after a couple of probes instead of sweeping 15
        assert len(bayes) < len(simple)
        assert len(simple) < 6.0 * len(bayes)
