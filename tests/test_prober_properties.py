"""Property-based tests on observer invariants."""

from __future__ import annotations

from datetime import datetime

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.events import Calendar
from repro.net.loss import BernoulliLoss
from repro.net.prober import AdditionalProber, TrinocularObserver, probe_order
from repro.net.usage import SparseUsage, round_grid

EPOCH = datetime(2020, 1, 1)


def make_truth(n_addresses: int, seed: int):
    calendar = Calendar(epoch=EPOCH, tz_hours=0.0)
    usage = SparseUsage(
        n_addresses=n_addresses, mean_on_days=1.0, mean_off_days=1.0, stale_addresses=0
    )
    return usage.generate(seed, round_grid(86_400.0), calendar)


class TestTrinocularProperties:
    @given(
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=0, max_value=1000),
        st.floats(min_value=0.0, max_value=659.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_probe_times_in_window_and_ordered(self, n, seed, phase):
        truth = make_truth(n, seed)
        order = probe_order(n, seed)
        log = TrinocularObserver("e", phase_offset_s=phase).observe(truth, order)
        if len(log):
            assert log.times[0] >= 0.0
            assert log.times[-1] < truth.duration_s
            assert np.all(np.diff(log.times) >= 0)

    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_probed_addresses_subset_of_eb(self, n, seed):
        truth = make_truth(n, seed)
        order = probe_order(n, seed)
        log = TrinocularObserver("e").observe(truth, order)
        assert set(log.probed_addresses().tolist()) <= set(truth.addresses.tolist())

    @given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=500))
    @settings(max_examples=20, deadline=None)
    def test_lossless_results_match_truth(self, n, seed):
        truth = make_truth(n, seed)
        order = probe_order(n, seed)
        log = TrinocularObserver("e").observe(truth, order)
        rows = {int(a): i for i, a in enumerate(truth.addresses)}
        for k in range(0, len(log), max(len(log) // 20, 1)):
            row = rows[int(log.addresses[k])]
            col = truth.column_of(float(log.times[k]))
            assert bool(log.results[k]) == bool(truth.active[row, col])

    @given(
        st.integers(min_value=2, max_value=30),
        st.integers(min_value=0, max_value=500),
        st.floats(min_value=0.05, max_value=0.6),
    )
    @settings(max_examples=20, deadline=None)
    def test_loss_only_suppresses_replies(self, n, seed, p):
        truth = make_truth(n, seed)
        order = probe_order(n, seed)
        clean = TrinocularObserver("e").observe(truth, order)
        lossy = TrinocularObserver("e").observe(
            truth, order, BernoulliLoss(p), np.random.default_rng(seed)
        )
        # loss can only lower (or keep) the total reply count
        assert lossy.results.sum() <= clean.results.sum()

    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=500))
    @settings(max_examples=20, deadline=None)
    def test_determinism(self, n, seed):
        truth = make_truth(n, seed)
        order = probe_order(n, seed)
        a = TrinocularObserver("e").observe(truth, order, rng=np.random.default_rng(1))
        b = TrinocularObserver("e").observe(truth, order, rng=np.random.default_rng(1))
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.results, b.results)


class TestAdditionalProberProperties:
    @given(st.integers(min_value=1, max_value=256))
    @settings(max_examples=50, deadline=None)
    def test_probe_budget_always_meets_target(self, eb):
        prober = AdditionalProber(target_scan_hours=6.0)
        n = prober.probes_per_round(eb)
        assert 1 <= n <= 8
        rounds_needed = int(np.ceil(eb / n))
        # the paper's guarantee: 256-address worst case within 352 min of
        # rounds when combined with existing probers; alone, stay near 6 h
        assert rounds_needed * 660.0 <= 6.5 * 3600.0 or n == 8

    @given(st.integers(min_value=2, max_value=60), st.integers(min_value=0, max_value=400))
    @settings(max_examples=15, deadline=None)
    def test_constant_probes_per_round(self, n, seed):
        truth = make_truth(n, seed)
        order = probe_order(n, seed)
        prober = AdditionalProber()
        log = prober.observe(truth, order)
        per_round = np.bincount((log.times // 660.0).astype(int))
        expected = prober.probes_per_round(n)
        assert per_round.max() == expected
        # every full round sends exactly the budget
        assert np.all(per_round[:-1] == expected)
