"""End-to-end observer health: the §2.7 test that dropped sites c and g.

The 2020 scenario marks observers c and g as broken (heavy random loss).
Comparing per-observer reply rates across blocks must flag exactly those
two sites, reproducing the paper's decision to discard them for 2020.
"""

from __future__ import annotations

from datetime import timedelta

import numpy as np
import pytest

from repro.core.combine import compare_observers, flag_outlier_observers
from repro.datasets.builder import simulate_chunk
from repro.datasets.catalog import DatasetSpec
from repro.net.world import WorldModel, scenario_covid2020

OBSERVERS = ("c", "e", "g", "j", "n", "w")


@pytest.fixture(scope="module")
def health_survey():
    world = WorldModel(scenario_covid2020(), n_blocks=40, seed=55)
    # one week from day 92, every responsive block's six lanes probed in
    # one call
    week = DatasetSpec(
        name="health-week",
        start=(world.epoch + timedelta(days=92)).date(),
        weeks=1,
        observers=OBSERVERS,
    )
    assert week.start_s(world.epoch) == 92 * 86_400.0
    specs = [spec for spec in world.blocks if spec.responsive_by_design]
    sim = simulate_chunk(world, specs, week)
    per_block = []
    for j in range(len(specs)):
        health = compare_observers(sim.logs(j))
        if all(np.isfinite(h.reply_rate) for h in health):
            per_block.append(health)
    return per_block


class TestObserverHealth:
    def test_broken_sites_flagged(self, health_survey):
        flagged = flag_outlier_observers(health_survey)
        assert "c" in flagged
        assert "g" in flagged

    def test_healthy_sites_not_flagged(self, health_survey):
        flagged = flag_outlier_observers(health_survey)
        assert "e" not in flagged
        assert "j" not in flagged
        assert "n" not in flagged

    def test_enough_blocks_surveyed(self, health_survey):
        assert len(health_survey) >= 5
