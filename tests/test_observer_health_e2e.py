"""End-to-end observer health: the §2.7 test that dropped sites c and g.

The 2020 scenario marks observers c and g as broken (heavy random loss).
Comparing per-observer reply rates across blocks must flag exactly those
two sites, reproducing the paper's decision to discard them for 2020.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.combine import compare_observers, flag_outlier_observers
from repro.datasets.builder import DatasetBuilder
from repro.net.world import WorldModel, scenario_covid2020

OBSERVERS = ("c", "e", "g", "j", "n", "w")


@pytest.fixture(scope="module")
def health_survey():
    world = WorldModel(scenario_covid2020(), n_blocks=40, seed=55)
    builder = DatasetBuilder(world)
    per_block = []
    for spec in world.blocks:
        if not spec.responsive_by_design:
            continue
        start = 92 * 86_400.0
        truth = builder.truth(spec, start, 7 * 86_400.0)
        logs = [
            builder.observe(spec, obs, start, 7 * 86_400.0, truth=truth)
            for obs in OBSERVERS
        ]
        health = compare_observers(logs)
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
