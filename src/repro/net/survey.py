"""Full-survey observer: the it89-style ground-truth measurement.

USC Internet address surveys probe *every* address of selected blocks
every 11 minutes for about two weeks (§2.2, §3.2).  The paper uses survey
data as reconstruction ground truth (Table 3, Figures 4 and 5); we do the
same with this observer, which probes all of E(b) each round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .loss import LossModel, NoLoss
from .observations import ObservationSeries
from .usage import BlockTruth

__all__ = ["SurveyObserver"]


@dataclass(frozen=True)
class SurveyObserver:
    """Probes every E(b) address once per round (complete scans)."""

    name: str = "survey"
    phase_offset_s: float = 0.0
    round_seconds: float = 660.0

    def observe(
        self,
        truth: BlockTruth,
        order: np.ndarray | None = None,
        loss: LossModel | None = None,
        rng: np.random.Generator | None = None,
        *,
        start_s: float = 0.0,
        duration_s: float | None = None,
    ) -> ObservationSeries:
        loss = loss or NoLoss()
        rng = rng or np.random.default_rng(0)
        if duration_s is None:
            duration_s = truth.duration_s - start_s
        end_s = start_s + duration_s

        m = truth.n_addresses
        if order is None:
            order = np.arange(m)
        if m == 0:
            return ObservationSeries(
                times=np.array([]),
                addresses=np.array([], dtype=np.int16),
                results=np.array([], dtype=bool),
                observer=self.name,
            )
        spacing = self.round_seconds / m
        n_rounds = max(int(np.ceil((end_s - start_s - self.phase_offset_s) / self.round_seconds)), 0)
        total = n_rounds * m
        pos = np.arange(total, dtype=np.int64)
        t = (
            start_s
            + self.phase_offset_s
            + (pos // m) * self.round_seconds
            + (pos % m) * spacing
        )
        keep = t < end_s
        pos, t = pos[keep], t[keep]
        order_idx = order[pos % m]
        col_origin = float(truth.col_times[0]) if truth.n_cols else 0.0
        cols = np.clip(
            ((t - col_origin) / truth.round_seconds).astype(np.int64), 0, truth.n_cols - 1
        )
        states = truth.active[order_idx, cols]
        if loss.max_probability() > 0:
            lost = rng.random(t.size) < loss.loss_probability(t)
            states = states & ~lost
        return ObservationSeries(
            times=t,
            addresses=truth.addresses[order_idx],
            results=states,
            observer=self.name,
        )
