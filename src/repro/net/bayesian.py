"""Bayesian Trinocular probing (Quan, Heidemann & Pradkin, SIGCOMM 2013).

The paper's data source is Trinocular, whose probing is *belief driven*:
each site keeps a belief ``B(U)`` that the block is up, updated after
every probe with Bayes' rule using the block's long-term availability
``A = E(A(b))`` (the expected fraction of E(b) that responds when the
block is up).  A round probes addresses until the belief leaves the
uncertain band — typically one probe when the block is clearly up, a few
after a surprise — capped at ``max_probes_per_round``.

:class:`TrinocularObserver` in :mod:`repro.net.prober` uses the paper's
simplified description ("stops probing on the first positive response");
this module provides the full algorithm so the simplification itself can
be validated: both observers produce probe streams whose reconstructions
agree closely (see ``tests/test_bayesian.py``).

Model (from the Trinocular paper):

* block up:   P(reply | probed address in E(b)) = A
* block down: P(reply) = 0
* belief update on reply:        B' = 1 (a positive reply proves up)
* belief update on non-reply:    B' = B(1-A) / (B(1-A) + (1-B))
* probing stops when B >= belief_up (confident up) or B <= belief_down
  (confident down), or at the per-round cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .loss import LossModel, NoLoss
from .observations import ObservationSeries
from .usage import BlockTruth

__all__ = ["BayesianTrinocularObserver"]


@dataclass(frozen=True)
class BayesianTrinocularObserver:
    """A probing site running full belief-driven Trinocular rounds."""

    name: str
    phase_offset_s: float = 0.0
    max_probes_per_round: int = 15
    probe_spacing_s: float = 3.0
    round_seconds: float = 660.0
    #: stop probing when the belief that the block is up leaves this band
    belief_up: float = 0.9
    belief_down: float = 0.1
    #: floor for the availability estimate (avoids degenerate updates)
    min_availability: float = 0.05

    def observe(
        self,
        truth: BlockTruth,
        order: np.ndarray,
        loss: LossModel | None = None,
        rng: np.random.Generator | None = None,
        *,
        availability: float | None = None,
        start_s: float = 0.0,
        duration_s: float | None = None,
        start_cursor: int = 0,
    ) -> ObservationSeries:
        """Probe one block with belief-driven rounds.

        ``availability`` is the long-term estimate A the real system reads
        from history; when omitted it is computed from the ground truth
        (which is what the history would converge to).
        """
        loss = loss or NoLoss()
        rng = rng or np.random.default_rng(0)
        if duration_s is None:
            duration_s = truth.duration_s - start_s
        end_s = start_s + duration_s

        m = int(order.size)
        if m == 0 or truth.n_cols == 0:
            return ObservationSeries(
                times=np.array([]),
                addresses=np.array([], dtype=np.int16),
                results=np.array([], dtype=bool),
                observer=self.name,
            )
        if m != truth.n_addresses:
            raise ValueError("order must permute the block's E(b) addresses")

        a_est = float(truth.active.mean()) if availability is None else float(availability)
        a_est = max(a_est, self.min_availability)

        n_rounds = max(
            int(np.ceil((end_s - start_s - self.phase_offset_s) / self.round_seconds)), 0
        )
        round_starts = start_s + self.phase_offset_s + np.arange(n_rounds) * self.round_seconds
        loss_p = loss.loss_probability(round_starts) if loss.max_probability() > 0 else None

        flat = truth.active.astype(np.uint8).tobytes()
        n_cols = truth.n_cols
        col_origin = float(truth.col_times[0])
        inv_round = 1.0 / truth.round_seconds
        order_list = order.tolist()
        addr_of = truth.addresses.tolist()
        max_probes = min(self.max_probes_per_round, m)

        draw_buf = rng.random(4096)
        draw_i = 0

        times: list[float] = []
        addrs: list[int] = []
        results: list[bool] = []
        t_app, a_app, r_app = times.append, addrs.append, results.append

        belief = 0.5  # uninformed prior at start-up
        miss_factor = 1.0 - a_est
        cur = start_cursor % m
        for r in range(n_rounds):
            t = round_starts[r]
            if t >= end_s:
                break
            p = 0.0 if loss_p is None else loss_p[r]
            k = 0
            while True:
                idx = order_list[cur]
                col = int((t - col_origin) * inv_round)
                if col >= n_cols:
                    col = n_cols - 1
                elif col < 0:
                    col = 0
                st = flat[idx * n_cols + col]
                if st and p > 0.0:
                    if draw_i >= 4096:
                        draw_buf = rng.random(4096)
                        draw_i = 0
                    if draw_buf[draw_i] < p:
                        st = 0
                    draw_i += 1
                t_app(t)
                a_app(addr_of[idx])
                r_app(bool(st))
                cur += 1
                if cur == m:
                    cur = 0
                k += 1

                # Bayes update on the up-belief
                if st:
                    belief = 1.0
                else:
                    up_mass = belief * miss_factor
                    belief = up_mass / (up_mass + (1.0 - belief))
                if (
                    belief >= self.belief_up
                    or belief <= self.belief_down
                    or k >= max_probes
                ):
                    break
                t += self.probe_spacing_s
                if t >= end_s:
                    break
            # between rounds the belief decays slightly toward uncertainty
            # (state can change while we are not looking)
            belief = 0.5 + (belief - 0.5) * 0.9
        return ObservationSeries(
            times=np.asarray(times, dtype=np.float64),
            addresses=np.asarray(addrs, dtype=np.int16),
            results=np.asarray(results, dtype=bool),
            observer=self.name,
        )
