"""Multi-observer combination and cross-observer health checks (§2.7).

Merging is a time-ordered interleave (:func:`merge_observations`); what
this module adds is the paper's observer-independence check: analyze each
observer separately, compare their per-block reply rates, and flag
observers that disagree with the consensus — the procedure that exposed
the hardware problems at sites c and g in 2020 and the congested path of
observer w (§3.3, Figure 6d).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..net.observations import ObservationSeries

__all__ = ["ObserverHealth", "compare_observers", "flag_outlier_observers"]


@dataclass(frozen=True)
class ObserverHealth:
    """Per-observer reply-rate diagnostic for one block."""

    observer: str
    reply_rate: float
    n_probes: int
    deviation: float  # reply rate minus the median across observers

    @property
    def suspicious(self) -> bool:
        """Markedly below consensus: congested path or broken site."""
        return self.deviation < -0.05


def compare_observers(series: list[ObservationSeries]) -> list[ObserverHealth]:
    """Reply-rate comparison across observers for one block."""
    rates = np.array([s.reply_rate() for s in series], dtype=np.float64)
    finite = rates[np.isfinite(rates)]
    median = float(np.median(finite)) if finite.size else float("nan")
    return [
        ObserverHealth(
            observer=s.observer,
            reply_rate=float(r),
            n_probes=len(s),
            deviation=float(r - median) if np.isfinite(r) else float("nan"),
        )
        for s, r in zip(series, rates)
    ]


def flag_outlier_observers(
    per_block_health: list[list[ObserverHealth]],
    *,
    min_blocks: int = 5,
    suspicious_fraction: float = 0.25,
) -> set[str]:
    """Observers suspicious on a large share of blocks (drop candidates).

    This is the cross-block version of the §2.7 test that led the paper
    to discard sites c and g in 2020.
    """
    suspicious: dict[str, int] = {}
    seen: dict[str, int] = {}
    for block_health in per_block_health:
        for h in block_health:
            seen[h.observer] = seen.get(h.observer, 0) + 1
            if h.suspicious:
                suspicious[h.observer] = suspicious.get(h.observer, 0) + 1
    return {
        obs
        for obs, total in seen.items()
        if total >= min_blocks
        and suspicious.get(obs, 0) / total >= suspicious_fraction
    }
