"""Geographic aggregation of per-block change detections (§2.6, §3.5).

Blocks are geolocated and grouped into 2x2 degree gridcells.  A cell is
*observed* when it has at least ``min_responsive`` ping-responsive blocks
and *represented* when it has at least ``min_change_sensitive``
change-sensitive blocks (both 5 in the paper); the thresholds suppress
false positives from single noisy blocks (Appendix D).  Per day we report
the fraction of a cell's (or continent's) change-sensitive blocks whose
trend turned downward — the series of Figures 8-10.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from ..net.geo import GeoInfo, GridCell

__all__ = ["BlockRecord", "CellStats", "CoverageReport", "GridAggregator"]


@dataclass(frozen=True)
class BlockRecord:
    """The aggregation-relevant facts about one analyzed block."""

    geo: GeoInfo
    responsive: bool
    change_sensitive: bool
    downward_days: tuple[int, ...] = ()
    upward_days: tuple[int, ...] = ()


@dataclass
class CellStats:
    """Mutable per-gridcell tallies."""

    cell: GridCell
    n_responsive: int = 0
    n_change_sensitive: int = 0
    downward_by_day: Counter = field(default_factory=Counter)
    upward_by_day: Counter = field(default_factory=Counter)
    continents: Counter = field(default_factory=Counter)

    @property
    def continent(self) -> str:
        if not self.continents:
            return "?"
        return self.continents.most_common(1)[0][0]


@dataclass(frozen=True)
class CoverageReport:
    """Table 4's coverage accounting."""

    n_cells: int
    n_under_observed: int
    n_observed: int
    n_under_represented: int
    n_represented: int
    cs_blocks_total: int
    cs_blocks_represented: int
    responsive_blocks_total: int
    responsive_blocks_observed: int
    responsive_blocks_represented: int

    @property
    def represented_cell_fraction(self) -> float:
        return self.n_represented / self.n_observed if self.n_observed else 0.0

    @property
    def cs_block_weighted_coverage(self) -> float:
        return (
            self.cs_blocks_represented / self.cs_blocks_total if self.cs_blocks_total else 0.0
        )

    @property
    def responsive_block_weighted_coverage(self) -> float:
        total = self.responsive_blocks_total
        return self.responsive_blocks_represented / total if total else 0.0


class GridAggregator:
    """Accumulates block records into gridcells and answers Table 4/Fig 8-10."""

    def __init__(self, *, min_responsive: int = 5, min_change_sensitive: int = 5) -> None:
        self.min_responsive = min_responsive
        self.min_change_sensitive = min_change_sensitive
        self._cells: dict[GridCell, CellStats] = {}

    # -- accumulation ----------------------------------------------------
    def add(self, record: BlockRecord) -> None:
        if not record.responsive:
            return
        cell = record.geo.gridcell
        stats = self._cells.get(cell)
        if stats is None:
            stats = CellStats(cell=cell)
            self._cells[cell] = stats
        stats.n_responsive += 1
        stats.continents[record.geo.continent] += 1
        if record.change_sensitive:
            stats.n_change_sensitive += 1
            # a block counts at most once per day: CUSUM can emit several
            # alarms for one change, but the fraction is "blocks changing"
            for day in set(record.downward_days):
                stats.downward_by_day[day] += 1
            for day in set(record.upward_days):
                stats.upward_by_day[day] += 1

    def add_all(self, records: list[BlockRecord]) -> "GridAggregator":
        for record in records:
            self.add(record)
        return self

    # -- queries ----------------------------------------------------------
    @property
    def cells(self) -> dict[GridCell, CellStats]:
        return dict(self._cells)

    def cell(self, cell: GridCell) -> CellStats | None:
        return self._cells.get(cell)

    def represented_cells(self) -> list[CellStats]:
        return [
            s
            for s in self._cells.values()
            if s.n_responsive >= self.min_responsive
            and s.n_change_sensitive >= self.min_change_sensitive
        ]

    def coverage(
        self,
        *,
        min_responsive: int | None = None,
        min_change_sensitive: int | None = None,
    ) -> CoverageReport:
        """Table 4: observed/represented cells and block-weighted sums."""
        min_resp = self.min_responsive if min_responsive is None else min_responsive
        min_cs = (
            self.min_change_sensitive if min_change_sensitive is None else min_change_sensitive
        )
        cells = list(self._cells.values())
        observed = [s for s in cells if s.n_responsive >= min_resp]
        represented = [s for s in observed if s.n_change_sensitive >= min_cs]
        return CoverageReport(
            n_cells=len(cells),
            n_under_observed=len(cells) - len(observed),
            n_observed=len(observed),
            n_under_represented=len(observed) - len(represented),
            n_represented=len(represented),
            cs_blocks_total=sum(s.n_change_sensitive for s in cells),
            cs_blocks_represented=sum(s.n_change_sensitive for s in represented),
            responsive_blocks_total=sum(s.n_responsive for s in cells),
            responsive_blocks_observed=sum(s.n_responsive for s in observed),
            responsive_blocks_represented=sum(s.n_responsive for s in represented),
        )

    # -- time series -------------------------------------------------------
    def cell_daily_fractions(
        self, cell: GridCell, first_day: int, n_days: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """(downward, upward) daily fractions for one gridcell."""
        stats = self._cells.get(cell)
        down = np.zeros(n_days)
        up = np.zeros(n_days)
        if stats is None or stats.n_change_sensitive == 0:
            return down, up
        for offset in range(n_days):
            day = first_day + offset
            down[offset] = stats.downward_by_day.get(day, 0) / stats.n_change_sensitive
            up[offset] = stats.upward_by_day.get(day, 0) / stats.n_change_sensitive
        return down, up

    def continent_daily_fractions(
        self, first_day: int, n_days: int, *, represented_only: bool = True
    ) -> dict[str, np.ndarray]:
        """Daily downward fractions per continent (Figure 8)."""
        per_continent_down: dict[str, np.ndarray] = defaultdict(lambda: np.zeros(n_days))
        per_continent_cs: Counter = Counter()
        pool = self.represented_cells() if represented_only else list(self._cells.values())
        for stats in pool:
            continent = stats.continent
            per_continent_cs[continent] += stats.n_change_sensitive
            series = per_continent_down[continent]
            for day, count in stats.downward_by_day.items():
                offset = day - first_day
                if 0 <= offset < n_days:
                    series[offset] += count
        return {
            continent: series / max(per_continent_cs[continent], 1)
            for continent, series in per_continent_down.items()
        }
