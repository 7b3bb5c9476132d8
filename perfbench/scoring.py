"""Detection accuracy against the synthetic world's exact truth.

Every block of a world carries its scheduled events (``BlockSpec.events``),
so the change days the pipeline reports can be scored exactly, with the
±4-day tolerance of the paper's Table 5:

* **recall**: the share of detection-window blocks carrying a
  ``WorkFromHome`` event that report a downward change day within the
  tolerance of that event's start;
* **precision**: the share of reported downward change days that lie
  within the tolerance of the start of any ``WorkFromHome``, ``Holiday``
  or ``Curfew`` event scheduled for that block.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import Any, Iterable

__all__ = ["TOLERANCE_DAYS", "WfhScore", "score_wfh"]

TOLERANCE_DAYS = 4


@dataclass(frozen=True)
class WfhScore:
    wfh_found: int  # WFH blocks with a downward day near the WFH start
    wfh_missed: int
    days_matched: int  # downward days near a scheduled human event
    days_unmatched: int

    @property
    def recall(self) -> float:
        n = self.wfh_found + self.wfh_missed
        return self.wfh_found / n if n else 0.0

    @property
    def precision(self) -> float:
        n = self.days_matched + self.days_unmatched
        return self.days_matched / n if n else 0.0


def _near(day: int, starts: Iterable[int]) -> bool:
    return any(abs(day - start) <= TOLERANCE_DAYS for start in starts)


def score_wfh(blocks: Iterable[tuple[Any, tuple[int, ...]]], epoch: date) -> WfhScore:
    """Score ``(block_spec, downward_change_days)`` pairs.

    Change days are UTC day indices since ``epoch``, as
    ``BlockAnalysis.downward_change_days`` reports them.  Only the
    ``events`` attribute of each spec is read.
    """
    from repro.net.events import Curfew, Holiday, WorkFromHome

    found = missed = matched = unmatched = 0
    for spec, days in blocks:
        wfh_starts = [
            (e.start - epoch).days for e in spec.events if isinstance(e, WorkFromHome)
        ]
        human_starts = wfh_starts + [
            (e.first - epoch).days
            for e in spec.events
            if isinstance(e, (Holiday, Curfew))
        ]
        for start in wfh_starts:
            if _near(start, days):
                found += 1
            else:
                missed += 1
        for day in days:
            if _near(day, human_starts):
                matched += 1
            else:
                unmatched += 1
    return WfhScore(found, missed, matched, unmatched)
