"""Figure 1: the running-example block (128.9.144.0/24 at USC).

A workplace block in Los Angeles with work-week diurnal activity, the
MLK (2020-01-20) and Presidents' Day (2020-02-17) holidays, and WFH
beginning 2020-03-15.  The experiment reproduces all three panels:

(a) active addresses over the quarter (|E(b)| ~ 88, 8-18 active);
(b) the STL trend/seasonal/residual decomposition;
(c) CUSUM detection flagging a single change around 2020-03-15.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime, timedelta

import numpy as np

from ..core.pipeline import BlockAnalysis, BlockPipeline
from ..net.events import Calendar, Holiday, WorkFromHome
from ..net.prober import probe_order
from ..net.usage import WorkplaceUsage, round_grid
from .common import fmt_table, observe_blocks, site_lanes

__all__ = ["Fig1Result", "run", "build_usc_block"]

EPOCH = datetime(2020, 1, 1)
WFH_DATE = date(2020, 3, 15)
QUARTER_DAYS = 84


@dataclass(frozen=True)
class Fig1Result:
    analysis: BlockAnalysis
    eb_size: int
    peak_count: float
    weekend_floor: float
    detected_days: tuple[date, ...]
    wfh_date: date

    @property
    def detection_error_days(self) -> int | None:
        """Days between the detected change and the true WFH start."""
        if not self.detected_days:
            return None
        return min(abs((d - self.wfh_date).days) for d in self.detected_days)

    def shape_checks(self) -> dict[str, bool]:
        c = self.analysis.classification
        err = self.detection_error_days
        return {
            "block is change-sensitive": c.is_change_sensitive,
            "weekday peaks well above the weekend floor": (
                self.peak_count > 1.5 * max(self.weekend_floor, 1.0)
            ),
            "WFH detected within 4 days of 2020-03-15": err is not None and err <= 4,
        }


def build_usc_block(seed: int = 1144):
    """The USC-like ground truth: calendar, truth, probe order."""
    calendar = Calendar(
        epoch=EPOCH,
        tz_hours=-8.0,
        events=(
            Holiday(first=date(2020, 1, 20), name="MLK Day"),
            Holiday(first=date(2020, 2, 17), name="Presidents' Day"),
            WorkFromHome(start=WFH_DATE, work_factor=0.05, ramp_days=3),
        ),
    )
    usage = WorkplaceUsage(n_desktops=16, n_servers=2, presence=0.8, stale_addresses=70)
    truth = usage.generate(seed, round_grid(QUARTER_DAYS * 86_400.0), calendar)
    order = probe_order(truth.n_addresses, seed)
    return calendar, truth, order


def run(seed: int = 1144) -> Fig1Result:
    """Simulate and analyze the Figure 1 block."""
    calendar, truth, order = build_usc_block(seed)
    [logs] = observe_blocks([site_lanes(truth, order, seed, 137.0)])
    analysis = BlockPipeline(detect_on_all=True).analyze(logs, truth.addresses)

    day_groups = analysis.counts.daily_groups()
    weekday_max = [g.max() for d, g in day_groups.items() if calendar.is_workday(d) and d < 70]
    weekend_max = [g.max() for d, g in day_groups.items() if calendar.is_weekend(d) and d < 70]
    detected = tuple(
        EPOCH.date() + timedelta(days=e.day)
        for e in (analysis.changes.human_candidates if analysis.changes else ())
        if e.is_downward
    )
    return Fig1Result(
        analysis=analysis,
        eb_size=truth.n_addresses,
        peak_count=float(np.mean(weekday_max)) if weekday_max else float("nan"),
        weekend_floor=float(np.mean(weekend_max)) if weekend_max else float("nan"),
        detected_days=detected,
        wfh_date=WFH_DATE,
    )


def format_report(result: Fig1Result) -> str:
    c = result.analysis.classification
    rows = [
        ["|E(b)| (probed addresses)", result.eb_size],
        ["mean weekday peak (pre-WFH)", f"{result.peak_count:.1f}"],
        ["mean weekend peak (pre-WFH)", f"{result.weekend_floor:.1f}"],
        ["diurnal energy ratio", f"{c.diurnal.energy_ratio:.2f}" if c.diurnal else "-"],
        ["change-sensitive", c.is_change_sensitive],
        ["detected downward changes", ", ".join(str(d) for d in result.detected_days) or "none"],
        ["true WFH start", result.wfh_date],
        ["detection error (days)", result.detection_error_days],
    ]
    return "Figure 1: USC example block\n" + fmt_table(["quantity", "value"], rows)


def main() -> None:
    print(format_report(run()))


if __name__ == "__main__":
    main()
