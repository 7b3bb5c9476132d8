"""Figure 11 / Appendix B.1: two representative change-sensitive blocks.

(a) a block that is diurnal *every* day of the week (UAE-style home/pool
    usage) whose diurnality disappears at the 2020-03-20 lockdown —
    detected as a downward human-candidate change;
(b) a block with a mid-February ISP renumbering: activity stops, then
    resumes on different addresses — the pipeline must flag the paired
    down/up changes as outage-like, not human.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime

from ..core.pipeline import BlockAnalysis, BlockPipeline
from ..net.events import Calendar, Renumbering, WorkFromHome
from ..net.prober import probe_order
from ..net.usage import DynamicPoolUsage, round_grid
from .common import fmt_table, observe_blocks, site_lanes

__all__ = ["Fig11Result", "run"]

EPOCH = datetime(2020, 1, 1)
LOCKDOWN = date(2020, 3, 20)
RENUMBER_DAY = 45  # mid-February


@dataclass(frozen=True)
class Fig11Result:
    lockdown_block: BlockAnalysis
    renumber_block: BlockAnalysis

    def lockdown_detection_days(self) -> tuple[int, ...]:
        return self.lockdown_block.downward_change_days()

    def shape_checks(self) -> dict[str, bool]:
        lockdown_day = (LOCKDOWN - EPOCH.date()).days
        down_days = self.lockdown_detection_days()
        renumber_events = (
            self.renumber_block.changes.events if self.renumber_block.changes else ()
        )
        outage_like = [e for e in renumber_events if e.cause == "outage-like"]
        human_near_renumber = [
            e
            for e in renumber_events
            if e.cause == "human-candidate" and abs(e.day - RENUMBER_DAY) <= 4
        ]
        return {
            "(a) lockdown block is change-sensitive": self.lockdown_block.is_change_sensitive,
            "(a) downward change within 4 days of lockdown": any(
                abs(d - lockdown_day) <= 4 for d in down_days
            ),
            "(b) renumbering yields paired outage-like changes": len(outage_like) >= 2,
            "(b) renumbering is not misread as human activity": not human_near_renumber,
        }


def _analyze(usage, calendar, seed: int) -> BlockAnalysis:
    # run past the end of March so the late-March lockdown clears the
    # detector's trailing boundary guard
    truth = usage.generate(seed, round_grid(112 * 86_400.0), calendar)
    order = probe_order(truth.n_addresses, seed)
    [logs] = observe_blocks([site_lanes(truth, order, seed, 149.0)])
    return BlockPipeline(detect_on_all=True).analyze(logs, truth.addresses)


def run(seed: int = 64) -> Fig11Result:
    # (a) seven-day diurnal block under a lockdown (UAE-style)
    lockdown_cal = Calendar(
        epoch=EPOCH,
        tz_hours=4.0,
        events=(WorkFromHome(start=LOCKDOWN, work_factor=0.1, pool_factor=0.35),),
    )
    lockdown = _analyze(
        DynamicPoolUsage(pool_size=24, peak=0.85, trough=0.02, quiet_week_probability=0.0),
        lockdown_cal,
        seed,
    )
    # (b) renumbering block: users move to other addresses mid-February
    renumber_cal = Calendar(
        epoch=EPOCH,
        tz_hours=3.0,
        events=(
            Renumbering(time_s=RENUMBER_DAY * 86_400.0, gap_s=36 * 3600.0, shift=100),
        ),
    )
    renumber = _analyze(
        DynamicPoolUsage(pool_size=110, peak=0.9, trough=0.35, quiet_week_probability=0.0),
        renumber_cal,
        seed + 1,
    )
    return Fig11Result(lockdown_block=lockdown, renumber_block=renumber)


def format_report(result: Fig11Result) -> str:
    rows = []
    for name, analysis in (
        ("(a) lockdown", result.lockdown_block),
        ("(b) renumbering", result.renumber_block),
    ):
        events = analysis.changes.events if analysis.changes else ()
        rows.append(
            [
                name,
                analysis.is_change_sensitive,
                len([e for e in events if e.cause == "human-candidate"]),
                len([e for e in events if e.cause == "outage-like"]),
            ]
        )
    out = [
        "Figure 11: representative blocks (B.1)",
        fmt_table(["block", "change-sensitive", "human changes", "outage-like"], rows),
        "",
    ]
    for check, ok in result.shape_checks().items():
        out.append(f"  [{'ok' if ok else 'FAIL'}] {check}")
    return "\n".join(out)


def main() -> None:
    print(format_report(run()))


if __name__ == "__main__":
    main()
