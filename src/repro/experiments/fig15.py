"""Figure 15 / Appendix B.2: the pre-Covid USC VPN block.

A heavily used block (a campus VPN on 128.125.52.0/24) whose users are
migrated to a different address space right as WFH begins — address
usage *drops* although VPN demand rose.  The pipeline should classify
the block change-sensitive and place a downward change near 2020-03-15.
Tracking where the users went is out of scope, exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime

from ..core.pipeline import BlockAnalysis, BlockPipeline
from ..net.events import Calendar, Migration
from ..net.prober import probe_order
from ..net.usage import DynamicPoolUsage, round_grid
from .common import fmt_table, observe_blocks, site_lanes

__all__ = ["Fig15Result", "run"]

EPOCH = datetime(2020, 1, 1)
MIGRATION_DATE = date(2020, 3, 15)


@dataclass(frozen=True)
class Fig15Result:
    analysis: BlockAnalysis
    migration_day: int

    @property
    def detection_days(self) -> tuple[int, ...]:
        return self.analysis.downward_change_days()

    def shape_checks(self) -> dict[str, bool]:
        return {
            "VPN block is change-sensitive": self.analysis.is_change_sensitive,
            "a downward change lands within 4 days of the migration": any(
                abs(d - self.migration_day) <= 4 for d in self.detection_days
            ),
        }


def run(seed: int = 65) -> Fig15Result:
    migration_day = (MIGRATION_DATE - EPOCH.date()).days
    calendar = Calendar(
        epoch=EPOCH,
        tz_hours=-8.0,
        events=(Migration(time_s=migration_day * 86_400.0, residual_fraction=0.02),),
    )
    # a VPN pool: many users during the day, mostly idle overnight.  Low
    # overnight availability keeps adaptive scans fast enough to preserve
    # diurnality in reconstruction (the Figure 5 effect works against
    # denser pools).
    usage = DynamicPoolUsage(
        pool_size=220, peak=0.60, trough=0.06, peak_hour=14.0, quiet_week_probability=0.0
    )
    truth = usage.generate(seed, round_grid(84 * 86_400.0), calendar)
    order = probe_order(truth.n_addresses, seed)
    [logs] = observe_blocks([site_lanes(truth, order, seed, 173.0)])
    analysis = BlockPipeline(detect_on_all=True).analyze(logs, truth.addresses)
    return Fig15Result(analysis=analysis, migration_day=migration_day)


def format_report(result: Fig15Result) -> str:
    rows = [
        ["change-sensitive", result.analysis.is_change_sensitive],
        ["migration day (2020-03-15)", result.migration_day],
        ["downward change days", ", ".join(map(str, result.detection_days)) or "none"],
    ]
    out = [
        "Figure 15: USC VPN block migration (B.2)",
        fmt_table(["quantity", "value"], rows),
        "",
    ]
    for check, ok in result.shape_checks().items():
        out.append(f"  [{'ok' if ok else 'FAIL'}] {check}")
    return "\n".join(out)


def main() -> None:
    print(format_report(run()))


if __name__ == "__main__":
    main()
