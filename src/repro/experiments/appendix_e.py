"""Appendix E: Indiana University on 2020-03-15.

The paper's website surfaced 36 Indiana University blocks detected as
WFH on 2020-03-15 — spring break began Friday 2020-03-13 and remote
learning on 2020-03-19 — an event the authors did not know beforehand.
It highlights universities as prime change-sensitive networks (large
IPv4 allocations, public addresses in dynamic use).

We reproduce the story: a cluster of university blocks in Bloomington
with WFH starting at spring break; the pipeline should flag most of them
with downward changes in the break week, and the §2.6 network-type
classifier should call them workplace-like.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime

import numpy as np

from ..core.network_type import NetworkTypeClassifier
from ..core.pipeline import BlockPipeline
from ..net.events import Calendar, WorkFromHome
from ..net.prober import probe_order
from ..net.usage import WorkplaceUsage, round_grid
from .common import fmt_table, observe_blocks, site_lanes

__all__ = ["AppendixEResult", "run"]

EPOCH = datetime(2020, 1, 1)
SPRING_BREAK = date(2020, 3, 13)
N_BLOCKS = 12
TZ = -5.0  # Bloomington, Indiana


@dataclass(frozen=True)
class AppendixEResult:
    n_blocks: int
    n_change_sensitive: int
    n_detected_in_break_week: int
    n_classified_workplace: int

    def shape_checks(self) -> dict[str, bool]:
        return {
            "university blocks are change-sensitive": self.n_change_sensitive
            >= 0.7 * self.n_blocks,
            "most flag WFH during the break week": self.n_detected_in_break_week
            >= 0.6 * self.n_change_sensitive,
            "they classify as workplace networks": self.n_classified_workplace
            >= 0.7 * self.n_change_sensitive,
        }


def run(seed: int = 36) -> AppendixEResult:
    break_day = (SPRING_BREAK - EPOCH.date()).days
    pipeline = BlockPipeline(detect_on_all=True)
    classifier = NetworkTypeClassifier()
    rng = np.random.default_rng(seed)

    seeds = [seed + 43 * b for b in range(N_BLOCKS)]
    truths = []
    for block_seed in seeds:
        calendar = Calendar(
            epoch=EPOCH,
            tz_hours=TZ,
            events=(
                WorkFromHome(start=SPRING_BREAK, work_factor=0.06, ramp_days=2),
            ),
        )
        usage = WorkplaceUsage(
            n_desktops=int(rng.integers(40, 120)),
            n_servers=int(rng.integers(1, 4)),
            presence=float(rng.uniform(0.75, 0.9)),
        )
        truths.append(usage.generate(block_seed, round_grid(84 * 86_400.0), calendar))
    # every block's four sites, probed in one lane-kernel call
    lanes = [
        site_lanes(truth, probe_order(truth.n_addresses, s), s, 107.0)
        for s, truth in zip(seeds, truths)
    ]

    cs = detected = workplace = 0
    for truth, logs in zip(truths, observe_blocks(lanes)):
        analysis = pipeline.analyze(logs, truth.addresses)
        if not analysis.is_change_sensitive:
            continue
        cs += 1
        days = analysis.downward_change_days()
        if any(break_day - 2 <= d <= break_day + 7 for d in days):
            detected += 1
        verdict = classifier.classify(
            analysis.counts, tz_hours=TZ, epoch_weekday=EPOCH.weekday()
        )
        workplace += int(verdict.is_workplace)
    return AppendixEResult(
        n_blocks=N_BLOCKS,
        n_change_sensitive=cs,
        n_detected_in_break_week=detected,
        n_classified_workplace=workplace,
    )


def format_report(result: AppendixEResult) -> str:
    rows = [
        ["university blocks simulated", result.n_blocks],
        ["change-sensitive", result.n_change_sensitive],
        ["WFH detected in break week", result.n_detected_in_break_week],
        ["classified workplace", result.n_classified_workplace],
    ]
    out = [
        "Appendix E: Indiana University spring break (2020-03-13)",
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
