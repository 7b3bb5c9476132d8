"""Ablation: what happens to the funnel without 1-loss repair (§3.3).

The §3.3 risk is concrete: diurnal congestion on one observer's path can
make *non-diurnal* destinations look diurnal, polluting the
change-sensitive set with blocks whose "daily rhythm" is a property of a
link near the observer.  We build a population of non-diurnal sparse
blocks, probe them through one congested path plus clean paths, and run
the classification funnel with repair disabled and enabled.

Expected shapes: without repair, a noticeable share of these non-diurnal
blocks is misclassified diurnal (false change-sensitivity); with repair
the false-diurnal count drops substantially.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

import numpy as np

from ..core.pipeline import BlockPipeline
from ..net.events import Calendar
from ..net.loss import BernoulliLoss, DiurnalCongestionLoss
from ..net.prober import probe_order
from ..net.usage import SparseUsage, round_grid
from .common import SITES, fmt_table, observe_blocks, site_lanes

__all__ = ["RepairAblationResult", "run"]

EPOCH = datetime(2023, 4, 1)
N_BLOCKS = 14
DURATION_DAYS = 28


@dataclass(frozen=True)
class RepairAblationResult:
    n_blocks: int
    false_diurnal_without_repair: int
    false_diurnal_with_repair: int
    mean_ratio_without: float
    mean_ratio_with: float

    def shape_checks(self) -> dict[str, bool]:
        return {
            "congestion fakes diurnality in some blocks": (
                self.false_diurnal_without_repair > 0
            ),
            "repair reduces false diurnal classifications": (
                self.false_diurnal_with_repair < self.false_diurnal_without_repair
            ),
            "repair lowers the mean diurnal-energy ratio": (
                self.mean_ratio_with < self.mean_ratio_without
            ),
        }


def run(seed: int = 66) -> RepairAblationResult:
    calendar = Calendar(epoch=EPOCH, tz_hours=8.0)
    congested = DiurnalCongestionLoss(base=0.05, peak=0.55, peak_hour=21.0, tz_hours=8.0)
    clean = BernoulliLoss(0.004)

    false_without = false_with = 0
    ratios_without: list[float] = []
    ratios_with: list[float] = []
    seeds = [seed + 53 * b for b in range(N_BLOCKS)]
    truths = []
    for block_seed in seeds:
        usage = SparseUsage(
            n_addresses=int(np.random.default_rng(block_seed).integers(80, 140)),
            mean_on_days=6.0,
            mean_off_days=3.0,
            stale_addresses=0,
        )
        truths.append(
            usage.generate(block_seed, round_grid(DURATION_DAYS * 86_400.0), calendar)
        )
    # every block's four sites, probed in one lane-kernel call; site w
    # probes through the congested path
    losses = [congested if name == "w" else clean for name in SITES]
    lanes = [
        site_lanes(truth, probe_order(truth.n_addresses, s), s, 103.0, losses=losses)
        for s, truth in zip(seeds, truths)
    ]
    for truth, logs in zip(truths, observe_blocks(lanes)):
        for repair, ratios in ((False, ratios_without), (True, ratios_with)):
            analysis = BlockPipeline(apply_repair=repair).analyze(logs, truth.addresses)
            verdict = analysis.classification.diurnal
            if verdict is None:
                continue
            ratios.append(verdict.energy_ratio)
            if verdict.is_diurnal:
                if repair:
                    false_with += 1
                else:
                    false_without += 1
    return RepairAblationResult(
        n_blocks=N_BLOCKS,
        false_diurnal_without_repair=false_without,
        false_diurnal_with_repair=false_with,
        mean_ratio_without=float(np.mean(ratios_without)) if ratios_without else 0.0,
        mean_ratio_with=float(np.mean(ratios_with)) if ratios_with else 0.0,
    )


def format_report(result: RepairAblationResult) -> str:
    rows = [
        ["non-diurnal blocks via congested path", result.n_blocks],
        ["false diurnal without repair", result.false_diurnal_without_repair],
        ["false diurnal with repair", result.false_diurnal_with_repair],
        ["mean diurnal ratio without repair", f"{result.mean_ratio_without:.2f}"],
        ["mean diurnal ratio with repair", f"{result.mean_ratio_with:.2f}"],
    ]
    out = [
        "S3.3 ablation: classification funnel without/with 1-loss repair",
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
