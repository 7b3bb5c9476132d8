"""§2.6 future work: distinguishing workplace from home networks.

The paper suggests "detect daily bumps and count how many occur to
distinguish workplace networks from home networks."  This experiment
implements and validates that idea: build a mixed population of
workplace and home blocks with known labels, reconstruct them from
probe logs, classify each with :class:`NetworkTypeClassifier` (using
only the reconstructed counts and a longitude-derived timezone), and
score the confusion matrix.  Expected shapes: high accuracy on both
classes; pool blocks mostly land in "home" or "ambiguous", never
flooding "workplace".
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

import numpy as np

from ..core.network_type import NetworkTypeClassifier, timezone_from_longitude
from ..core.pipeline import BlockPipeline
from ..net.events import Calendar
from ..net.prober import probe_order
from ..net.usage import DynamicPoolUsage, HomeEveningUsage, WorkplaceUsage, round_grid
from .common import fmt_table, observe_blocks, site_lanes

__all__ = ["NetworkTypesResult", "run"]

EPOCH = datetime(2020, 1, 1)
DURATION_DAYS = 28
TZ_CASES = (-8.0, 0.0, 5.5, 8.0)  # LA, London, Delhi, Beijing


@dataclass(frozen=True)
class NetworkTypesResult:
    confusion: dict[tuple[str, str], int]  # (true kind, predicted label) -> count
    n_blocks: int

    def accuracy(self, kind: str, label: str) -> float:
        total = sum(c for (k, _), c in self.confusion.items() if k == kind)
        if total == 0:
            return float("nan")
        return self.confusion.get((kind, label), 0) / total

    def shape_checks(self) -> dict[str, bool]:
        return {
            "workplace blocks mostly classified workplace": self.accuracy(
                "workplace", "workplace"
            )
            >= 0.7,
            "home blocks mostly classified home": self.accuracy("home", "home") >= 0.7,
            "workplace blocks never classified home": self.accuracy("workplace", "home")
            <= 0.1,
            "pools do not flood the workplace class": self.accuracy("pool", "workplace")
            <= 0.3,
        }


def _blocks(seed: int):
    rng = np.random.default_rng(seed)
    cases = []
    for i, tz in enumerate(TZ_CASES):
        for j in range(3):
            s = seed + 101 * i + j
            cases.append(
                ("workplace", tz, WorkplaceUsage(n_desktops=int(rng.integers(24, 80)), n_servers=2), s)
            )
            cases.append(
                ("home", tz, HomeEveningUsage(n_devices=int(rng.integers(16, 40))), s + 17)
            )
            cases.append(
                (
                    "pool",
                    tz,
                    DynamicPoolUsage(
                        pool_size=int(rng.integers(64, 160)), quiet_week_probability=0.0
                    ),
                    s + 29,
                )
            )
    return cases


def run(seed: int = 33) -> NetworkTypesResult:
    classifier = NetworkTypeClassifier()
    pipeline = BlockPipeline()
    confusion: dict[tuple[str, str], int] = {}
    cases = _blocks(seed)
    truths = [
        usage.generate(
            block_seed,
            round_grid(DURATION_DAYS * 86_400.0),
            Calendar(epoch=EPOCH, tz_hours=tz),
        )
        for _, tz, usage, block_seed in cases
    ]
    # every block's four sites, probed in one lane-kernel call
    lanes = [
        site_lanes(truth, probe_order(truth.n_addresses, block_seed), block_seed, 113.0)
        for truth, (_, _, _, block_seed) in zip(truths, cases)
    ]
    for (kind, tz, _, _), truth, logs in zip(cases, truths, observe_blocks(lanes)):
        analysis = pipeline.analyze(logs, truth.addresses)
        # the classifier only gets what a real analyst has: counts and a
        # longitude-equivalent timezone estimate
        est_tz = timezone_from_longitude(tz * 15.0)
        verdict = classifier.classify(
            analysis.counts, tz_hours=est_tz, epoch_weekday=EPOCH.weekday()
        )
        key = (kind, verdict.label)
        confusion[key] = confusion.get(key, 0) + 1
    return NetworkTypesResult(confusion=confusion, n_blocks=len(cases))


def format_report(result: NetworkTypesResult) -> str:
    labels = ("workplace", "home", "ambiguous")
    rows = []
    for kind in ("workplace", "home", "pool"):
        rows.append(
            [kind] + [result.confusion.get((kind, label), 0) for label in labels]
        )
    out = [
        "S2.6 future work: workplace-vs-home classification "
        f"({result.n_blocks} labelled blocks)",
        fmt_table(["true kind \\ predicted", *labels], rows),
        "",
    ]
    for check, ok in result.shape_checks().items():
        out.append(f"  [{'ok' if ok else 'FAIL'}] {check}")
    return "\n".join(out)


def main() -> None:
    print(format_report(run()))


if __name__ == "__main__":
    main()
