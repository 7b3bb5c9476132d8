"""Table 2: blocks before and after filtering, across datasets.

Runs the classification funnel (responsive -> diurnal -> wide swing ->
change-sensitive) over the paper's seven dataset windows and reports the
counts plus the shape checks that should hold at any scale:

* change-sensitive blocks are a small share of responsive blocks;
* longer windows find fewer change-sensitive blocks (2020h1 < quarters);
* multi-observer datasets find at least as many as single-observer;
* the 2020q1 -> 2020q2 count decreases (Covid moves people behind NAT);
* churn: the q1/q2 intersection is well below either quarter (§3.4).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datasets.builder import DatasetBuilder, FunnelCounts
from ..runtime.engine import CampaignEngine, engine_scope
from .common import bench_scale, covid_world, fmt_table

__all__ = ["Table2Result", "run", "DATASETS"]

DATASETS = (
    "2019q4-w",
    "2020q1-w",
    "2020q2-w",
    "2020h1-w",
    "2020m1-w",
    "2020h1-ejnw",
    "2020m1-ejnw",
)


@dataclass(frozen=True)
class Table2Result:
    funnels: dict[str, FunnelCounts]
    cs_sets: dict[str, frozenset[str]]
    n_blocks: int

    @property
    def q1_q2_intersection(self) -> int:
        """Churn check: blocks change-sensitive in both 2020 quarters."""
        return len(self.cs_sets["2020q1-w"] & self.cs_sets["2020q2-w"])

    def shape_checks(self) -> dict[str, bool]:
        f = self.funnels
        inter = self.q1_q2_intersection
        return {
            "change-sensitive is a small share of responsive (< 35%)": all(
                fc.change_sensitive_fraction < 0.35 for fc in f.values()
            ),
            "longer window finds fewer CS (h1-w <= q1-w)": (
                f["2020h1-w"].change_sensitive <= f["2020q1-w"].change_sensitive
            ),
            "more observers find at least as many CS (m1-ejnw >= m1-w)": (
                f["2020m1-ejnw"].change_sensitive >= f["2020m1-w"].change_sensitive
            ),
            "q2 CS <= q1 CS (Covid hides people behind NAT)": (
                f["2020q2-w"].change_sensitive <= f["2020q1-w"].change_sensitive
            ),
            "churn: q1&q2 intersection below both quarters": (
                inter <= f["2020q1-w"].change_sensitive
                and inter <= f["2020q2-w"].change_sensitive
            ),
        }


def run(
    n_blocks: int | None = None,
    seed: int = 21,
    *,
    engine: CampaignEngine | None = None,
) -> Table2Result:
    """Build the world once and run the funnel for each dataset window."""
    n = bench_scale(300) if n_blocks is None else n_blocks
    world = covid_world(n, seed)
    builder = DatasetBuilder(world)
    funnels: dict[str, FunnelCounts] = {}
    cs_sets: dict[str, frozenset[str]] = {}
    with engine_scope(engine) as engine:
        for name in DATASETS:
            result = builder.analyze(name, engine=engine)
            funnels[name] = result.funnel()
            cs_sets[name] = frozenset(result.change_sensitive())
    return Table2Result(funnels=funnels, cs_sets=cs_sets, n_blocks=n)


def format_report(result: Table2Result) -> str:
    labels = [row[0] for row in next(iter(result.funnels.values())).rows()]
    rows = []
    for i, label in enumerate(labels):
        rows.append([label] + [f.rows()[i][1] for f in result.funnels.values()])
    out = [
        f"Table 2: block filtering funnel ({result.n_blocks} routed blocks simulated)",
        fmt_table(["filter stage", *result.funnels], rows),
        "",
        f"churn: CS blocks in both 2020q1-w and 2020q2-w: {result.q1_q2_intersection}",
        "",
        "shape checks vs the paper:",
    ]
    for check, ok in result.shape_checks().items():
        out.append(f"  [{'ok' if ok else 'FAIL'}] {check}")
    return "\n".join(out)


def main() -> None:
    print(format_report(run()))


if __name__ == "__main__":
    main()
