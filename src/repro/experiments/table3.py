"""Table 3: reconstruction validation against survey ground truth.

The survey (2020it89-w) probes every address of its blocks every round
for two weeks — ground truth by construction.  We intersect its blocks
with four reconstruction options and count how many pass each
change-sensitivity check:

* 2020q1-w       — one observer, a quarter;
* 2020q1-ejnw    — four observers, a quarter;
* 2020m1-ejnw    — four observers, one month;
* 2020it89-match-ejnw — four observers, the survey's own two weeks.

Expected shapes (paper §3.2.1): more observers recover more diurnal /
change-sensitive blocks than one; shorter windows recover more than
longer ones; the 4-observer 2-week option recovers the largest share of
the survey's change-sensitive blocks (the paper reaches 70%).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datasets.builder import DatasetBuilder
from ..runtime.engine import CampaignEngine, engine_scope
from .common import bench_scale, covid_world, fmt_table

__all__ = ["Table3Result", "run", "RECONSTRUCTION_OPTIONS"]

GROUND_TRUTH = "2020it89-w"
RECONSTRUCTION_OPTIONS = (
    "2020q1-w",
    "2020q1-ejnw",
    "2020m1-ejnw",
    "2020it89-match-ejnw",
)


@dataclass(frozen=True)
class OptionCounts:
    diurnal: int
    wide_swing: int
    change_sensitive: int
    cs_recovered: int  # CS blocks shared with ground truth


@dataclass(frozen=True)
class Table3Result:
    n_overlap: int  # responsive blocks in the comparison
    truth: OptionCounts
    options: dict[str, OptionCounts]

    def recovery_rate(self, option: str) -> float:
        if self.truth.change_sensitive == 0:
            return float("nan")
        return self.options[option].cs_recovered / self.truth.change_sensitive

    def shape_checks(self) -> dict[str, bool]:
        o = self.options
        return {
            "4 observers find >= CS than 1 (q1-ejnw >= q1-w)": (
                o["2020q1-ejnw"].change_sensitive >= o["2020q1-w"].change_sensitive
            ),
            "shorter window finds >= CS (m1-ejnw >= q1-ejnw)": (
                o["2020m1-ejnw"].change_sensitive >= o["2020q1-ejnw"].change_sensitive
            ),
            "matched window recovers the most truth-CS blocks": (
                o["2020it89-match-ejnw"].cs_recovered
                == max(v.cs_recovered for v in o.values())
            ),
            "matched-window recovery above 50%": self.recovery_rate("2020it89-match-ejnw")
            >= 0.5,
        }


def run(
    n_blocks: int | None = None,
    seed: int = 22,
    *,
    engine: CampaignEngine | None = None,
) -> Table3Result:
    n = bench_scale(260) if n_blocks is None else n_blocks
    world = covid_world(n, seed, diurnal_boost=2.0)
    builder = DatasetBuilder(world)
    with engine_scope(engine) as engine:
        truth_result = builder.analyze(GROUND_TRUTH, engine=engine)
        responsive = {
            cidr
            for cidr, a in truth_result.analyses.items()
            if a.classification.responsive
        }
        truth_cs = frozenset(truth_result.change_sensitive())
        truth_counts = _counts(truth_result, responsive, truth_cs)

        options: dict[str, OptionCounts] = {}
        for name in RECONSTRUCTION_OPTIONS:
            result = builder.analyze(name, engine=engine)
            options[name] = _counts(result, responsive, truth_cs)
    return Table3Result(n_overlap=len(responsive), truth=truth_counts, options=options)


def _counts(result, overlap: set[str], truth_cs: frozenset[str]) -> OptionCounts:
    diurnal = wide = cs = recovered = 0
    for cidr, analysis in result.analyses.items():
        if cidr not in overlap:
            continue
        c = analysis.classification
        diurnal += int(c.is_diurnal)
        wide += int(c.is_wide_swing)
        if c.is_change_sensitive:
            cs += 1
            recovered += int(cidr in truth_cs)
    return OptionCounts(
        diurnal=diurnal, wide_swing=wide, change_sensitive=cs, cs_recovered=recovered
    )


def format_report(result: Table3Result) -> str:
    headers = ["metric", "truth(it89)"] + list(result.options)
    rows = []
    for field, label in (
        ("diurnal", "diurnal"),
        ("wide_swing", "wide swing"),
        ("change_sensitive", "change-sensitive"),
        ("cs_recovered", "truth-CS recovered"),
    ):
        rows.append(
            [label, getattr(result.truth, field)]
            + [getattr(v, field) for v in result.options.values()]
        )
    out = [
        f"Table 3: survey-overlap validation ({result.n_overlap} responsive blocks)",
        fmt_table(headers, rows),
        "",
        "recovery of truth change-sensitive blocks:",
    ]
    for name in result.options:
        out.append(f"  {name}: {result.recovery_rate(name):.0%}")
    out.append("")
    for check, ok in result.shape_checks().items():
        out.append(f"  [{'ok' if ok else 'FAIL'}] {check}")
    return "\n".join(out)


def main() -> None:
    print(format_report(run()))


if __name__ == "__main__":
    main()
