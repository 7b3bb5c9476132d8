"""Figure 6: mitigating congestive loss with 1-loss repair (§3.3).

One block is observed through a congested path by observer w (diurnal
loss peaking in the destination's busy hours) and through clean paths by
c/e/g/n.  Two views are reproduced:

* panels (a)-(c): the per-address presence rasters — quantified as the
  mean length of uninterrupted inferred-presence runs.  Clean observers
  see long green runs (addresses hold state for days); the congested
  observer's runs are chopped short by lost replies, and 1-loss repair
  restores them;
* panel (d): per-observer mean reply rates without and with repair.
  Expected shapes: the lossy observer sits well below the others and
  biases the all-observer merge; repair restores it most of the way
  while moving clean observers barely at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

import numpy as np

from ..core.repair import one_loss_repair
from ..net.events import Calendar
from ..net.loss import BernoulliLoss, DiurnalCongestionLoss
from ..net.observations import ObservationSeries, merge_observations
from ..net.prober import probe_order
from ..net.usage import SparseUsage, round_grid
from .common import fmt_table, observe_blocks, site_lanes

__all__ = ["Fig6Result", "run"]

OBSERVERS = ("c", "e", "g", "n", "w")
LOSSY = "w"
DURATION_DAYS = 28
EPOCH = datetime(2023, 4, 1)


@dataclass(frozen=True)
class Fig6Result:
    rates_raw: dict[str, float]
    rates_repaired: dict[str, float]
    #: panels (a)-(c): mean presence-run length per observer, in probes
    run_raw: dict[str, float]
    run_repaired: dict[str, float]

    @property
    def clean_mean_raw(self) -> float:
        return float(
            np.mean([v for k, v in self.rates_raw.items() if k not in (LOSSY, "all")])
        )

    def shape_checks(self) -> dict[str, bool]:
        raw, rep = self.rates_raw, self.rates_repaired
        clean = self.clean_mean_raw
        clean_runs = np.mean([v for k, v in self.run_raw.items() if k != LOSSY])
        return {
            "(a) congestion chops the lossy observer's presence runs": (
                self.run_raw[LOSSY] < 0.6 * clean_runs
            ),
            "(c) repair restores the lossy observer's runs": (
                self.run_repaired[LOSSY] > 1.5 * self.run_raw[LOSSY]
            ),
            "lossy observer sits below the clean consensus": raw[LOSSY] < clean - 0.03,
            "loss biases the unrepaired merge": raw["all"] < clean - 0.01,
            "repair lifts the lossy observer substantially": (
                rep[LOSSY] - raw[LOSSY] > 3 * max(
                    rep[o] - raw[o] for o in OBSERVERS if o != LOSSY
                )
            ),
            "repaired merge approaches the clean consensus": abs(rep["all"] - clean)
            < abs(raw["all"] - clean),
        }


def run(seed: int = 63) -> Fig6Result:
    """Simulate the Figure 6 block and measure reply rates."""
    calendar = Calendar(epoch=EPOCH, tz_hours=8.0)
    # a Chinese destination whose addresses hold state for days (like the
    # paper's sample block: long green runs in the raster plots)
    usage = SparseUsage(n_addresses=120, mean_on_days=6.0, mean_off_days=3.0, stale_addresses=8)
    truth = usage.generate(seed, round_grid(DURATION_DAYS * 86_400.0), calendar)
    order = probe_order(truth.n_addresses, seed)
    congested = DiurnalCongestionLoss(
        base=0.04, peak=0.50, peak_hour=21.0, width_hours=11.0, tz_hours=8.0
    )
    clean = BernoulliLoss(0.004)

    losses = [congested if name == LOSSY else clean for name in OBSERVERS]
    [probed] = observe_blocks(
        [site_lanes(truth, order, seed, 101.0, sites=OBSERVERS, losses=losses)]
    )
    logs: dict[str, ObservationSeries] = dict(zip(OBSERVERS, probed))

    rates_raw = {name: series.reply_rate() for name, series in logs.items()}
    rates_raw["all"] = merge_observations(list(logs.values())).reply_rate()
    repaired = {name: one_loss_repair(series) for name, series in logs.items()}
    rates_repaired = {name: series.reply_rate() for name, series in repaired.items()}
    rates_repaired["all"] = merge_observations(list(repaired.values())).reply_rate()
    return Fig6Result(
        rates_raw=rates_raw,
        rates_repaired=rates_repaired,
        run_raw={name: mean_presence_run(series) for name, series in logs.items()},
        run_repaired={name: mean_presence_run(series) for name, series in repaired.items()},
    )


def mean_presence_run(series) -> float:
    """Mean length (in probes) of uninterrupted positive-reply runs per
    address — the quantitative version of Figure 6's green raster rows."""
    runs: list[int] = []
    for addr in series.probed_addresses():
        _, results = series.address_view(int(addr))
        current = 0
        for r in results:
            if r:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        if current:
            runs.append(current)
    return float(np.mean(runs)) if runs else 0.0


def format_report(result: Fig6Result) -> str:
    rows = [
        [
            name,
            f"{result.rates_raw[name]:.3f}",
            f"{result.rates_repaired[name]:.3f}",
            f"{result.rates_repaired[name] - result.rates_raw[name]:+.3f}",
            f"{result.run_raw[name]:.1f}" if name in result.run_raw else "-",
            f"{result.run_repaired[name]:.1f}" if name in result.run_repaired else "-",
        ]
        for name in (*OBSERVERS, "all")
    ]
    out = [
        "Figure 6: reply rates (panel d) and presence-run lengths (panels a-c)",
        f"(observer {LOSSY!r} probes through a diurnally congested link)",
        fmt_table(
            ["observer", "raw rate", "repaired", "delta", "raw run", "repaired run"], rows
        ),
        "",
    ]
    for check, ok in result.shape_checks().items():
        out.append(f"  [{'ok' if ok else 'FAIL'}] {check}")
    return "\n".join(out)


def main() -> None:
    print(format_report(run()))


if __name__ == "__main__":
    main()
