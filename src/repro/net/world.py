"""The synthetic-Internet world model.

A :class:`WorldModel` is a deterministic population of routed /24 blocks:
each block gets a city (weighted by the regional density of paper
Figure 7), an address-use kind drawn from the city's profile mix, a noisy
geolocation, a calendar of human events (per country) and network events
(per block), and possibly a congested path from one of the observers
(§3.3).  Everything derives from a single seed, so worlds are fully
reproducible.

Scenarios supply the event schedule.  :func:`scenario_covid2020` encodes
the early-2020 ground truth the paper validates against — per-country WFH
dates from its §3.6/§3.7 news survey, Spring Festival, the Wuhan
lockdown, the Delhi riots and Janata curfew.  :func:`scenario_baseline2023`
is the 2023q1 control of Appendix B.3/B.4: Spring Festival only, no
Covid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, datetime

import numpy as np

from .addresses import BlockAddress
from .events import (
    Calendar,
    Curfew,
    Event,
    Holiday,
    Outage,
    Renumbering,
    ServiceWindow,
    WorkFromHome,
)
from .geo import WORLD_CITIES, City, GeoInfo
from .loss import BernoulliLoss, DiurnalCongestionLoss, LossModel
from .usage import (
    BlockTruth,
    DynamicPoolUsage,
    FirewalledUsage,
    HomeEveningUsage,
    NatGatewayUsage,
    ServerFarmUsage,
    SparseUsage,
    UsageModel,
    WorkplaceUsage,
    round_grid,
)

__all__ = [
    "BlockSpec",
    "Scenario",
    "WorldModel",
    "PROFILE_MIXES",
    "scenario_covid2020",
    "scenario_baseline2023",
]


# ---------------------------------------------------------------------------
# profile mixes: fractions of block kinds among *responsive* blocks.
# Shapes follow the paper: diurnal candidates (pool/workplace/home) are a
# small share everywhere but largest where public dynamic IPs are the norm
# (Asia, Eastern Europe, Morocco); NAT dominates the West (§3.5).
# ---------------------------------------------------------------------------
PROFILE_MIXES: dict[str, dict[str, float]] = {
    "asia_dynamic": {
        "pool": 0.075,
        "workplace": 0.020,
        "home": 0.025,
        "nat": 0.210,
        "server": 0.070,
        "churn": 0.460,
        "sparse": 0.140,
    },
    "nat_heavy": {
        "pool": 0.005,
        "workplace": 0.020,
        "home": 0.010,
        "nat": 0.440,
        "server": 0.100,
        "churn": 0.310,
        "sparse": 0.115,
    },
    "mixed": {
        "pool": 0.030,
        "workplace": 0.020,
        "home": 0.015,
        "nat": 0.320,
        "server": 0.080,
        "churn": 0.400,
        "sparse": 0.135,
    },
    "university": {
        "pool": 0.020,
        "workplace": 0.250,
        "home": 0.020,
        "nat": 0.200,
        "server": 0.100,
        "churn": 0.300,
        "sparse": 0.110,
    },
}

DIURNAL_KINDS = frozenset({"pool", "workplace", "home"})


@dataclass(frozen=True)
class BlockSpec:
    """Everything needed to regenerate one block deterministically."""

    block: BlockAddress
    city: City
    geo: GeoInfo
    kind: str  # pool | workplace | home | nat | server | churn | sparse | firewalled
    seed: int
    events: tuple[Event, ...] = ()
    lossy_observers: frozenset[str] = frozenset()

    @property
    def responsive_by_design(self) -> bool:
        return self.kind != "firewalled"


@dataclass(frozen=True)
class Scenario:
    """An event schedule over the world's countries and blocks."""

    name: str
    epoch: datetime  # UTC midnight; world time zero
    max_duration_s: float
    wfh_dates: dict[str, date] = field(default_factory=dict)
    wfh_factors: dict[str, float] = field(default_factory=dict)  # per-country work factor
    wfh_pool_factors: dict[str, float] = field(default_factory=dict)  # per-country pool factor
    holidays: dict[str, tuple[Holiday, ...]] = field(default_factory=dict)
    city_events: dict[str, tuple[Event, ...]] = field(default_factory=dict)
    wfh_compliance: float = 0.85  # probability a block follows its country's WFH
    outage_rate: float = 0.20  # fraction of blocks suffering one random outage
    renumber_rate: float = 0.03
    #: fraction of diurnal blocks whose service starts late or dies early
    #: (target-list churn; drives the quarter-to-quarter CS churn of S3.4)
    service_churn_rate: float = 0.30
    #: observer -> (country, probability, loss model) congested paths
    congested_paths: tuple[tuple[str, str, float, LossModel], ...] = ()
    #: baseline random loss on every path
    base_loss: LossModel = field(default_factory=lambda: BernoulliLoss(0.004))
    #: observers with known hardware problems (heavy loss; §2.2 sites c, g)
    broken_observers: dict[str, LossModel] = field(default_factory=dict)

    def country_events(self, city: City, rng: np.random.Generator) -> tuple[Event, ...]:
        """Human-activity events for a block in ``city``."""
        events: list[Event] = []
        events.extend(self.holidays.get(city.country, ()))
        events.extend(self.city_events.get(city.name, ()))
        wfh_date = self.wfh_dates.get(city.country)
        if wfh_date is not None and rng.random() < self.wfh_compliance:
            events.append(
                WorkFromHome(
                    start=wfh_date,
                    work_factor=self.wfh_factors.get(city.country, 0.10),
                    pool_factor=self.wfh_pool_factors.get(city.country, 0.55),
                )
            )
        return tuple(events)


def scenario_covid2020() -> Scenario:
    """Early-2020 world: Covid WFH, Spring Festival, riots and curfews.

    WFH dates follow the public lockdown reports the paper matched
    detections against (§3.6, §4); Russia and Singapore fall outside
    2020q1 exactly as the paper notes.
    """
    wfh = {
        "China": date(2020, 1, 23),  # Wuhan lockdown week; nationwide measures follow
        "United States": date(2020, 3, 15),
        "Canada": date(2020, 3, 17),
        "Mexico": date(2020, 3, 23),
        "United Kingdom": date(2020, 3, 23),
        "France": date(2020, 3, 17),
        "Germany": date(2020, 3, 22),
        "Spain": date(2020, 3, 14),
        "Italy": date(2020, 3, 9),
        "Netherlands": date(2020, 3, 16),
        "Slovenia": date(2020, 3, 16),
        "Poland": date(2020, 3, 12),
        "Romania": date(2020, 3, 24),
        "Russia": date(2020, 3, 30),
        "Ukraine": date(2020, 3, 17),
        "India": date(2020, 3, 22),  # Janata curfew flowed into the Mar 24 lockdown
        "United Arab Emirates": date(2020, 3, 22),
        "Japan": date(2020, 4, 7),
        "South Korea": date(2020, 2, 25),
        "Taiwan": date(2020, 3, 20),
        "Hong Kong SAR": date(2020, 1, 29),
        "Singapore": date(2020, 4, 7),
        "Malaysia": date(2020, 3, 18),
        "Philippines": date(2020, 3, 15),
        "Thailand": date(2020, 3, 22),
        "Iran": date(2020, 3, 13),
        "Morocco": date(2020, 3, 20),
        "Egypt": date(2020, 3, 25),
        "Nigeria": date(2020, 3, 30),
        "South Africa": date(2020, 3, 27),
        "Brazil": date(2020, 3, 24),
        "Argentina": date(2020, 3, 20),
        "Colombia": date(2020, 3, 25),
        "Venezuela": date(2020, 3, 16),
        "Australia": date(2020, 3, 23),
        "New Zealand": date(2020, 3, 26),
    }
    wfh_factors = {
        # Oceania kept activity high (paper §4.1: successful travel limits)
        "Australia": 0.55,
        "New Zealand": 0.55,
        # Taiwan and Japan had mild measures in this window
        "Taiwan": 0.60,
        "Japan": 0.45,
    }
    wfh_pool_factors = {
        # India's national lockdown was among the strictest
        "India": 0.40,
        "Australia": 0.80,
        "New Zealand": 0.80,
        "Taiwan": 0.85,
        "Japan": 0.75,
    }
    spring_festival = Holiday(
        first=date(2020, 1, 24), days=8, pool_factor=0.6, name="Spring Festival"
    )
    holidays: dict[str, tuple[Holiday, ...]] = {
        "China": (spring_festival,),
        "Taiwan": (Holiday(first=date(2020, 1, 23), days=6, name="Spring Festival"),),
        "Hong Kong SAR": (Holiday(first=date(2020, 1, 25), days=4, name="Spring Festival"),),
        "South Korea": (Holiday(first=date(2020, 1, 24), days=4, name="Seollal"),),
        "United States": (
            Holiday(first=date(2020, 1, 20), name="MLK Day", pool_factor=0.95),
            Holiday(first=date(2020, 2, 17), name="Presidents' Day", pool_factor=0.95),
        ),
    }
    city_events = {
        # Wuhan's lockdown was far stricter than the national response
        "Wuhan": (
            Curfew(
                first=date(2020, 1, 23),
                days=70,
                work_factor=0.06,
                pool_factor=0.45,
                name="Wuhan lockdown",
            ),
        ),
        # Delhi riots with calls for curfew, 2020-02-23..29 (paper §4.3)
        "New Delhi": (
            Curfew(
                first=date(2020, 2, 23),
                days=7,
                work_factor=0.45,
                pool_factor=0.70,
                name="Delhi riots",
            ),
            Curfew(
                first=date(2020, 3, 22),
                days=2,
                work_factor=0.10,
                pool_factor=0.50,
                name="Janata curfew",
            ),
        ),
        # UAE disinfection campaign then night curfew (paper §3.7)
        "Abu Dhabi": (
            Curfew(
                first=date(2020, 3, 26),
                days=4,
                work_factor=0.15,
                pool_factor=0.55,
                name="UAE sterilisation curfew",
            ),
        ),
    }
    congestion = DiurnalCongestionLoss(base=0.02, peak=0.22, peak_hour=21.0, tz_hours=8.0)
    return Scenario(
        name="covid2020",
        epoch=datetime(2019, 10, 1),
        max_duration_s=274 * 86_400.0,
        wfh_dates=wfh,
        wfh_factors=wfh_factors,
        holidays=holidays,
        city_events=city_events,
        wfh_pool_factors=wfh_pool_factors,
        congested_paths=(("w", "China", 0.25, congestion),),
        broken_observers={
            "c": BernoulliLoss(0.45),
            "g": BernoulliLoss(0.45),
        },
    )


def scenario_baseline2023() -> Scenario:
    """2023q1/q2 control world: Spring Festival, no Covid events."""
    holidays = {
        "China": (
            Holiday(first=date(2023, 1, 22), days=9, pool_factor=0.6, name="Spring Festival"),
        ),
        "Taiwan": (Holiday(first=date(2023, 1, 20), days=7, name="Spring Festival"),),
        "Hong Kong SAR": (Holiday(first=date(2023, 1, 22), days=4, name="Spring Festival"),),
        "South Korea": (Holiday(first=date(2023, 1, 21), days=4, name="Seollal"),),
    }
    congestion = DiurnalCongestionLoss(base=0.02, peak=0.22, peak_hour=21.0, tz_hours=8.0)
    return Scenario(
        name="baseline2023",
        epoch=datetime(2023, 1, 1),
        max_duration_s=182 * 86_400.0,
        holidays=holidays,
        congested_paths=(("w", "China", 0.25, congestion),),
    )


# ---------------------------------------------------------------------------
# block-kind factories: per-block parameter randomization
# ---------------------------------------------------------------------------
def _build_usage(kind: str, rng: np.random.Generator) -> UsageModel:
    if kind == "workplace":
        return WorkplaceUsage(
            n_desktops=int(rng.integers(20, 120)),
            n_servers=int(rng.integers(1, 5)),
            presence=float(rng.uniform(0.78, 0.92)),
            start_hour=float(rng.uniform(8.0, 9.5)),
            end_hour=float(rng.uniform(17.0, 18.5)),
        )
    if kind == "home":
        return HomeEveningUsage(
            n_devices=int(rng.integers(10, 44)),
            presence=float(rng.uniform(0.6, 0.8)),
        )
    if kind == "pool":
        return DynamicPoolUsage(
            pool_size=int(rng.integers(64, 225)),
            peak=float(rng.uniform(0.5, 0.8)),
            trough=float(rng.uniform(0.05, 0.2)),
            peak_hour=float(rng.uniform(19.0, 22.5)),
        )
    if kind == "nat":
        return NatGatewayUsage(n_routers=int(rng.integers(2, 9)))
    if kind == "server":
        return ServerFarmUsage(n_servers=int(rng.integers(180, 251)))
    if kind == "churn":
        return SparseUsage(
            n_addresses=int(rng.integers(24, 80)),
            mean_on_days=float(rng.uniform(0.4, 1.4)),
            mean_off_days=float(rng.uniform(0.5, 2.0)),
        )
    if kind == "sparse":
        return SparseUsage(
            n_addresses=int(rng.integers(4, 14)),
            mean_on_days=float(rng.uniform(2.0, 5.0)),
            mean_off_days=float(rng.uniform(3.0, 6.0)),
        )
    if kind == "firewalled":
        return FirewalledUsage(eb_addresses=int(rng.integers(8, 33)))
    raise ValueError(f"unknown block kind: {kind}")


class WorldModel:
    """A deterministic population of routed /24 blocks.

    Parameters
    ----------
    scenario:
        Event schedule and epoch (see :func:`scenario_covid2020`).
    n_blocks:
        Number of routed blocks to simulate.  The paper's 11.1M routed
        blocks are represented proportionally at this scale.
    seed:
        Master seed; every block derives its own stream from it.
    unresponsive_fraction:
        Share of routed blocks that never answer (firewalled/unused);
        the paper sees ~0.53 (Table 2).
    diurnal_boost:
        Multiplier on the diurnal block kinds (pool/workplace/home) in
        every profile mix.  1.0 keeps the realistic, paper-like funnel
        proportions; geographic experiments oversample diurnal space
        (e.g. 3.0) so that 2x2-degree gridcells stay representable at
        laptop scale — the paper has 5.2M blocks, we have thousands.
    """

    #: ratio of allocated-but-unrouted to routed space (Table 2: 3.3M/11.1M)
    UNROUTED_RATIO = 3.3 / 11.1

    def __init__(
        self,
        scenario: Scenario,
        n_blocks: int = 400,
        seed: int = 0,
        *,
        unresponsive_fraction: float = 0.53,
        diurnal_boost: float = 1.0,
        cities: tuple[City, ...] = WORLD_CITIES,
    ) -> None:
        self.scenario = scenario
        self.seed = seed
        self.n_blocks = n_blocks
        self.unresponsive_fraction = unresponsive_fraction
        self.diurnal_boost = diurnal_boost
        self.cities = cities
        self._specs = self._populate()

    def cache_token(self) -> tuple:
        """Identity for the analysis cache (see repro.runtime.cache).

        Everything block generation depends on; two worlds with equal
        tokens produce bit-identical truths, observations and analyses.
        """
        return (
            self.scenario,
            self.n_blocks,
            self.seed,
            self.unresponsive_fraction,
            self.diurnal_boost,
            self.cities,
        )

    # -- population -----------------------------------------------------
    def _populate(self) -> tuple[BlockSpec, ...]:
        master = np.random.SeedSequence(self.seed)
        block_seeds = master.generate_state(self.n_blocks * 2).reshape(-1, 2)
        rng = np.random.default_rng(master.spawn(1)[0])

        weights = np.array([c.weight for c in self.cities], dtype=np.float64)
        weights /= weights.sum()
        city_choices = rng.choice(len(self.cities), size=self.n_blocks, p=weights)
        responsive = rng.random(self.n_blocks) >= self.unresponsive_fraction

        specs: list[BlockSpec] = []
        for i in range(self.n_blocks):
            city = self.cities[city_choices[i]]
            block_rng = np.random.default_rng(block_seeds[i])
            if responsive[i]:
                kind = self._draw_kind(city.profile, block_rng, self.diurnal_boost)
            else:
                kind = "firewalled"
            geo = GeoInfo(
                lat=city.lat + float(block_rng.normal(0, 0.12)),
                lon=city.lon + float(block_rng.normal(0, 0.12)),
                country=city.country,
                continent=city.continent,
                city=city.name,
            )
            events = self._block_events(city, kind, block_rng)
            lossy = self._lossy_observers(city, block_rng)
            specs.append(
                BlockSpec(
                    block=BlockAddress.from_index(i + 1),
                    city=city,
                    geo=geo,
                    kind=kind,
                    seed=int(block_seeds[i][0]),
                    events=events,
                    lossy_observers=lossy,
                )
            )
        return tuple(specs)

    @staticmethod
    def _draw_kind(profile: str, rng: np.random.Generator, boost: float = 1.0) -> str:
        mix = PROFILE_MIXES[profile]
        kinds = list(mix)
        probs = np.array(
            [mix[k] * (boost if k in DIURNAL_KINDS else 1.0) for k in kinds]
        )
        probs /= probs.sum()
        return str(rng.choice(kinds, p=probs))

    def _block_events(
        self, city: City, kind: str, rng: np.random.Generator
    ) -> tuple[Event, ...]:
        events = list(self.scenario.country_events(city, rng))
        horizon = self.scenario.max_duration_s
        if rng.random() < self.scenario.outage_rate:
            start = float(rng.uniform(0.05, 0.9)) * horizon
            length = float(rng.uniform(0.5, 6.0)) * 3600.0
            events.append(Outage(start_s=start, end_s=start + length))
        if kind in ("pool", "churn") and rng.random() < self.scenario.renumber_rate:
            when = float(rng.uniform(0.1, 0.9)) * horizon
            events.append(Renumbering(time_s=when, shift=int(rng.integers(16, 128))))
        if kind in ("pool", "workplace", "home") and (
            rng.random() < self.scenario.service_churn_rate
        ):
            cut = float(rng.uniform(0.2, 0.8)) * horizon
            if rng.random() < 0.5:
                events.append(ServiceWindow(start_s=cut))  # comes online late
            else:
                events.append(ServiceWindow(end_s=cut))  # goes dark early
        return tuple(events)

    def _lossy_observers(self, city: City, rng: np.random.Generator) -> frozenset[str]:
        lossy = set()
        for observer, country, prob, _model in self.scenario.congested_paths:
            if city.country == country and rng.random() < prob:
                lossy.add(observer)
        return frozenset(lossy)

    # -- accessors -------------------------------------------------------
    @property
    def blocks(self) -> tuple[BlockSpec, ...]:
        return self._specs

    @property
    def epoch(self) -> datetime:
        return self.scenario.epoch

    def calendar(self, spec: BlockSpec) -> Calendar:
        return Calendar(
            epoch=self.scenario.epoch,
            tz_hours=spec.city.tz_hours,
            events=spec.events,
        )

    def usage_model(self, spec: BlockSpec) -> UsageModel:
        rng = np.random.default_rng([spec.seed, 0xA])
        return _build_usage(spec.kind, rng)

    def truth(self, spec: BlockSpec, duration_s: float, *, start_s: float = 0.0) -> BlockTruth:
        """Ground truth for one block over ``[start_s, start_s+duration_s)``.

        Only the window's columns are generated: the epoch-anchored
        rounds from the one containing ``start_s`` to the window's end
        (capped at the scenario's horizon).  A block's activity in a
        column is a pure function of its seed, kind and absolute day
        (see :class:`~repro.net.usage.TruthStream`), so every window
        observing the block sees the same world, and a probe maps to
        the same absolute column whichever window generated it.
        """
        end = min(start_s + duration_s, self.scenario.max_duration_s)
        grid = round_grid(end, start_s=start_s)
        return self.usage_model(spec).generate((spec.seed, 0xB), grid, self.calendar(spec))

    def loss_model(self, spec: BlockSpec, observer: str) -> LossModel:
        broken = self.scenario.broken_observers.get(observer)
        if broken is not None:
            return broken
        if observer in spec.lossy_observers:
            for obs, country, _prob, model in self.scenario.congested_paths:
                if obs == observer and spec.city.country == country:
                    return model
        return self.scenario.base_loss
