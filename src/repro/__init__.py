"""repro: inferring changes in daily human activity from Internet response.

A from-scratch reproduction of Song, Baltra & Heidemann (IMC 2023).  The
package has four layers:

* :mod:`repro.timeseries` — STL/LOESS, CUSUM, spectra (no statsmodels);
* :mod:`repro.net` — the synthetic-Internet substrate: usage models,
  Trinocular-style observers, loss, geolocation, world scenarios;
* :mod:`repro.core` — the paper's pipeline: reconstruction, 1-loss
  repair, change-sensitivity, trend extraction, CUSUM change detection,
  geographic aggregation;
* :mod:`repro.datasets` / :mod:`repro.experiments` — Table 6 dataset
  specs and one driver per paper table/figure.

Quickstart::

    from repro import WorldModel, scenario_covid2020, DatasetBuilder

    world = WorldModel(scenario_covid2020(), n_blocks=200, seed=1)
    builder = DatasetBuilder(world)
    result = builder.analyze("2020m1-ejnw")
    print(result.funnel().rows())
"""

from .core import (
    BlockAnalysis,
    BlockPipeline,
    BlockRecord,
    ChangeDetector,
    ChangeEvent,
    DiurnalTest,
    GridAggregator,
    SensitivityClassifier,
    SwingTest,
    TrendExtractor,
    full_scan_durations,
    one_loss_repair,
    reconstruct,
)
from .datasets import CATALOG, DatasetBuilder, DatasetSpec, dataset
from .runtime import (
    CampaignEngine,
    RunMetrics,
    SerialExecutor,
    PoolExecutor,
    default_engine,
)
from .net import (
    BlockAddress,
    BlockTruth,
    Calendar,
    ObservationSeries,
    SurveyObserver,
    TrinocularObserver,
    WorldModel,
    merge_observations,
    probe_order,
    scenario_baseline2023,
    scenario_covid2020,
)
from .timeseries import TimeSeries, detect_cusum, stl_decompose

__version__ = "1.0.0"

__all__ = [
    "BlockAnalysis",
    "BlockPipeline",
    "BlockRecord",
    "ChangeDetector",
    "ChangeEvent",
    "DiurnalTest",
    "GridAggregator",
    "SensitivityClassifier",
    "SwingTest",
    "TrendExtractor",
    "full_scan_durations",
    "one_loss_repair",
    "reconstruct",
    "CATALOG",
    "DatasetBuilder",
    "DatasetSpec",
    "dataset",
    "CampaignEngine",
    "RunMetrics",
    "SerialExecutor",
    "PoolExecutor",
    "default_engine",
    "BlockAddress",
    "BlockTruth",
    "Calendar",
    "ObservationSeries",
    "SurveyObserver",
    "TrinocularObserver",
    "WorldModel",
    "merge_observations",
    "probe_order",
    "scenario_baseline2023",
    "scenario_covid2020",
    "TimeSeries",
    "detect_cusum",
    "stl_decompose",
    "__version__",
]
