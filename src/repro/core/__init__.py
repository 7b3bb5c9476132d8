"""The paper's contribution: the human-activity inference pipeline."""

from .aggregate import BlockRecord, CellStats, CoverageReport, GridAggregator
from .changes import ChangeDetector, ChangeEvent, ChangeReport
from .combine import (
    ObserverHealth,
    compare_observers,
    flag_outlier_observers,
)
from .diurnal import DiurnalTest, DiurnalVerdict
from .network_type import (
    NetworkTypeClassifier,
    NetworkTypeVerdict,
    timezone_from_longitude,
)
from .outages import OutageDetector, OutageInterval, corroborate_changes
from .pipeline import BlockAnalysis, BlockPipeline
from .reconstruction import Reconstruction, full_scan_durations, reconstruct
from .refresh import (
    FbsLogisticModel,
    estimate_fbs_hours,
    probes_per_round_for_target,
    select_for_additional_probing,
)
from .repair import one_loss_repair, repaired_fraction
from .sensitivity import BlockClassification, SensitivityClassifier
from .stages import PIPELINE_STAGES, StageContext, StageRecord
from .swing import SwingProfile, SwingTest
from .trend import TrendExtractor, TrendResult

__all__ = [
    "BlockRecord",
    "CellStats",
    "CoverageReport",
    "GridAggregator",
    "ChangeDetector",
    "ChangeEvent",
    "ChangeReport",
    "ObserverHealth",
    "compare_observers",
    "flag_outlier_observers",
    "DiurnalTest",
    "DiurnalVerdict",
    "NetworkTypeClassifier",
    "NetworkTypeVerdict",
    "timezone_from_longitude",
    "OutageDetector",
    "OutageInterval",
    "corroborate_changes",
    "BlockAnalysis",
    "BlockPipeline",
    "Reconstruction",
    "full_scan_durations",
    "reconstruct",
    "FbsLogisticModel",
    "estimate_fbs_hours",
    "probes_per_round_for_target",
    "select_for_additional_probing",
    "one_loss_repair",
    "repaired_fraction",
    "BlockClassification",
    "SensitivityClassifier",
    "PIPELINE_STAGES",
    "StageContext",
    "StageRecord",
    "SwingProfile",
    "SwingTest",
    "TrendExtractor",
    "TrendResult",
]
