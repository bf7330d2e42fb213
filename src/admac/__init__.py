"""Mean age at childbearing (MAC) from advertising-audience counts.

The library turns platform audience snapshots into fertility schedules and
MAC estimates, validates them against reference demographic tables
(Spearman, MAPE, leave-one-out cross-validation), fits a linear calibration
of platform MAC to reference MAC, and predicts MAC for countries where no
reference exists. The `admac` CLI chains those stages over plain CSV/JSON
artifacts.
"""

from ._version import __version__
from .domain import (
    AgeGroup,
    AudienceCell,
    AudienceSnapshot,
    Continent,
    CountryRef,
    FertilitySchedule,
    ParentFilter,
    Sex,
    age_grid,
)
from .groundtruth import (
    GroundTruthRecord,
    ValidationPair,
    join_pairs,
    load_continent_map,
    load_ground_truth,
)
from .indicators import (
    IneligibilityReason,
    LowerBoundPolicy,
    MacEstimate,
    estimate_country,
    mac,
)
from .ingest import AdsApiClient, Collector, CollectorConfig, Mode, QueryDescriptor
from .predict import Prediction, emit_choropleth, predict_missing
from .stats import (
    CalibrationModel,
    GroupedMetrics,
    average_ranks,
    loocv,
    mape,
    ols_fit,
    ols_fit_xy,
    random_split_validation,
    spearman,
)

__all__ = [
    "__version__",
    "AgeGroup",
    "AudienceCell",
    "AudienceSnapshot",
    "Continent",
    "CountryRef",
    "FertilitySchedule",
    "ParentFilter",
    "Sex",
    "age_grid",
    "GroundTruthRecord",
    "ValidationPair",
    "join_pairs",
    "load_continent_map",
    "load_ground_truth",
    "IneligibilityReason",
    "LowerBoundPolicy",
    "MacEstimate",
    "estimate_country",
    "mac",
    "AdsApiClient",
    "Collector",
    "CollectorConfig",
    "Mode",
    "QueryDescriptor",
    "Prediction",
    "emit_choropleth",
    "predict_missing",
    "CalibrationModel",
    "GroupedMetrics",
    "average_ranks",
    "loocv",
    "mape",
    "ols_fit",
    "ols_fit_xy",
    "random_split_validation",
    "spearman",
]
