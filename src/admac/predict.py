"""Apply the calibration model to countries without ground truth and emit
map-ready output."""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple, Sequence

from . import special
from .domain import Sex
from .fileio import write_json
from .groundtruth import GroundTruthRecord
from .stats import CalibrationModel

PREDICTION_LEVEL = 0.95  # the coverage of every prediction interval


class Prediction(NamedTuple):
    country: str
    sex: Sex
    mac_fb: float
    mac_predicted: float
    interval_low: float
    interval_high: float


def predict_missing(
    model: CalibrationModel, unmatched: Sequence[tuple[str, Sex, float]]
) -> list[Prediction]:
    """A prediction, with its 95% prediction interval, for each
    (country, sex, mac_fb) in `unmatched`, in its order: the eligible
    estimates that have no truth record, as `join_pairs` leaves them in
    `JoinResult.unmatched_estimates`.

    The point prediction is exactly intercept + slope * mac_fb; the interval
    is center -/+ q * residual_se * sqrt(1 + leverage of mac_fb), with q the
    t(df_resid) quantile at PREDICTION_LEVEL, computed once per call.
    """
    q = special.t_quantile(0.5 + PREDICTION_LEVEL / 2.0, model.df_resid)
    predictions = []
    for country, sex, mac_fb in unmatched:
        center = model.predict(mac_fb)
        half = q * model.residual_se * math.sqrt(1.0 + model.leverage(mac_fb))
        predictions.append(Prediction(country, sex, mac_fb, center, center - half, center + half))
    return predictions


def _feature(
    country: str, sex: Sex, mac: float, low: float | None, high: float | None, source: str
) -> dict:
    """One geometry-free choropleth feature, keyed by iso2."""
    properties = {
        "iso2": country,
        "sex": sex.value,
        "mac_predicted": mac,
        "interval_low": low,
        "interval_high": high,
        "source": source,
    }
    return {"type": "Feature", "id": country, "geometry": None, "properties": properties}


def emit_choropleth(
    predictions: Sequence[Prediction],
    path: str | Path,
    truth: Sequence[GroundTruthRecord] = (),
    meta: dict[str, str] | None = None,
) -> None:
    """GeoJSON FeatureCollection keyed by iso2, geometry-free.

    Features carry only properties (mac value, interval, source); a static
    boundaries file supplies shapes at render time. Ground-truth countries
    can be merged in (source="ground_truth") for a gap-free map. All
    features must belong to one sex and no iso2 may come twice, so iso2
    keys stay unique: `stage_predict` passes one sex's join, whose
    unmatched estimates and kept truth records share no iso2.
    """
    features = [
        _feature(p.country, p.sex, p.mac_predicted, p.interval_low, p.interval_high, "predicted")
        for p in predictions
    ]
    features += (_feature(r.country, r.sex, r.mac, None, None, "ground_truth") for r in truth)
    features.sort(key=lambda f: f["id"])
    write_json(path, meta or {}, {"type": "FeatureCollection", "features": features})
