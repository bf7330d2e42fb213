"""Apply the calibration model to countries without ground truth and emit
map-ready output."""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple, Sequence

from .domain import Sex
from .errors import EmptyInput
from .fileio import write_json
from .groundtruth import GroundTruthRecord
from .stats import CalibrationModel


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

    The point prediction is exactly intercept + slope * mac_fb; the
    interval uses the residual standard error, the leverage of mac_fb in
    the training sample, and the t(df_resid) quantile.
    """
    return [
        Prediction(country, sex, mac_fb, model.predict(mac_fb), *model.prediction_interval(mac_fb, level=0.95))
        for country, sex, mac_fb in unmatched
    ]


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
    features must belong to one sex so iso2 keys stay unique.
    """
    if not predictions:
        raise EmptyInput("refusing to emit a choropleth with no predictions")
    sexes = {p.sex for p in predictions} | {t.sex for t in truth}
    if len(sexes) > 1:
        raise ValueError("choropleth features must all be for one sex")
    seen: set[str] = set()
    features = []
    for pred in predictions:
        if pred.country in seen:
            raise ValueError(f"duplicate prediction for {pred.country}")
        seen.add(pred.country)
        low, high = pred.interval_low, pred.interval_high
        features.append(_feature(pred.country, pred.sex, pred.mac_predicted, low, high, "predicted"))
    for rec in truth:
        if rec.country in seen:
            continue
        seen.add(rec.country)
        features.append(_feature(rec.country, rec.sex, rec.mac, None, None, "ground_truth"))
    features.sort(key=lambda f: f["id"])
    write_json(path, meta or {}, {"type": "FeatureCollection", "features": features})
