from __future__ import annotations

import json
import math
import random

import pytest

from admac import special
from admac.domain import Sex
from admac.groundtruth import GroundTruthRecord, join_pairs
from admac.indicators import IneligibilityReason, MacEstimate
from admac.predict import Prediction, emit_choropleth, predict_missing
from admac.special import t_quantile
from admac.stats import CalibrationModel, ols_fit_xy
from conftest import world_script


def published_model(intercept=7.451, slope=0.811, residual_se=0.949, n=81, x_mean=33.0, s_xx=675.0):
    df_resid = n - 2
    return CalibrationModel(
        intercept=intercept,
        slope=slope,
        se_intercept=1.936,
        se_slope=0.063,
        r2=0.676,
        adj_r2=0.671,
        residual_se=residual_se,
        f_stat=164.4,
        df_model=1,
        df_resid=df_resid,
        n=n,
        p_slope=0.0,
        p_intercept=0.0,
        p_f=0.0,
        residuals=(),
        x_mean=x_mean,
        s_xx=s_xx,
    )


def eligible(iso2, mac, sex=Sex.MALE):
    return MacEstimate(country=iso2, sex=sex, mac=mac, eligible=True)


def ineligible(iso2, sex=Sex.MALE):
    return MacEstimate(
        country=iso2, sex=sex, mac=None, eligible=False,
        ineligibility_reason=IneligibilityReason.LOWER_BOUND_CELL,
    )


def truth(iso2, mac=33.0, sex=Sex.MALE):
    return GroundTruthRecord(country=iso2, sex=sex, mac=mac, period="2006-2015")


def unmatched(estimates, truths):
    """What predict fills, as the predict stage takes it: the join's unmatched eligible estimates."""
    return join_pairs([(e.country, e.sex, e.mac) for e in estimates if e.eligible], truths).unmatched_estimates


def test_no_gaps_no_predictions():
    model = published_model()
    estimates = [eligible("IT", 31.0), eligible("FR", 32.0)]
    assert predict_missing(model, unmatched(estimates, [truth("IT"), truth("FR")])) == []


def test_point_prediction_is_exact_linear_map():
    model = published_model()
    preds = predict_missing(model, unmatched([eligible("TR", 30.0)], []))
    assert len(preds) == 1
    assert preds[0].mac_predicted == 7.451 + 0.811 * 30.0
    assert abs(preds[0].mac_predicted - 31.781) < 1e-12


def test_prediction_set_identity():
    model = published_model()
    estimates = [
        eligible("IT", 31.0), eligible("FR", 32.0), eligible("TR", 30.0),
        eligible("KE", 29.0), ineligible("EG"),
    ]
    truths = [truth("IT"), truth("FR"), truth("ZA")]
    preds = predict_missing(model, unmatched(estimates, truths))
    eligible_set = {e.country for e in estimates if e.eligible}
    truth_set = {t.country for t in truths}
    assert {p.country for p in preds} == eligible_set - truth_set
    assert [p.country for p in preds] == sorted(p.country for p in preds)


def test_truth_for_other_sex_does_not_block():
    model = published_model()
    preds = predict_missing(model, unmatched([eligible("IT", 31.0)], [truth("IT", sex=Sex.FEMALE)]))
    assert len(preds) == 1


def test_interval_matches_direct_formula():
    xs = [28.0, 30.0, 31.0, 33.0, 35.0, 36.0, 38.0]
    ys = [31.0, 31.9, 32.1, 34.2, 35.4, 36.4, 38.6]
    model = ols_fit_xy(xs, ys)
    x0 = 34.0
    preds = predict_missing(model, unmatched([eligible("TR", x0)], []))
    q = t_quantile(0.975, model.df_resid)
    half = q * model.residual_se * math.sqrt(
        1.0 + 1.0 / model.n + (x0 - model.x_mean) ** 2 / model.s_xx
    )
    center = model.intercept + model.slope * x0
    assert preds[0].interval_low == pytest.approx(center - half, rel=1e-12)
    assert preds[0].interval_high == pytest.approx(center + half, rel=1e-12)
    assert preds[0].interval_low <= preds[0].mac_predicted <= preds[0].interval_high


def test_interval_width_minimized_at_training_mean():
    model = published_model()
    def width(x):
        (pred,) = predict_missing(model, [("TR", Sex.MALE, x)])
        return pred.interval_high - pred.interval_low
    at_mean = width(model.x_mean)
    for x in [model.x_mean + d for d in (-6, -3, -0.5, 0.5, 2, 5, 9)]:
        assert width(x) > at_mean
    # and the width grid is symmetric around the mean
    assert width(model.x_mean - 2) == pytest.approx(width(model.x_mean + 2), rel=1e-12)


COVERAGE_DRAWS = 400
COVERAGE_BAND = (364, 393)  # the two-sided 99.9% binomial band of 400 draws at p = 0.95


def test_prediction_intervals_cover_what_they_claim():
    """Over 400 seeded draws of 31 training pairs from bench/world.py's male truth
    model, the 95% interval at one more x drawn the same way holds its truth about
    95% of the time."""
    intercept, slope, sigma = world_script().TRUTH_MODEL["male"]
    rng = random.Random(2018)

    def draw():
        x = rng.uniform(24.0, 34.0)
        return x, intercept + slope * x + rng.gauss(0.0, sigma)

    covered = 0
    for _ in range(COVERAGE_DRAWS):
        xs, ys = zip(*(draw() for _ in range(31)))
        x0, y0 = draw()
        (pred,) = predict_missing(ols_fit_xy(xs, ys), [("XX", Sex.MALE, x0)])
        covered += pred.interval_low <= y0 <= pred.interval_high
    low, high = COVERAGE_BAND
    assert low <= covered <= high, f"{covered} of {COVERAGE_DRAWS} truths covered, outside [{low}, {high}]"


def test_predictions_monotone_in_mac_fb_for_positive_slope():
    model = published_model()
    estimates = [eligible(code, 26.0 + i) for i, code in enumerate(["AA", "BB", "CC", "DD"])]
    preds = predict_missing(model, unmatched(estimates, []))
    values = [p.mac_predicted for p in sorted(preds, key=lambda p: p.mac_fb)]
    assert values == sorted(values)


# --- choropleth -------------------------------------------------------------

def _pred(iso2, value):
    return Prediction(
        country=iso2, sex=Sex.MALE, mac_fb=value - 1.0,
        mac_predicted=value, interval_low=value - 2.0, interval_high=value + 2.0,
    )


def test_choropleth_roundtrip(tmp_path):
    path = tmp_path / "map.geojson"
    emit_choropleth([_pred("TR", 32.5), _pred("KE", 30.25)], path, meta={"seed": "5"})
    doc = json.loads(path.read_text())
    assert doc["type"] == "FeatureCollection"
    assert doc["metadata"] == {"seed": "5"}
    assert [f["id"] for f in doc["features"]] == ["KE", "TR"]
    tr = next(f for f in doc["features"] if f["id"] == "TR")
    assert tr["geometry"] is None
    assert tr["properties"]["mac_predicted"] == 32.5
    assert tr["properties"]["interval_low"] == 30.5
    assert tr["properties"]["source"] == "predicted"


def test_choropleth_merges_ground_truth(tmp_path):
    path = tmp_path / "map.geojson"
    emit_choropleth([_pred("TR", 32.5)], path, truth=[truth("IT", 34.75)])
    doc = json.loads(path.read_text())
    by_id = {f["id"]: f["properties"] for f in doc["features"]}
    assert by_id["IT"]["source"] == "ground_truth"
    assert by_id["IT"]["mac_predicted"] == 34.75
    assert by_id["IT"]["interval_low"] is None
    assert by_id["TR"]["source"] == "predicted"


def test_interval_quantile_computed_once_per_model(monkeypatch):
    calls = []
    real_t_cdf = special.t_cdf

    def counting_t_cdf(t, df):
        calls.append(df)
        return real_t_cdf(t, df)

    monkeypatch.setattr(special, "t_cdf", counting_t_cdf)
    preds = predict_missing(published_model(), [(f"C{i}", Sex.MALE, 25.0 + 0.1 * i) for i in range(100)])
    assert len(preds) == 100
    assert 0 < len(calls) <= 50  # one bisection, not one per prediction
