"""End-to-end oracle: a seeded 60-country world through `run_all`, checked
against values recomputed from the raw fixture and truth rows with csv,
numpy and scipy.stats, and none of admac's readers:

- every eligible MAC, from the raw cells in plain summation order;
- each sex's calibration line, against `scipy.stats.linregress`;
- each model_<sex>.json inference field, against `linregress` and the t and F
  distributions, and its out-of-sample block, by replaying the seeded random
  splits with `numpy.polyfit` refits (the paper's out-of-sample MAPE);
- the statistics as well as the arithmetic: each fitted intercept and slope lies
  within 3 of its standard errors of the line `bench/world.py` drew the truth from;
- every prediction and its 95% interval, from `t.ppf` and the leverage formula;
- the predicted set: the eligible countries without a truth row;
- map.geojson: the male predictions and the male truth rows, sorted by iso2;
- each metrics_<sex>.csv row under both LOOCV scopes: rho and its stars from
  `scipy.stats.spearmanr` and the legend of `significance_stars`, MAPE and n
  per continent of the bundled continents.csv and overall, directly and from
  brute-force numpy LOOCV refits.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from admac.pipeline import RunConfig, packaged_data_path, run_all
from admac.stats import significance_stars
from conftest import generate_world, world_script
from oracles import mac_from_raw_cells

SEED = 5
N_COUNTRIES = 60
SEXES = ("female", "male")
AGE_LOWERS = (15, 20, 25, 30, 35, 40, 45)
FLOOR = 20  # the platform's lower-bound count: a sex with one such cell is ineligible
SCOPES = ("global", "continent")


def _data_rows(path: Path) -> list[list[str]]:
    """The rows of a CSV after its `#` metadata lines and its header."""
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(line for line in handle if not line.startswith("#")))[1:]


def _run(root: Path, seed: int, out: str, loocv_scope: str) -> None:
    run_all(RunConfig(root / out, fixture_dir=root / "fixtures", truth_path=root / "truth.csv", seed=seed,
                      loocv_scope=loocv_scope))


@pytest.fixture(scope="module")
def seed():
    """The world's seed, which also seeds its runs; test_world_oracle_more_seeds.py gives others."""
    return SEED


@pytest.fixture(scope="module")
def n_countries():
    """The world's country count; test_world_oracle_benchmark_scale.py gives None, every country."""
    return N_COUNTRIES


@pytest.fixture(scope="module")
def world(tmp_path_factory, seed, n_countries):
    root = tmp_path_factory.mktemp(f"world{seed}")
    generate_world(root, seed, n_countries)
    _run(root, seed, "out", "global")
    return root


@pytest.fixture(scope="module")
def continent_scope_out(world, seed):
    """The output directory of a second run over the same world with per-continent LOOCV folds."""
    _run(world, seed, "out-continent", "continent")
    return world / "out-continent"


@pytest.fixture(scope="module")
def oracle(world):
    """(iso2, sex) -> MAC of every eligible estimate, and (iso2, sex) -> truth MAC."""
    counts: dict[tuple[str, str], dict[tuple[int, str], int]] = {}
    for path in sorted((world / "fixtures").glob("*.csv")):
        for iso2, sex, age_low, _, parent_filter, count, _ in _data_rows(path):
            counts.setdefault((iso2, sex), {})[(int(age_low), parent_filter)] = int(count)
    macs = {
        key: mac_from_raw_cells(
            [cells[(age, "parent_of_child_0_12m")] for age in AGE_LOWERS],
            [cells[(age, "all")] for age in AGE_LOWERS],
        )
        for key, cells in counts.items()
        if FLOOR not in cells.values()
    }
    truth = {(iso2, sex): float(value) for iso2, sex, value, _ in _data_rows(world / "truth.csv")}
    return macs, truth


def _pairs(macs, truth, sex):
    """One sex's (MAC, truth) pairs in iso2 order, as two arrays."""
    keys = sorted(key for key in macs if key in truth and key[1] == sex)
    return np.array([macs[key] for key in keys]), np.array([truth[key] for key in keys])


def _line(macs, truth, sex):
    """The oracle's fit of truth on MAC for one sex: (n, intercept, slope, x mean, s_xx, residual se)."""
    x, y = _pairs(macs, truth, sex)
    fit = stats.linregress(x, y)
    residuals = y - (fit.intercept + fit.slope * x)
    n = len(x)
    s_xx = float(((x - x.mean()) ** 2).sum())
    residual_se = math.sqrt(float(residuals @ residuals) / (n - 2))
    return n, fit.intercept, fit.slope, float(x.mean()), s_xx, residual_se


def test_every_eligible_mac_matches_the_raw_cells(world, oracle):
    macs, _ = oracle
    got = {(iso2, sex): mac for iso2, sex, mac, eligible, _ in _data_rows(world / "out" / "estimates.csv")
           if eligible == "true"}
    assert sorted(got) == sorted(macs)
    for (iso2, sex), text in got.items():
        want = macs[(iso2, sex)]
        assert abs(float(text) - want) <= 4 * math.ulp(want), f"{iso2}/{sex} mac: {text} vs {want!r}"


@pytest.mark.parametrize("sex", SEXES)
def test_calibration_line_matches_linregress(world, oracle, sex):
    n, intercept, slope, *_ = _line(*oracle, sex)
    model = json.loads((world / "out" / f"model_{sex}.json").read_text(encoding="utf-8"))["model"]
    assert model["n"] == n, f"{sex} n"
    assert model["intercept"] == pytest.approx(intercept, rel=1e-9), f"{sex} intercept"
    assert model["slope"] == pytest.approx(slope, rel=1e-9), f"{sex} slope"


@pytest.mark.parametrize("sex", SEXES)
def test_model_inference_matches_linregress_and_the_t_and_f_tails(world, oracle, sex):
    x, y = _pairs(*oracle, sex)
    fit = stats.linregress(x, y)
    df = len(x) - 2
    rss = float(((y - (fit.intercept + fit.slope * x)) ** 2).sum())
    r2 = fit.rvalue**2
    f_stat = r2 / (1 - r2) * df
    expected = {
        "se_intercept": fit.intercept_stderr,
        "se_slope": fit.stderr,
        "r2": r2,
        "adj_r2": 1 - (1 - r2) * (len(x) - 1) / df,
        "residual_se": math.sqrt(rss / df),
        "f_stat": f_stat,
        "p_intercept": 2 * stats.t.sf(abs(fit.intercept / fit.intercept_stderr), df),
        "p_slope": fit.pvalue,
        "p_f": stats.f.sf(f_stat, 1, df),
    }
    model = json.loads((world / "out" / f"model_{sex}.json").read_text(encoding="utf-8"))["model"]
    for field, want in expected.items():
        assert model[field] == pytest.approx(want, rel=1e-9), f"{sex} {field}"


@pytest.mark.parametrize("sex", SEXES)
def test_fitted_line_lies_within_three_standard_errors_of_the_truth_model(world, seed, sex):
    intercept, slope, _ = world_script().TRUTH_MODEL[sex]
    model = json.loads((world / "out" / f"model_{sex}.json").read_text(encoding="utf-8"))["model"]
    for name, true_value in (("intercept", intercept), ("slope", slope)):
        z = (model[name] - true_value) / model[f"se_{name}"]
        assert abs(z) <= 3, f"seed {seed} {sex} {name}: {model[name]} is {z:+.2f} standard errors from {true_value}"


@pytest.mark.parametrize("sex", SEXES)
def test_out_of_sample_replays_the_seeded_splits(world, oracle, seed, sex):
    x, y = _pairs(*oracle, sex)
    rng = random.Random(seed)
    per_run = []
    for _ in range(10):  # ten runs, each holding out ten pairs drawn by the run's seed
        held = np.isin(np.arange(len(x)), rng.sample(range(len(x)), 10))
        slope, intercept = np.polyfit(x[~held], y[~held], 1)
        per_run.append(float(np.mean(np.abs(intercept + slope * x[held] - y[held]) / y[held])) * 100)
    block = json.loads((world / "out" / f"model_{sex}.json").read_text(encoding="utf-8"))["out_of_sample"]
    assert (block["runs"], block["test_size"]) == (10, 10), sex
    assert block["per_run_mape_pct"] == pytest.approx(per_run, rel=1e-9), f"{sex} per_run_mape_pct"
    mean = float(np.mean(per_run))
    assert block["mean_mape_pct"] == pytest.approx(mean, rel=1e-9), f"{sex} mean_mape_pct"
    cv = float(np.std(per_run, ddof=1)) / mean * 100
    assert block["cv_run_mape_pct"] == pytest.approx(cv, rel=1e-9), f"{sex} cv_run_mape_pct"


def test_predicted_set_is_the_eligible_countries_without_truth(world, oracle):
    macs, truth = oracle
    rows = _data_rows(world / "out" / "predictions.csv")
    assert sorted((iso2, sex) for iso2, sex, *_ in rows) == sorted(key for key in macs if key not in truth)


def test_every_prediction_matches_the_leverage_formula(world, oracle):
    macs, truth = oracle
    lines = {sex: _line(macs, truth, sex) for sex in SEXES}
    for iso2, sex, mac_fb, mac_predicted, pi_low, pi_high in _data_rows(world / "out" / "predictions.csv"):
        x0 = macs[(iso2, sex)]
        n, intercept, slope, x_mean, s_xx, residual_se = lines[sex]
        center = intercept + slope * x0
        half = stats.t.ppf(0.975, n - 2) * residual_se * math.sqrt(1 + 1 / n + (x0 - x_mean) ** 2 / s_xx)
        expected = {"mac_fb": x0, "mac_predicted": center, "pi_low": center - half, "pi_high": center + half}
        got = {"mac_fb": mac_fb, "mac_predicted": mac_predicted, "pi_low": pi_low, "pi_high": pi_high}
        for column, want in expected.items():
            assert float(got[column]) == pytest.approx(want, rel=1e-9), f"{iso2}/{sex} {column}"


def test_map_is_the_male_predictions_and_the_male_truth_rows(world, oracle):
    _, truth = oracle
    features = json.loads((world / "out" / "map.geojson").read_text(encoding="utf-8"))["features"]
    ids = [feature["id"] for feature in features]
    assert ids == sorted(set(ids)), "map ids are not ascending and unique"
    expected = {
        iso2: ("predicted", float(mac), float(low), float(high))
        for iso2, sex, _, mac, low, high in _data_rows(world / "out" / "predictions.csv")
        if sex == "male"
    }
    expected.update({iso2: ("ground_truth", value, None, None) for (iso2, sex), value in truth.items() if sex == "male"})
    assert sorted(expected) == ids
    for feature in features:
        got = feature["properties"]
        where = f"map {feature['id']}"
        assert (got["iso2"], got["sex"], feature["geometry"]) == (feature["id"], "male", None), where
        assert (got["source"], got["mac_predicted"], got["interval_low"], got["interval_high"]) == expected[
            feature["id"]
        ], where


def _scores(pred, truth) -> tuple[float | None, float, float | None]:
    """Spearman rho, MAPE in percent and rho's two-sided p-value (t with n - 2 df) of `pred`
    against `truth`; rho and p are None below 3 points."""
    pred, truth = np.asarray(pred), np.asarray(truth)
    rho, p = (float(v) for v in stats.spearmanr(pred, truth)) if len(pred) >= 3 else (None, None)
    return rho, float(np.mean(np.abs(pred - truth) / np.abs(truth))) * 100, p


def _held_out(fold):
    """Each (label, mac, truth) of `fold` predicted from a least-squares line refitted on all the others."""
    x = np.array([mac for _, mac, _ in fold])
    y = np.array([value for _, _, value in fold])
    out = []
    for i, (label, _, value) in enumerate(fold):
        rest = np.arange(len(fold)) != i
        slope, intercept = np.polyfit(x[rest], y[rest], 1)
        out.append((label, intercept + slope * x[i], value))
    return out


def _expected_metrics(macs, truth, sex, scope):
    """label -> (direct rho, direct MAPE, LOOCV rho, LOOCV MAPE, n, direct rho's stars, LOOCV rho's stars);
    LOOCV's are None, and its stars empty, for a skipped continent."""
    with open(packaged_data_path("continents.csv"), encoding="utf-8", newline="") as handle:
        continent_of = {row["iso2"]: row["continent"] for row in csv.DictReader(handle)}
    pairs = [(continent_of[iso2], macs[(iso2, s)], truth[(iso2, s)])
             for iso2, s in sorted(macs) if s == sex and (iso2, s) in truth]
    groups: dict[str, list] = {}
    for pair in pairs:
        groups.setdefault(pair[0], []).append(pair)
    # continent scope refits within each continent and skips one with fewer than 4 pairs
    folds = [pairs] if scope == "global" else [group for group in groups.values() if len(group) >= 4]
    held = [record for fold in folds for record in _held_out(fold)]
    expected = {}
    for label, group in [*groups.items(), ("Overall", pairs)]:
        cv = [record for record in held if label in ("Overall", record[0])]
        cv_rho, cv_mape, cv_p = _scores([p for _, p, _ in cv], [t for _, _, t in cv]) if cv else (None, None, None)
        rho, mape, p = _scores([m for _, m, _ in group], [t for _, _, t in group])
        expected[label] = (rho, mape, cv_rho, cv_mape, len(group), significance_stars(p), significance_stars(cv_p))
    return expected


@pytest.mark.parametrize("scope", SCOPES)
@pytest.mark.parametrize("sex", SEXES)
def test_metrics_match_spearmanr_and_numpy_loocv(world, continent_scope_out, oracle, sex, scope):
    out = world / "out" if scope == "global" else continent_scope_out
    expected = _expected_metrics(*oracle, sex, scope)
    rows = _data_rows(out / f"metrics_{sex}.csv")
    assert [row[0] for row in rows] == sorted(set(expected) - {"Overall"}) + ["Overall"]
    columns = ("metric_corr", "metric_mape", "loocv_corr", "loocv_mape", "n", "metric_corr_stars", "loocv_corr_stars")
    for label, *got in rows:
        assert len(got) == len(columns), f"{sex}/{scope} {label}"
        for column, text, want in zip(columns, got, expected[label]):
            where = f"{sex}/{scope} {label} {column}"
            if isinstance(want, str):
                assert text == want, where
            elif want is None:
                assert text == "", where
            else:
                assert float(text) == pytest.approx(want, rel=1e-9, abs=1e-12), where
