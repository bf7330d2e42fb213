"""End-to-end oracle: a seeded 60-country world through `run_all`, checked
against values recomputed from the raw fixture and truth rows with csv,
numpy and scipy.stats, and none of admac's readers:

- every eligible MAC, from the raw cells in plain summation order;
- each sex's calibration line, against `scipy.stats.linregress`;
- every prediction and its 95% interval, from `t.ppf` and the leverage formula;
- the predicted set: the eligible countries without a truth row;
- each metrics_<sex>.csv row but its stars, under both LOOCV scopes: rho
  from `scipy.stats.spearmanr`, MAPE and n per continent of the bundled
  continents.csv and overall, directly and from brute-force numpy LOOCV refits.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from admac.pipeline import RunConfig, packaged_data_path, run_all
from conftest import generate_world
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


def _run(root: Path, out: str, loocv_scope: str) -> None:
    run_all(RunConfig(root / out, fixture_dir=root / "fixtures", truth_path=root / "truth.csv", seed=SEED,
                      loocv_scope=loocv_scope))


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    root = tmp_path_factory.mktemp("world")
    generate_world(root, SEED, N_COUNTRIES)
    _run(root, "out", "global")
    return root


@pytest.fixture(scope="module")
def continent_scope_out(world):
    """The output directory of a second run over the same world with per-continent LOOCV folds."""
    _run(world, "out-continent", "continent")
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


def _line(macs, truth, sex):
    """The oracle's fit of truth on MAC for one sex: (n, intercept, slope, x mean, s_xx, residual se)."""
    keys = sorted(key for key in macs if key in truth and key[1] == sex)
    x = np.array([macs[key] for key in keys])
    y = np.array([truth[key] for key in keys])
    fit = stats.linregress(x, y)
    residuals = y - (fit.intercept + fit.slope * x)
    n = len(keys)
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


def _scores(pred, truth) -> tuple[float | None, float]:
    """Spearman rho (None below 3 points) and MAPE in percent of `pred` against `truth`."""
    pred, truth = np.asarray(pred), np.asarray(truth)
    rho = float(stats.spearmanr(pred, truth).statistic) if len(pred) >= 3 else None
    return rho, float(np.mean(np.abs(pred - truth) / np.abs(truth))) * 100


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
    """label -> (direct rho, direct MAPE, LOOCV rho, LOOCV MAPE, n); LOOCV's are None for a skipped continent."""
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
        cv_scores = _scores([p for _, p, _ in cv], [t for _, _, t in cv]) if cv else (None, None)
        direct = _scores([m for _, m, _ in group], [t for _, _, t in group])
        expected[label] = (*direct, *cv_scores, len(group))
    return expected


@pytest.mark.parametrize("scope", SCOPES)
@pytest.mark.parametrize("sex", SEXES)
def test_metrics_match_spearmanr_and_numpy_loocv(world, continent_scope_out, oracle, sex, scope):
    out = world / "out" if scope == "global" else continent_scope_out
    expected = _expected_metrics(*oracle, sex, scope)
    rows = _data_rows(out / f"metrics_{sex}.csv")
    assert [row[0] for row in rows] == sorted(set(expected) - {"Overall"}) + ["Overall"]
    columns = ("metric_corr", "metric_mape", "loocv_corr", "loocv_mape", "n")
    for label, *got, _, _ in rows:
        for column, text, want in zip(columns, got, expected[label]):
            where = f"{sex}/{scope} {label} {column}"
            if want is None:
                assert text == "", where
            else:
                assert float(text) == pytest.approx(want, rel=1e-9, abs=1e-12), where
