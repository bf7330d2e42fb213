"""LOOCV, grouped metrics and the random-split out-of-sample exercise."""

from __future__ import annotations

import random

import pytest

from admac.domain import CONTINENTS, Sex
from admac.errors import TooFewPoints
from admac.groundtruth import ValidationPair
from admac.stats import (
    GroupedMetrics,
    grouped_metrics,
    loocv,
    ols_fit,
    random_split_validation,
)
from oracles import ols_predict_lstsq


def _iso2(i: int) -> str:
    return chr(ord("A") + i // 26) + chr(ord("A") + i % 26)


def make_pairs(values, continents=None):
    """values: list of (mac_fb, mac_truth)."""
    pairs = []
    continent_of = {}
    for i, (x, y) in enumerate(values):
        cont = continents[i] if continents else CONTINENTS[i % len(CONTINENTS)]
        iso2 = _iso2(i)
        pairs.append(
            ValidationPair(
                country=iso2,
                sex=Sex.MALE,
                mac_fb=x,
                mac_truth=y,
            )
        )
        continent_of[iso2] = cont
    return pairs, continent_of


def random_pairs(rng, n):
    values = [
        (x, 7.0 + 0.8 * x + rng.gauss(0, 0.8))
        for x in (rng.uniform(25, 40) for _ in range(n))
    ]
    return make_pairs(values, continents=[rng.choice(CONTINENTS) for _ in range(n)])


# --- loocv ----------------------------------------------------------------

def test_loocv_exact_on_collinear_points():
    values = [(x, 2.0 * x + 1.0) for x in (25.0, 28.0, 31.0, 34.0, 37.0)]
    pairs, continent_of = make_pairs(values)
    predictions, grouped = loocv(pairs, continent_of)
    for pair in pairs:
        assert predictions[pair.country] == pytest.approx(pair.mac_truth, rel=1e-12)
    assert grouped.overall.mape == pytest.approx(0.0, abs=1e-10)
    assert grouped.overall.n == 5


def test_loocv_matches_per_fold_refit_oracle():
    rng = random.Random(101)
    pairs, continent_of = random_pairs(rng, 10)
    predictions, _ = loocv(pairs, continent_of)
    for i, held_out in enumerate(pairs):
        rest = pairs[:i] + pairs[i + 1:]
        expected = ols_predict_lstsq(
            [p.mac_fb for p in rest], [p.mac_truth for p in rest], held_out.mac_fb
        )
        assert predictions[held_out.country] == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("scope", ["global", "continent"])
def test_loocv_predictions_equal_full_ols_fit_exactly(scope):
    rng = random.Random(303)
    pairs, continent_of = random_pairs(rng, 60)
    predictions, _ = loocv(pairs, continent_of, scope=scope)
    if scope == "global":
        fold_sets = [pairs]
    else:
        by_label = {}
        for p in pairs:
            by_label.setdefault(continent_of[p.country], []).append(p)
        fold_sets = [group for _, group in sorted(by_label.items()) if len(group) >= 4]
    expected = {}
    for fold_set in fold_sets:
        for i, held_out in enumerate(fold_set):
            model = ols_fit(fold_set[:i] + fold_set[i + 1:])
            expected[held_out.country] = model.predict(held_out.mac_fb)
    assert predictions == expected  # bit-identical, not approximately equal


def test_loocv_group_sizes_partition_overall():
    rng = random.Random(55)
    pairs, continent_of = random_pairs(rng, 23)
    _, grouped = loocv(pairs, continent_of)
    assert sum(cell.n for cell in grouped.per_continent.values()) == grouped.overall.n
    assert grouped.overall.n == 23


def test_loocv_requires_four_points():
    pairs, continent_of = make_pairs([(25.0, 26.0), (30.0, 31.0), (35.0, 36.0)])
    with pytest.raises(TooFewPoints):
        loocv(pairs, continent_of)


def test_loocv_continent_scope_skips_small_groups(caplog):
    rng = random.Random(77)
    # 6 pairs in Europe, 2 in Asia: Asia cannot support a fold of its own
    continents = ["Europe"] * 6 + ["Asia"] * 2
    values = [(x, 7.0 + 0.8 * x + rng.gauss(0, 0.5)) for x in range(25, 33)]
    pairs, continent_of = make_pairs(values, continents=continents)
    with caplog.at_level("WARNING"):
        predictions, grouped = loocv(pairs, continent_of, scope="continent")
    assert "skipping Asia" in caplog.text
    assert len(predictions) == 6
    assert set(grouped.per_continent) == {"Europe"}
    assert grouped.overall.n == 6


def test_loocv_continent_scope_fits_within_continents():
    rng = random.Random(78)
    continents = ["Europe"] * 5 + ["Africa"] * 5
    values = [(x, (2.0 if i < 5 else 0.5) * x + rng.gauss(0, 0.3)) for i, x in enumerate(range(25, 35))]
    pairs, continent_of = make_pairs(values, continents=continents)
    predictions, _ = loocv(pairs, continent_of, scope="continent")
    for i, held_out in enumerate(pairs):
        group = [p for p in pairs if continent_of[p.country] == continent_of[held_out.country]]
        rest = [p for p in group if p.country != held_out.country]
        expected = ols_predict_lstsq(
            [p.mac_fb for p in rest], [p.mac_truth for p in rest], held_out.mac_fb
        )
        assert predictions[held_out.country] == pytest.approx(expected, rel=1e-10)


def test_loocv_rejects_unknown_scope():
    pairs, continent_of = make_pairs([(25.0, 26.0)] * 4)
    with pytest.raises(ValueError):
        loocv(pairs, continent_of, scope="galaxy")


# --- grouped metrics ---------------------------------------------------------

def test_grouped_metrics_small_groups_report_no_rho():
    records = [
        ("Europe", 30.0, 31.0),
        ("Europe", 32.0, 32.5),
        ("Europe", 29.0, 30.0),
        ("Africa", 27.0, 28.0),
        ("Africa", 26.0, 27.5),
    ]
    grouped = grouped_metrics(records)
    assert isinstance(grouped, GroupedMetrics)
    assert grouped.per_continent["Africa"].spearman_rho is None
    assert grouped.per_continent["Africa"].n == 2
    assert grouped.per_continent["Europe"].spearman_rho == 1.0
    assert grouped.overall.n == 5


def test_grouped_metrics_constant_vector_reports_no_rho(caplog):
    records = [("Europe", 30.0, 31.0), ("Europe", 30.0, 32.0), ("Europe", 30.0, 30.5)]
    with caplog.at_level("WARNING"):
        grouped = grouped_metrics(records)
    assert grouped.per_continent["Europe"].spearman_rho is None
    assert grouped.per_continent["Europe"].mape > 0


def test_grouped_metrics_needs_records():
    with pytest.raises(TooFewPoints):
        grouped_metrics([])


# --- random splits -------------------------------------------------------------

def test_random_split_zero_error_on_collinear_data():
    values = [(25.0 + i, 2.0 * (25.0 + i) + 1.0) for i in range(15)]
    pairs, _ = make_pairs(values)
    for seed in (0, 1, 99):
        result = random_split_validation(pairs, runs=10, test_size=10, seed=seed)
        assert result.mean_mape == pytest.approx(0.0, abs=1e-10)
        assert len(result.per_run) == 10


def test_random_split_is_seed_deterministic():
    rng = random.Random(9)
    pairs, _ = random_pairs(rng, 20)
    first = random_split_validation(pairs, runs=10, test_size=10, seed=1234)
    second = random_split_validation(pairs, runs=10, test_size=10, seed=1234)
    assert first.per_run == second.per_run
    other = random_split_validation(pairs, runs=10, test_size=10, seed=4321)
    assert other.per_run != first.per_run


def test_random_split_needs_enough_points():
    # exactly three training pairs: test_size + 2 pairs are refused, test_size + 3 accepted
    for test_size in (1, 4, 10):
        pairs, _ = random_pairs(random.Random(10), test_size + 3)
        with pytest.raises(TooFewPoints) as refused:
            random_split_validation(pairs[:-1], runs=2, test_size=test_size, seed=0)
        assert str(refused.value) == (
            f"random_split_validation needs n >= test_size + 3 = {test_size + 3}, got {test_size + 2}"
        )
        assert len(random_split_validation(pairs, runs=2, test_size=test_size, seed=0).per_run) == 2


def test_random_split_with_one_run_is_the_first_of_many():
    pairs, _ = random_pairs(random.Random(11), 20)
    one = random_split_validation(pairs, runs=1, test_size=10, seed=3)
    many = random_split_validation(pairs, runs=10, test_size=10, seed=3)
    assert one.per_run == many.per_run[:1]
    assert one.mean_mape == one.per_run[0]


def test_random_split_refuses_fewer_than_one_run():
    pairs, _ = random_pairs(random.Random(10), 20)
    for runs in (0, -3):
        with pytest.raises(ValueError, match=f"runs must be >= 1, got {runs}"):
            random_split_validation(pairs, runs=runs, test_size=10, seed=0)


def test_random_split_runs_equal_full_ols_fit_exactly():
    from admac.stats import mape

    rng = random.Random(77)
    pairs, _ = random_pairs(rng, 40)
    result = random_split_validation(pairs, runs=10, test_size=10, seed=5)
    draws = random.Random(5)
    expected = []
    for _ in range(10):
        test_idx = set(draws.sample(range(len(pairs)), 10))
        model = ols_fit([p for i, p in enumerate(pairs) if i not in test_idx])
        test = [p for i, p in enumerate(pairs) if i in test_idx]
        expected.append(mape([model.predict(p.mac_fb) for p in test], [p.mac_truth for p in test]))
    assert list(result.per_run) == expected
