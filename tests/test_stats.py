from __future__ import annotations

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from admac.errors import (
    DegenerateDesign,
    DegenerateInput,
    LengthMismatch,
    NonFiniteInput,
    TooFewPoints,
    ZeroTruth,
)
from admac.stats import (
    _line_fit,
    average_ranks,
    cv_percent,
    mape,
    ols_fit_xy,
    significance_stars,
    spearman,
)
from oracles import counting_ranks, ols_normal_equations, spearman_counting

finite_floats = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)


# --- ranks ----------------------------------------------------------------

def test_ranks_simple():
    assert average_ranks([10, 20, 30]) == [1, 2, 3]
    assert average_ranks([5, 5, 9]) == [1.5, 1.5, 3]
    assert average_ranks([7]) == [1.0]


def test_ranks_reject_bad_input():
    with pytest.raises(TooFewPoints):
        average_ranks([])
    with pytest.raises(NonFiniteInput):
        average_ranks([1.0, math.nan])
    with pytest.raises(NonFiniteInput):
        average_ranks([1.0, math.inf])


def test_ranks_match_counting_oracle_with_ties():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 60)
        xs = [rng.choice([rng.uniform(0, 10), rng.randint(0, 5)]) for _ in range(n)]
        assert average_ranks(xs) == [float(r) for r in counting_ranks(xs)]


@given(st.lists(finite_floats, min_size=1, max_size=80))
def test_rank_sum_identity(xs):
    n = len(xs)
    assert math.fsum(average_ranks(xs)) == pytest.approx(n * (n + 1) / 2, rel=1e-12)


# --- spearman ----------------------------------------------------------------

def test_spearman_identity_and_reversal_exact():
    xs = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3]
    rho, p = spearman(xs, xs)
    assert rho == 1.0 and p == 0.0
    rho, p = spearman(xs, [-x for x in xs])
    assert rho == -1.0 and p == 0.0


def test_spearman_errors():
    with pytest.raises(LengthMismatch):
        spearman([1, 2, 3], [1, 2])
    with pytest.raises(TooFewPoints):
        spearman([1, 2], [1, 2])
    with pytest.raises(DegenerateInput):
        spearman([1, 1, 1], [1, 2, 3])
    with pytest.raises(DegenerateInput):
        spearman([1, 2, 3], [5, 5, 5])


def test_spearman_matches_counting_oracle():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(3, 40)
        xs = [rng.choice([round(rng.uniform(0, 4), 1), rng.randint(0, 3)]) for _ in range(n)]
        ys = [rng.choice([round(rng.uniform(0, 4), 1), rng.randint(0, 3)]) for _ in range(n)]
        if len(set(xs)) == 1 or len(set(ys)) == 1:
            continue
        assert spearman(xs, ys)[0] == spearman_counting(xs, ys)


def test_spearman_matches_scipy():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(5, 100)
        xs = [rng.gauss(0, 1) for _ in range(n)]
        ys = [0.4 * x + rng.gauss(0, 1) for x in xs]
        rho, p = spearman(xs, ys)
        expected = scipy_stats.spearmanr(xs, ys)
        assert rho == pytest.approx(expected.statistic, abs=1e-12)
        assert p == pytest.approx(expected.pvalue, rel=1e-6)


def _same_order(a, b):
    return all(
        (a[i] < a[j]) == (b[i] < b[j]) and (a[i] == a[j]) == (b[i] == b[j])
        for i in range(len(a))
        for j in range(i + 1, len(a))
    )


@given(
    st.lists(st.tuples(finite_floats, finite_floats), min_size=3, max_size=40),
    st.sampled_from(["exp", "affine", "cube"]),
)
@settings(max_examples=60)
def test_spearman_invariant_under_increasing_transform(pairs, transform):
    xs = [a for a, _ in pairs]
    ys = [b for _, b in pairs]
    if len(set(xs)) == 1 or len(set(ys)) == 1:
        return
    fns = {
        "exp": lambda v: math.exp(v / 1e6),
        "affine": lambda v: 3.0 * v + 11.0,
        "cube": lambda v: v ** 3,
    }
    txs = [fns[transform](x) for x in xs]
    # the float transform must actually stay strictly increasing on these
    # values (rounding can collapse near-equal inputs)
    assume(_same_order(xs, txs))
    assert spearman(xs, ys)[0] == spearman(txs, ys)[0]


# --- mape ----------------------------------------------------------------

def test_mape_basics():
    assert mape([3.0, 4.0], [3.0, 4.0]) == 0.0
    truth = [2.0, 5.0, 40.0]
    assert mape([1.1 * t for t in truth], truth) == pytest.approx(10.0, rel=1e-12)


def test_mape_errors():
    with pytest.raises(LengthMismatch):
        mape([1.0], [1.0, 2.0])
    with pytest.raises(ZeroTruth):
        mape([1.0], [0.0])
    with pytest.raises(TooFewPoints):
        mape([], [])


def test_mape_matches_elementwise_oracle():
    rng = random.Random(5)
    pred = [rng.uniform(-50, 50) for _ in range(20)]
    truth = [rng.choice([-1, 1]) * rng.uniform(1, 50) for _ in range(20)]
    direct = 100.0 / 20 * sum(abs(p - t) / abs(t) for p, t in zip(pred, truth))
    assert mape(pred, truth) == pytest.approx(direct, rel=1e-12)


def test_mape_scale_invariance():
    rng = random.Random(6)
    pred = [rng.uniform(10, 60) for _ in range(15)]
    truth = [rng.uniform(10, 60) for _ in range(15)]
    base = mape(pred, truth)
    for c in (1e-6, 0.5, 7.0, 1e6):
        scaled = mape([c * p for p in pred], [c * t for t in truth])
        assert scaled == pytest.approx(base, rel=1e-12)


def test_cv_percent():
    assert cv_percent([2.0, 2.0, 2.0]) == 0.0
    vals = [1.0, 2.0, 3.0]
    assert cv_percent(vals) == pytest.approx(100.0 * 1.0 / 2.0, rel=1e-12)
    with pytest.raises(TooFewPoints):
        cv_percent([1.0])
    with pytest.raises(ZeroTruth):
        cv_percent([-1.0, 1.0])


# --- OLS ----------------------------------------------------------------

def test_ols_exact_fit():
    xs = [1.0, 2.0, 3.0, 4.0, 5.0]
    ys = [2 * x + 1 for x in xs]
    model = ols_fit_xy(xs, ys)
    assert model.slope == 2.0
    assert model.intercept == 1.0
    assert model.r2 == 1.0
    assert model.residual_se == 0.0
    assert model.p_slope == 0.0
    assert math.isinf(model.f_stat)
    assert model.n == 5 and model.df_resid == 3
    assert model.prediction_interval(2.5) == (6.0, 6.0)


def test_ols_of_a_constant_y_explains_nothing():
    model = ols_fit_xy([1.0, 2.0, 3.0, 4.0], [7.0, 7.0, 7.0, 7.0])
    assert model.slope == 0.0 and model.intercept == 7.0
    assert model.r2 == 0.0


def test_ols_errors():
    with pytest.raises(TooFewPoints):
        ols_fit_xy([1, 2], [1, 2])
    with pytest.raises(DegenerateDesign):
        ols_fit_xy([2, 2, 2], [1, 2, 3])
    with pytest.raises(LengthMismatch):
        ols_fit_xy([1, 2, 3], [1, 2])
    with pytest.raises(NonFiniteInput):
        ols_fit_xy([1, 2, math.nan], [1, 2, 3])


@pytest.mark.parametrize(
    "xs, ys, error",
    [
        ([1, 2], [1, 2], TooFewPoints),
        ([1, 2, 3], [1, 2], LengthMismatch),
        ([1, 2, math.nan], [1, 2, 3], NonFiniteInput),
        ([1, 2, 3], [1, math.inf, 3], NonFiniteInput),
        ([2, 2, 2], [1, 2, 3], DegenerateDesign),
    ],
    ids=["n<3", "lengths", "nan_x", "inf_y", "equal_x"],
)
def test_line_fit_raises_what_ols_fit_xy_raises(xs, ys, error):
    with pytest.raises(error) as full:
        ols_fit_xy(xs, ys)
    with pytest.raises(error) as line:
        _line_fit(xs, ys)
    assert str(line.value) == str(full.value)


def test_line_fit_gives_the_ols_fit_xy_coefficients_exactly():
    rng = random.Random(29)
    for _ in range(20):
        xs, ys = _random_dataset(rng)
        model = ols_fit_xy(xs, ys)
        my = math.fsum(ys) / len(ys)
        assert _line_fit(xs, ys) == (model.intercept, model.slope, model.x_mean, my, model.s_xx)


def _random_dataset(rng, n=None):
    n = n or rng.randint(3, 200)
    slope = rng.choice([-1, 1]) * rng.uniform(0.3, 2.5)
    intercept = rng.uniform(-20, 20)
    sd = rng.uniform(0.1, 2.0)
    xs = [rng.uniform(0, 10) + rng.uniform(-5, 5) for _ in range(n)]
    if len(set(xs)) == 1:
        xs[0] += 1.0
    ys = [intercept + slope * x + rng.gauss(0, sd) for x in xs]
    return xs, ys


def test_ols_matches_normal_equations_oracle():
    rng = random.Random(17)
    for _ in range(25):
        xs, ys = _random_dataset(rng)
        model = ols_fit_xy(xs, ys)
        oracle = ols_normal_equations(xs, ys)
        for key in ("intercept", "slope", "se_intercept", "se_slope", "r2", "residual_se", "f_stat"):
            assert getattr(model, key) == pytest.approx(oracle[key], rel=1e-10), key


def test_ols_inference_invariants():
    rng = random.Random(29)
    for _ in range(25):
        xs, ys = _random_dataset(rng)
        n = len(xs)
        model = ols_fit_xy(xs, ys)
        scale = max(abs(y) for y in ys) or 1.0
        assert abs(math.fsum(model.residuals)) <= 1e-9 * n * scale
        # fitted line passes through the mean point
        my = math.fsum(ys) / n
        assert model.predict(model.x_mean) == pytest.approx(my, rel=1e-10)
        assert model.f_stat == pytest.approx((model.slope / model.se_slope) ** 2, rel=1e-9)
        assert model.p_f == pytest.approx(model.p_slope, abs=1e-9)
        assert 0.0 <= model.r2 <= 1.0
        assert model.n == model.df_resid + 2


def test_ols_r2_equals_squared_pearson():
    rng = random.Random(31)
    for _ in range(10):
        xs, ys = _random_dataset(rng)
        model = ols_fit_xy(xs, ys)
        r = scipy_stats.pearsonr(xs, ys).statistic
        assert model.r2 == pytest.approx(r * r, abs=1e-10)


def test_ols_pvalues_match_scipy_linregress():
    rng = random.Random(37)
    for _ in range(10):
        xs, ys = _random_dataset(rng, n=rng.randint(10, 60))
        model = ols_fit_xy(xs, ys)
        expected = scipy_stats.linregress(xs, ys)
        assert model.p_slope == pytest.approx(expected.pvalue, rel=1e-8)
        assert model.se_slope == pytest.approx(expected.stderr, rel=1e-10)
        assert model.se_intercept == pytest.approx(expected.intercept_stderr, rel=1e-10)


def test_significance_stars_thresholds():
    assert significance_stars(0.005) == "***"
    assert significance_stars(0.01) == "**"
    assert significance_stars(0.02) == "**"
    assert significance_stars(0.05) == "*"
    assert significance_stars(0.07) == "*"
    assert significance_stars(0.1) == ""
    assert significance_stars(0.5) == ""
    assert significance_stars(None) == ""
