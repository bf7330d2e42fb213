"""Statistical kernels: ranks, Spearman correlation, MAPE, OLS with full
inference, leave-one-out cross-validation and the seeded random-split
out-of-sample exercise.

All kernels are pure functions over small vectors (at most a few hundred
countries), so sums use math.fsum and no array library is involved; this
keeps results bit-reproducible across platforms.
"""

from __future__ import annotations

import logging
import math
import random
import statistics
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

from . import special
from .errors import (
    DegenerateDesign,
    DegenerateInput,
    LengthMismatch,
    NonFiniteInput,
    TooFewPoints,
    ZeroTruth,
)

if TYPE_CHECKING:
    from .groundtruth import ValidationPair

logger = logging.getLogger(__name__)

UNKNOWN_CONTINENT = "Unknown"
PREDICTION_LEVEL = 0.95  # the coverage of every prediction interval


# --------------------------------------------------------------------------
# rank and correlation kernels
# --------------------------------------------------------------------------

def average_ranks(xs: Sequence[float]) -> list[float]:
    """Ranks 1..n with ties sharing the mean of their rank span.

    The rank sum is n(n+1)/2 regardless of ties (mid-rank method).
    """
    if not xs:
        raise TooFewPoints("average_ranks needs at least one value")
    for v in xs:
        if not math.isfinite(v):
            raise NonFiniteInput(f"average_ranks got non-finite value {v!r}")
    n = len(xs)
    order = sorted(range(n), key=lambda i: xs[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and xs[order[j + 1]] == xs[order[i]]:
            j += 1
        # positions i..j (0-based) share the average of ranks i+1..j+1
        shared = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = shared
        i = j + 1
    return ranks


def _pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    syy = math.fsum((y - my) ** 2 for y in ys)
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateInput("correlation undefined for a constant vector")
    return sxy / math.sqrt(sxx * syy)


def spearman(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Spearman rank correlation with a two-sided p-value.

    rho is the Pearson correlation of the mid-ranks. The p-value uses the
    t approximation t = rho*sqrt((n-2)/(1-rho^2)) against Student-t with
    n-2 degrees of freedom; it is a large-sample approximation and should
    be read with care below n ~ 20. rho = +/-1 yields p = 0 exactly.
    """
    if len(xs) != len(ys):
        raise LengthMismatch(f"spearman got lengths {len(xs)} and {len(ys)}")
    n = len(xs)
    if n < 3:
        raise TooFewPoints(f"spearman needs n >= 3, got {n}")
    rho = _pearson(average_ranks(xs), average_ranks(ys))
    rho = max(-1.0, min(1.0, rho))
    if abs(rho) == 1.0:
        return rho, 0.0
    t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    return rho, special.t_two_sided_p(t, n - 2)


def mape(pred: Sequence[float], truth: Sequence[float]) -> float:
    """Mean absolute percentage error, in percent."""
    if len(pred) != len(truth):
        raise LengthMismatch(f"mape got lengths {len(pred)} and {len(truth)}")
    if not truth:
        raise TooFewPoints("mape needs at least one observation")
    for t in truth:
        if t == 0.0:
            raise ZeroTruth("mape undefined when a truth value is zero")
    n = len(truth)
    return 100.0 / n * math.fsum(abs(p - t) / abs(t) for p, t in zip(pred, truth))


def cv_percent(values: Sequence[float]) -> float:
    """Coefficient of variation, 100 * sample sd / mean."""
    if len(values) < 2:
        raise TooFewPoints("cv_percent needs at least two values")
    mean = statistics.fmean(values)
    if mean == 0.0:
        raise ZeroTruth("cv_percent undefined for zero mean")
    return 100.0 * statistics.stdev(values) / mean


# --------------------------------------------------------------------------
# simple linear regression with inference
# --------------------------------------------------------------------------

def significance_stars(p: float | None) -> str:
    """'*' p<0.1, '**' p<0.05, '***' p<0.01 (the usual table legend)."""
    if p is None:
        return ""
    if p < 0.01:
        return "***"
    if p < 0.05:
        return "**"
    if p < 0.1:
        return "*"
    return ""


class CalibrationModel(NamedTuple):
    """y = intercept + slope * x with the full inference block.

    x_mean and s_xx are retained from the training data because leverage,
    and therefore prediction intervals, need them.
    """

    intercept: float
    slope: float
    se_intercept: float
    se_slope: float
    r2: float
    adj_r2: float
    residual_se: float
    f_stat: float
    df_model: int
    df_resid: int
    n: int
    p_slope: float
    p_intercept: float
    p_f: float
    residuals: tuple[float, ...]
    x_mean: float
    s_xx: float

    def predict(self, x: float) -> float:
        return self.intercept + self.slope * x

    def leverage(self, x: float) -> float:
        return 1.0 / self.n + (x - self.x_mean) ** 2 / self.s_xx

    def prediction_interval(self, x: float) -> tuple[float, float]:
        """Interval expected to contain a new observation at `x` with probability PREDICTION_LEVEL."""
        center = self.predict(x)
        if self.residual_se == 0.0:
            return center, center
        q = special.t_quantile(0.5 + PREDICTION_LEVEL / 2.0, self.df_resid)
        half = q * self.residual_se * math.sqrt(1.0 + self.leverage(x))
        return center - half, center + half


def _line_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float, float, float, float]:
    """The least-squares line of y on x via the centered-moment formulas,
    with ols_fit_xy's input checks: (intercept, slope, x mean, y mean, s_xx).
    """
    if len(xs) != len(ys):
        raise LengthMismatch(f"ols_fit got lengths {len(xs)} and {len(ys)}")
    n = len(xs)
    if n < 3:
        raise TooFewPoints(f"ols_fit needs n >= 3, got {n}")
    for v in (*xs, *ys):
        if not math.isfinite(v):
            raise NonFiniteInput(f"ols_fit got non-finite value {v!r}")

    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    if sxx == 0.0:
        raise DegenerateDesign("all x values are equal; slope undefined")
    slope = sxy / sxx
    return my - slope * mx, slope, mx, my, sxx


def ols_fit_xy(xs: Sequence[float], ys: Sequence[float]) -> CalibrationModel:
    """Least-squares fit of y on x with the full inference block."""
    intercept, slope, mx, my, sxx = _line_fit(xs, ys)
    n = len(xs)
    tss = math.fsum((y - my) ** 2 for y in ys)
    residuals = tuple(y - (intercept + slope * x) for x, y in zip(xs, ys))
    rss = math.fsum(r * r for r in residuals)
    df_resid = n - 2
    mse = rss / df_resid
    residual_se = math.sqrt(mse)

    se_slope = residual_se / math.sqrt(sxx)
    se_intercept = residual_se * math.sqrt(1.0 / n + mx * mx / sxx)
    if residual_se == 0.0:
        t_slope = math.inf if slope != 0.0 else 0.0
        t_intercept = math.inf if intercept != 0.0 else 0.0
    else:
        t_slope = slope / se_slope
        t_intercept = intercept / se_intercept

    if tss > 0.0:
        r2 = 1.0 - rss / tss
    else:
        # y constant: nothing to explain; define R^2 = 0 rather than 0/0
        r2 = 0.0
    r2 = max(0.0, min(1.0, r2))
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / df_resid

    f_stat = math.inf if rss == 0.0 else max((tss - rss) / mse, 0.0)

    return CalibrationModel(
        intercept=intercept,
        slope=slope,
        se_intercept=se_intercept,
        se_slope=se_slope,
        r2=r2,
        adj_r2=adj_r2,
        residual_se=residual_se,
        f_stat=f_stat,
        df_model=1,
        df_resid=df_resid,
        n=n,
        p_slope=special.t_two_sided_p(t_slope, df_resid),
        p_intercept=special.t_two_sided_p(t_intercept, df_resid),
        p_f=special.f_sf(f_stat, 1, df_resid),
        residuals=residuals,
        x_mean=mx,
        s_xx=sxx,
    )


def ols_fit(pairs: Sequence["ValidationPair"]) -> CalibrationModel:
    """Fit mac_truth = intercept + slope * mac_fb over validation pairs."""
    return ols_fit_xy([p.mac_fb for p in pairs], [p.mac_truth for p in pairs])


# --------------------------------------------------------------------------
# grouped evaluation, LOOCV, random-split validation
# --------------------------------------------------------------------------

class MetricsCell(NamedTuple):
    """Spearman + MAPE for one group; rho/p are None when undefined
    (fewer than 3 observations, or a constant vector)."""

    spearman_rho: float | None
    spearman_p: float | None
    mape: float
    n: int


class GroupedMetrics(NamedTuple):
    per_continent: dict[str, MetricsCell]
    overall: MetricsCell


def _metrics_cell(pred: Sequence[float], truth: Sequence[float]) -> MetricsCell:
    rho: float | None = None
    p: float | None = None
    if len(pred) >= 3:
        try:
            rho, p = spearman(pred, truth)
        except DegenerateInput:
            logger.warning("spearman undefined on a constant vector; reporting as NA")
    return MetricsCell(spearman_rho=rho, spearman_p=p, mape=mape(pred, truth), n=len(pred))


def grouped_metrics(
    records: Iterable[tuple[str, float, float]],
) -> GroupedMetrics:
    """Metrics per continent label plus overall.

    `records` holds (continent, predicted, truth) triples; the
    per-label cells partition the overall cell, so per-group n sums to
    overall n by construction.
    """
    records = list(records)
    if not records:
        raise TooFewPoints("grouped_metrics needs at least one record")
    by_label: dict[str, list[tuple[float, float]]] = {}
    for label, pred, truth in records:
        by_label.setdefault(label, []).append((pred, truth))
    per = {
        label: _metrics_cell([p for p, _ in vals], [t for _, t in vals])
        for label, vals in sorted(by_label.items())
    }
    overall = _metrics_cell([p for _, p, _ in records], [t for _, _, t in records])
    return GroupedMetrics(per_continent=per, overall=overall)


def loocv(
    pairs: Sequence["ValidationPair"],
    continent_of: Mapping[str, str],
    scope: str = "global",
) -> tuple[dict[str, float], GroupedMetrics]:
    """Leave-one-out cross-validation of the calibration regression.

    For each pair the line is refitted on the remaining pairs (a genuine
    refit, no hat-matrix shortcut) and the held-out truth is predicted from
    its platform MAC. A fold fits the coefficients only (`_line_fit`), not
    the inference block it does not use; its prediction is bit-identical to
    that of a full `ols_fit` on the same pairs. Returns per-country
    predictions and grouped metrics of prediction vs truth.

    scope="global" fits across all pairs per fold; scope="continent"
    refits within the held-out pair's continent only, skipping continents
    with fewer than 4 pairs.
    """
    if scope not in ("global", "continent"):
        raise ValueError(f"loocv scope must be 'global' or 'continent', got {scope!r}")
    if scope == "global":
        fold_sets = [list(pairs)]
    else:
        by_cont: dict[str, list] = {}
        for pair in pairs:
            by_cont.setdefault(continent_of.get(pair.country, UNKNOWN_CONTINENT), []).append(pair)
        fold_sets = []
        for label, group in sorted(by_cont.items()):
            if len(group) < 4:
                logger.warning(
                    "loocv scope=continent: skipping %s with only %d pair(s)", label, len(group)
                )
                continue
            fold_sets.append(group)
        if not fold_sets:
            raise TooFewPoints("no continent has the 4 pairs LOOCV needs")

    predictions: dict[str, float] = {}
    records: list[tuple[str, float, float]] = []
    for fold_set in fold_sets:
        if len(fold_set) < 4:
            raise TooFewPoints(f"loocv needs n >= 4, got {len(fold_set)}")
        xs = [p.mac_fb for p in fold_set]
        ys = [p.mac_truth for p in fold_set]
        for i, held_out in enumerate(fold_set):
            intercept, slope, *_ = _line_fit(xs[:i] + xs[i + 1:], ys[:i] + ys[i + 1:])
            pred = intercept + slope * held_out.mac_fb
            predictions[held_out.country] = pred
            records.append(
                (continent_of.get(held_out.country, UNKNOWN_CONTINENT), pred, held_out.mac_truth)
            )
    return predictions, grouped_metrics(records)


class RandomSplitResult(NamedTuple):
    mean_mape: float
    per_run: tuple[float, ...]


def random_split_validation(
    pairs: Sequence["ValidationPair"],
    runs: int = 10,
    test_size: int = 10,
    seed: int = 0,
) -> RandomSplitResult:
    """Repeated random train/test splits of the calibration regression.

    Each run holds out `test_size` pairs drawn without replacement from a
    Mersenne-Twister generator seeded with `seed` (same seed, same splits,
    on any platform), fits on the remainder and scores MAPE on the held-out
    set. Like a LOOCV fold, a run fits the coefficients only. Returns the
    per-run MAPEs and their mean.
    """
    n = len(pairs)
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if n < test_size + 3:
        raise TooFewPoints(
            f"random_split_validation needs n >= test_size + 3 = {test_size + 3}, got {n}"
        )
    rng = random.Random(seed)
    per_run: list[float] = []
    for _ in range(runs):
        test_idx = set(rng.sample(range(n), test_size))
        train = [p for i, p in enumerate(pairs) if i not in test_idx]
        test = [p for i, p in enumerate(pairs) if i in test_idx]
        intercept, slope, *_ = _line_fit([p.mac_fb for p in train], [p.mac_truth for p in train])
        per_run.append(
            mape([intercept + slope * p.mac_fb for p in test], [p.mac_truth for p in test])
        )
    return RandomSplitResult(mean_mape=statistics.fmean(per_run), per_run=tuple(per_run))
