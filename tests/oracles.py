"""Independent oracle implementations the tests check the package against.

Each oracle deliberately takes a different route from the implementation:
counting ranks instead of sorting, numpy normal equations instead of
centered-moment formulas, adaptive quadrature instead of the continued
fraction, plain-order summation instead of compensated summation.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy import integrate


# --- ranks / spearman -------------------------------------------------------

def counting_ranks(xs):
    """rank_i = 1 + #smaller + (#equal - 1)/2, as exact rationals."""
    ranks = []
    for xi in xs:
        smaller = sum(1 for xj in xs if xj < xi)
        equal = sum(1 for xj in xs if xj == xi)
        ranks.append(1 + Fraction(2 * smaller + (equal - 1), 2))
    return ranks


def spearman_counting(xs, ys):
    """Spearman rho from counting ranks with exact rational moments."""
    rx = counting_ranks(xs)
    ry = counting_ranks(ys)
    n = len(xs)
    mx = sum(rx, Fraction(0)) / n
    my = sum(ry, Fraction(0)) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    sxx = sum((a - mx) ** 2 for a in rx)
    syy = sum((b - my) ** 2 for b in ry)
    return float(sxy) / math.sqrt(float(sxx) * float(syy))


# --- OLS ----------------------------------------------------------------------

def ols_normal_equations(xs, ys):
    """Simple regression through the explicit 2x2 normal equations."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    n = len(x)
    design = np.column_stack([np.ones(n), x])
    xtx = design.T @ design
    beta = np.linalg.solve(xtx, design.T @ y)
    resid = y - design @ beta
    rss = float(resid @ resid)
    df_resid = n - 2
    sigma2 = rss / df_resid
    cov = sigma2 * np.linalg.inv(xtx)
    tss = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - rss / tss if tss > 0 else 0.0
    f_stat = (tss - rss) / sigma2 if sigma2 > 0 else math.inf
    return {
        "intercept": float(beta[0]),
        "slope": float(beta[1]),
        "se_intercept": float(math.sqrt(cov[0, 0])),
        "se_slope": float(math.sqrt(cov[1, 1])),
        "residual_se": math.sqrt(sigma2),
        "r2": r2,
        "adj_r2": 1.0 - (1.0 - r2) * (n - 1) / df_resid,
        "f_stat": f_stat,
        "rss": rss,
    }


def ols_predict_lstsq(train_x, train_y, x0):
    """Held-out prediction via numpy's least-squares solver."""
    design = np.column_stack([np.ones(len(train_x)), np.asarray(train_x, dtype=float)])
    beta, *_ = np.linalg.lstsq(design, np.asarray(train_y, dtype=float), rcond=None)
    return float(beta[0] + beta[1] * x0)


# --- distribution functions ---------------------------------------------------

def t_pdf(x, df):
    return math.exp(
        math.lgamma((df + 1) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
        - (df + 1) / 2.0 * math.log1p(x * x / df)
    )


def t_cdf_quad(t, df):
    """Student-t CDF by adaptive quadrature of the density."""
    if t == 0.0:
        return 0.5
    tail, _ = integrate.quad(t_pdf, abs(t), math.inf, args=(df,), epsabs=1e-13, limit=400)
    return 1.0 - tail if t > 0 else tail


def f_pdf(x, d1, d2):
    if x <= 0:
        return 0.0
    log_num = (d1 / 2.0) * math.log(d1 / d2) + (d1 / 2.0 - 1.0) * math.log(x)
    log_den = ((d1 + d2) / 2.0) * math.log1p(d1 * x / d2)
    log_beta = math.lgamma(d1 / 2.0) + math.lgamma(d2 / 2.0) - math.lgamma((d1 + d2) / 2.0)
    return math.exp(log_num - log_den - log_beta)


def f_cdf_quad(f, d1, d2):
    """F CDF by adaptive quadrature; integrates the far tail when cheaper."""
    if f <= 0:
        return 0.0
    upper, _ = integrate.quad(f_pdf, f, math.inf, args=(d1, d2), epsabs=1e-13, limit=400)
    if upper < 0.5:
        return 1.0 - upper
    lower, _ = integrate.quad(f_pdf, 0.0, f, args=(d1, d2), epsabs=1e-13, limit=400)
    return lower


# --- MAC ------------------------------------------------------------------------

MIDPOINTS = [17.5, 22.5, 27.5, 32.5, 37.5, 42.5, 47.5]


def mac_weighted_mean(rates, reverse=False):
    """Plain-order weighted mean of midpoints (descending order if asked)."""
    pairs = list(zip(MIDPOINTS, rates))
    if reverse:
        pairs = pairs[::-1]
    num = sum(m * r for m, r in pairs)
    den = sum(r for _, r in pairs)
    return num / den


def mac_from_raw_cells(parents, totals, reverse=False):
    """Single pass over raw cells: divide, weight, normalize."""
    rates = [p / t for p, t in zip(parents, totals)]
    return mac_weighted_mean(rates, reverse=reverse)


def mac_exact_from_raw_cells(parents, totals):
    """MAC of the float rates p / t in exact rational arithmetic, rounded once.

    Plain-order sums drift a few ulps once the rates span several orders of
    magnitude (a floor-valued total next to a large one); this does not.
    """
    rates = [Fraction(p / t) for p, t in zip(parents, totals)]
    return float(sum(Fraction(m) * r for m, r in zip(MIDPOINTS, rates)) / sum(rates))
