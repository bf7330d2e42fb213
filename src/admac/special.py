"""Special functions backing the p-value machinery.

The regularized incomplete beta function is evaluated with the continued
fraction of Numerical Recipes (modified Lentz iteration); Student-t and F
distribution functions reduce to it in the standard way. Double precision
gives roughly 1e-14 accuracy over the degrees of freedom this pipeline
meets (1..1000), comfortably inside the 1e-10 contract.
"""

from __future__ import annotations

import math

from .errors import DomainError

_MAX_ITER = 300
_EPS = 1e-15
_FPMIN = 1e-300

# p-values below this are indistinguishable from 0 at double precision and
# are reported as exactly 0.
P_FLOOR = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (NR 6.4)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):  # one Lentz step per coefficient
            d = 1.0 + aa * d
            if abs(d) < _FPMIN:
                d = _FPMIN
            c = 1.0 + aa / c
            if abs(c) < _FPMIN:
                c = _FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise DomainError(f"incomplete beta continued fraction failed to converge for a={a}, b={b}, x={x}")


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    I_0 = 0 and I_1 = 1 exactly. For x below the crossover (a+1)/(a+b+2)
    the continued fraction is applied directly, otherwise to the mirrored
    tail 1 - I_{1-x}(b, a), which keeps both tails accurate.
    """
    if a <= 0 or b <= 0:
        raise DomainError(f"betainc requires a, b > 0, got a={a}, b={b}")
    if x < 0.0 or x > 1.0:
        raise DomainError(f"betainc requires 0 <= x <= 1, got x={x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_cdf(t: float, df: float) -> float:
    """Student-t distribution function P(T <= t) with df degrees of freedom."""
    if df <= 0:
        raise DomainError(f"t_cdf requires df > 0, got {df}")
    if math.isnan(t):
        raise DomainError("t_cdf requires a finite or infinite t, got nan")
    if math.isinf(t):
        return 1.0 if t > 0 else 0.0
    if t == 0.0:
        return 0.5
    tail = 0.5 * betainc(0.5 * df, 0.5, df / (df + t * t))
    return 1.0 - tail if t > 0 else tail


def t_two_sided_p(t: float, df: float) -> float:
    """Two-sided tail probability P(|T| >= |t|).

    Computed as I_{df/(df+t^2)}(df/2, 1/2) in one shot rather than
    2*(1 - t_cdf), which would cancel for large |t|.
    """
    if df <= 0:
        raise DomainError(f"t_two_sided_p requires df > 0, got {df}")
    if math.isinf(t):
        return 0.0
    p = betainc(0.5 * df, 0.5, df / (df + t * t))
    return 0.0 if p < P_FLOOR else p


def f_sf(f: float, d1: float, d2: float) -> float:
    """Upper tail P(F >= f), evaluated directly for accuracy in the far tail."""
    if d1 <= 0 or d2 <= 0:
        raise DomainError(f"f_sf requires d1, d2 > 0, got ({d1}, {d2})")
    if f < 0:
        raise DomainError(f"f_sf requires f >= 0, got {f}")
    if math.isinf(f):
        return 0.0
    p = betainc(0.5 * d2, 0.5 * d1, d2 / (d1 * f + d2))
    return 0.0 if p < P_FLOOR else p


def t_quantile(p: float, df: float) -> float:
    """Inverse of t_cdf by bisection; adequate for interval construction.

    Monotone bisection on t_cdf down to a ~1e-13 wide bracket, about 50
    CDF evaluations.
    """
    if df <= 0:
        raise DomainError(f"t_quantile requires df > 0, got {df}")
    if not 0.0 < p < 1.0:
        raise DomainError(f"t_quantile requires 0 < p < 1, got {p}")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -t_quantile(1.0 - p, df)
    lo, hi = 0.0, 1.0
    while t_cdf(hi, df) < p:
        hi *= 2.0
        if hi > 1e300:
            raise DomainError(f"t_quantile bracket overflow for p={p}, df={df}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)
