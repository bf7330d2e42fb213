from __future__ import annotations

import math
import random
import re

import pytest
from scipy import stats as scipy_stats

from admac.errors import DomainError
from admac.special import P_FLOOR, betainc, f_sf, t_cdf, t_quantile, t_two_sided_p
from oracles import f_cdf_quad, t_cdf_quad


def test_betainc_endpoints_exact():
    for a, b in [(0.5, 0.5), (2.0, 7.0), (39.5, 0.5), (100.0, 3.0)]:
        assert betainc(a, b, 0.0) == 0.0
        assert betainc(a, b, 1.0) == 1.0


def test_betainc_domain_errors():
    with pytest.raises(DomainError):
        betainc(0.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        betainc(1.0, -2.0, 0.5)
    with pytest.raises(DomainError):
        betainc(1.0, 1.0, 1.5)


def test_betainc_refuses_a_zero_parameter_by_name():
    # at x = 0 or 1 nothing below would raise, elsewhere lgamma(0) would, as a bare ValueError
    for a, b in ((0.0, 1.0), (1.0, 0.0)):
        for x in (0.0, 0.5, 1.0):
            with pytest.raises(DomainError, match=re.escape(f"betainc requires a, b > 0, got a={a}, b={b}")):
                betainc(a, b, x)


def test_betainc_reflection_identity():
    rng = random.Random(42)
    for _ in range(500):
        a = rng.uniform(0.5, 200.0)
        b = rng.uniform(0.5, 200.0)
        x = rng.uniform(1e-6, 1.0 - 1e-6)
        assert abs(betainc(a, b, x) + betainc(b, a, 1.0 - x) - 1.0) <= 1e-12


def test_betainc_against_scipy():
    rng = random.Random(7)
    for _ in range(200):
        a = rng.uniform(0.5, 300.0)
        b = rng.uniform(0.5, 300.0)
        x = rng.uniform(0.0, 1.0)
        assert betainc(a, b, x) == pytest.approx(scipy_stats.beta.cdf(x, a, b), abs=1e-12)


def test_t_cdf_at_zero_is_half():
    for df in (1, 2, 5, 79, 136, 1000, 0.7):
        assert t_cdf(0.0, df) == 0.5


def test_t_cdf_against_quadrature():
    for df in (1, 5, 79, 136, 1000):
        for t in (-6.2, -2.0, -0.3, 0.4, 2.0, 3.5, 8.0):
            assert t_cdf(t, df) == pytest.approx(t_cdf_quad(t, df), abs=1e-10)


def test_t_cdf_symmetry_and_limits():
    assert t_cdf(math.inf, 10) == 1.0
    assert t_cdf(-math.inf, 10) == 0.0
    for df in (3, 50):
        for t in (0.7, 1.9, 4.2):
            assert t_cdf(t, df) + t_cdf(-t, df) == pytest.approx(1.0, abs=1e-14)


def test_t_cdf_domain_error():
    with pytest.raises(DomainError):
        t_cdf(1.0, 0)
    with pytest.raises(DomainError):
        t_cdf(float("nan"), 5)


def test_t_cdf_refuses_a_df_that_is_not_positive():
    # at t = 0 nothing below would raise, elsewhere betainc would, under its own name
    for df in (0, -1, -0.5):
        for t in (0.0, 1.0):
            with pytest.raises(DomainError, match=f"t_cdf requires df > 0, got {df}"):
                t_cdf(t, df)


def test_two_sided_p_matches_direct_formula():
    for df in (5, 79, 136):
        for t in (0.5, 2.0, 6.2):
            direct = 2.0 * (1.0 - t_cdf(t, df))
            assert t_two_sided_p(t, df) == pytest.approx(direct, rel=1e-9)
    assert t_two_sided_p(math.inf, 10) == 0.0
    assert t_two_sided_p(0.0, 10) == 1.0


def test_two_sided_p_refuses_a_df_that_is_not_positive():
    for df in (0, -1, -0.5):
        with pytest.raises(DomainError, match=f"requires df > 0, got {df}"):
            t_two_sided_p(2.0, df)


def test_two_sided_p_far_tail_avoids_cancellation():
    # 2*(1 - cdf) loses all digits out here; the beta form must not
    p = t_two_sided_p(60.0, 136)
    assert 0.0 < p < 1e-60
    assert p == pytest.approx(2.0 * scipy_stats.t.sf(60.0, 136), rel=1e-9)


def test_tails_below_the_floor_are_reported_as_exactly_zero():
    # both reduce to I_x(5, 1/2) at x = 10 / (10 + 1e62): ~2.5e-306, positive but under P_FLOOR
    assert 0.0 < betainc(5.0, 0.5, 10 / (10 + 1e62)) < P_FLOOR
    assert t_two_sided_p(1e31, 10) == 0.0
    assert f_sf(1e62, 1, 10) == 0.0


def test_f_cdf_against_quadrature():
    # the F distribution function is 1 - f_sf
    for d1, d2 in ((1, 5), (1, 79), (1, 136), (5, 1000), (79, 79)):
        for f in (0.05, 0.5, 1.0, 3.84, 12.0):
            assert 1.0 - f_sf(f, d1, d2) == pytest.approx(f_cdf_quad(f, d1, d2), abs=1e-10)


def test_f_cdf_edges_and_errors():
    assert f_sf(0.0, 3, 7) == 1.0
    assert f_sf(math.inf, 3, 7) == 0.0
    with pytest.raises(DomainError):
        f_sf(-0.5, 3, 7)
    with pytest.raises(DomainError):
        f_sf(1.0, 0, 7)


def test_f_sf_refuses_degrees_of_freedom_that_are_not_positive():
    for d1, d2 in ((0, 7), (3, 0), (-1, 7), (3, -2.5)):
        with pytest.raises(DomainError, match=re.escape(f"f_sf requires d1, d2 > 0, got ({d1}, {d2})")):
            f_sf(1.0, d1, d2)


def test_f_sf_at_one_and_fractional_degrees_of_freedom():
    # d = 1 is the least the pipeline passes (df_resid at n = 3); the guard is d > 0, not d > 1
    for d1, d2 in ((1, 1), (3, 1), (0.5, 0.5), (1, 0.7)):
        for f in (0.2, 2.0, 40.0):
            assert f_sf(f, d1, d2) == pytest.approx(scipy_stats.f.sf(f, d1, d2), rel=1e-9)


def test_f_sf_complements_cdf():
    # f_sf evaluates the mirrored beta tail; the direct one is the F distribution function
    for d1, d2 in ((1, 79), (2, 30)):
        for f in (0.3, 1.7, 9.9):
            cdf = betainc(0.5 * d1, 0.5 * d2, d1 * f / (d1 * f + d2))
            assert f_sf(f, d1, d2) == pytest.approx(1.0 - cdf, abs=1e-12)
    assert f_sf(164.4, 1, 79) == pytest.approx(scipy_stats.f.sf(164.4, 1, 79), rel=1e-9)


def test_t_quantile_inverts_cdf():
    for df in (1, 5, 79, 300):
        for p in (0.6, 0.9, 0.975, 0.995):
            q = t_quantile(p, df)
            assert t_cdf(q, df) == pytest.approx(p, abs=1e-12)
            assert t_quantile(1.0 - p, df) == pytest.approx(-q, abs=1e-12)
    assert t_quantile(0.5, 17) == 0.0
    with pytest.raises(DomainError):
        t_quantile(0.0, 5)
    with pytest.raises(DomainError):
        t_quantile(0.975, -1)


def test_t_quantile_refusals_name_the_value_given():
    # at df = 0 t_cdf would raise under its own name, or p = 0.5 return 0; at p = 0 and 1
    # the bisection would raise for another p, or only after overflowing its bracket
    for df in (0, -1):
        for p in (0.5, 0.975):
            with pytest.raises(DomainError, match=f"t_quantile requires df > 0, got {df}"):
                t_quantile(p, df)
    for p in (0.0, 1.0, -0.25, 1.5):
        with pytest.raises(DomainError, match=re.escape(f"t_quantile requires 0 < p < 1, got {p}")):
            t_quantile(p, 5)
