from __future__ import annotations

import math
import random

import pytest
from scipy import stats as scipy_stats

from admac.errors import DomainError
from admac.special import betainc, f_sf, t_cdf, t_quantile, t_two_sided_p
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


def test_two_sided_p_matches_direct_formula():
    for df in (5, 79, 136):
        for t in (0.5, 2.0, 6.2):
            direct = 2.0 * (1.0 - t_cdf(t, df))
            assert t_two_sided_p(t, df) == pytest.approx(direct, rel=1e-9)
    assert t_two_sided_p(math.inf, 10) == 0.0
    assert t_two_sided_p(0.0, 10) == 1.0


def test_two_sided_p_far_tail_avoids_cancellation():
    # 2*(1 - cdf) loses all digits out here; the beta form must not
    p = t_two_sided_p(60.0, 136)
    assert 0.0 < p < 1e-60
    assert p == pytest.approx(2.0 * scipy_stats.t.sf(60.0, 136), rel=1e-9)


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
