"""Quadrature oracle tests.

The ball oracle is itself a reference for the Monte Carlo engine, so it
gets the strictest anchors available: frozen 40-digit values, an exact
closed form in dimension three, the interval case, and scipy's
chi-square CDF.
"""

import math

import mpmath
import numpy as np
import pytest
import scipy.stats

from shiftbounds import DomainError, NumericError, oracle_ball, oracle_slab
from shiftbounds.kernels import std_normal_pdf
from shiftbounds.oracles import adaptive_simpson, chi_square_cdf


def ball_3d_closed_form(radius, t):
    # The dof-2 chi-square CDF (1 - e^{-y/2}) integrates in closed form.
    g = oracle_slab(radius, t)
    if t == 0.0:
        tail = std_normal_pdf(0.0) * math.exp(-0.5 * radius * radius) * 2.0 * radius
    else:
        tail = (
            std_normal_pdf(t)
            * math.exp(-0.5 * radius * radius)
            * 2.0
            * math.sinh(radius * t)
            / t
        )
    return g - tail


class TestAdaptiveSimpson:
    def test_polynomial_exactness(self):
        assert adaptive_simpson(lambda x: x * x, 0.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-13)
        assert adaptive_simpson(lambda x: x**3 - x, -2.0, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_sine(self):
        assert adaptive_simpson(math.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-11)

    def test_min_depth_catches_hidden_bump(self):
        # A bump invisible to the coarse pass but resolved at the forced
        # depth (panels of width 2^-6): with min_depth=0 the first flat
        # Richardson test accepts ~0, losing the whole bump mass.
        def bump(x):
            return math.exp(-((x - 0.123) ** 2) * 5e3)

        want = math.sqrt(math.pi / 5e3)  # full Gaussian mass, tails negligible
        naive = adaptive_simpson(bump, 0.0, 1.0, abs_tol=1e-10, min_depth=0)
        got = adaptive_simpson(bump, 0.0, 1.0, abs_tol=1e-10)
        assert naive == pytest.approx(0.0, abs=1e-12)
        assert got == pytest.approx(want, rel=1e-8)

    def test_depth_cap_raises(self):
        step = lambda x: 0.0 if x < 1.0 / 3.0 else 1.0
        with pytest.raises(NumericError):
            adaptive_simpson(step, 0.0, 1.0, abs_tol=1e-15, max_depth=12)

    def test_domain(self):
        with pytest.raises(DomainError):
            adaptive_simpson(math.sin, 1.0, 0.0)
        with pytest.raises(DomainError):
            adaptive_simpson(math.sin, 0.0, math.inf)
        with pytest.raises(DomainError):
            adaptive_simpson(math.sin, 0.0, 1.0, abs_tol=0.0)
        with pytest.raises(DomainError):
            adaptive_simpson(math.sin, 0.0, 1.0, min_depth=5, max_depth=4)


class TestChiSquareCdf:
    def test_frozen_value(self):
        assert chi_square_cdf(3, 1.0) == pytest.approx(0.1987480430987992, rel=1e-14)

    def test_against_scipy(self):
        for dof in (1, 2, 3, 5, 10):
            for x in np.linspace(0.1, 30.0, 25):
                assert chi_square_cdf(dof, float(x)) == pytest.approx(
                    float(scipy.stats.chi2.cdf(x, dof)), rel=1e-12
                )

    def test_nonpositive_argument(self):
        assert chi_square_cdf(2, 0.0) == 0.0
        assert chi_square_cdf(2, -1.0) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            chi_square_cdf(0, 1.0)
        with pytest.raises(DomainError):
            chi_square_cdf(2.0, 1.0)
        with pytest.raises(DomainError):
            chi_square_cdf(2, math.nan)


class TestOracleBall:
    def test_frozen_values(self):
        assert oracle_ball(2, 2.0, 0.0) == pytest.approx(1.0 - math.exp(-2.0), abs=1e-10)
        assert oracle_ball(2, 1.0, 0.0) == pytest.approx(1.0 - math.exp(-0.5), abs=1e-10)
        assert oracle_ball(3, 1.0, 1.0) == pytest.approx(0.13229855416357617, abs=1e-10)
        assert oracle_ball(5, 2.0, 1.0) == pytest.approx(0.34718970217475014, abs=1e-10)

    def test_matches_3d_closed_form(self):
        for radius in (0.5, 1.0, 2.0):
            for t in (0.0, 0.7, 1.5):
                assert oracle_ball(3, radius, t) == pytest.approx(
                    ball_3d_closed_form(radius, t), abs=1e-10
                )

    def test_dimension_one_is_the_slab(self):
        for radius in (0.5, 2.0):
            for t in (0.0, 1.0, 3.0):
                assert oracle_ball(1, radius, t) == oracle_slab(radius, t)

    def test_far_tail_keeps_relative_accuracy(self):
        # Mass ~3.4e-20: the minimum refinement depth must force the
        # quadrature to see the sliver of integrand mass near x = -R.
        got = oracle_ball(2, 1.0, 10.0)
        assert got == pytest.approx(3.413648946230375e-20, rel=1e-10)
        assert got <= 0.5 * math.erfc(9.0 / math.sqrt(2.0))

    def test_monotone_in_radius_and_shift(self):
        masses_r = [oracle_ball(3, r, 0.5) for r in (0.5, 1.0, 1.5, 2.0, 3.0)]
        assert all(b > a for a, b in zip(masses_r, masses_r[1:]))
        masses_t = [oracle_ball(3, 1.5, t) for t in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(b < a for a, b in zip(masses_t, masses_t[1:]))

    def test_even_dimension_endpoint_regression(self):
        # dof = 1 puts a sqrt cusp at the x-endpoints; this configuration
        # used to exhaust the recursion depth before the sine substitution.
        mpmath.mp.dps = 30

        def reference(radius, t):
            def f(x):
                y = (radius - x) * (radius + x)
                if y <= 0:
                    return mpmath.mpf(0)
                return mpmath.npdf(x + t) * mpmath.gammainc(
                    mpmath.mpf(1) / 2, 0, y / 2, regularized=True
                )

            return float(mpmath.quad(f, [-radius, 0, radius]))

        for radius, t in ((2.0, 1.0), (1.0, 1.0), (2.0, 0.0)):
            assert oracle_ball(2, radius, t) == pytest.approx(reference(radius, t), abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            oracle_ball(0, 1.0, 0.0)
        with pytest.raises(DomainError):
            oracle_ball(2, 0.0, 0.0)
        with pytest.raises(DomainError):
            oracle_ball(2, math.inf, 0.0)
        with pytest.raises(DomainError):
            oracle_ball(2, 1.0, -1.0)
