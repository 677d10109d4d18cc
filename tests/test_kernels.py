"""Scalar kernel tests: frozen reference values, limits, and shape properties.

Reference literals were computed with a 40-digit erf/erfc/gammainc
implementation before the kernels were written, then rounded to double.
"""

import math

import mpmath
import numpy as np
import pytest
import scipy.special

from shiftbounds import (
    DomainError,
    NumericError,
    regularized_gamma_p,
    shift_ratio,
    slab_decay_slack,
    slab_mass,
)
from shiftbounds.kernels import QUADRATURE_HALFWIDTH, std_normal_cdf, std_normal_pdf


class TestStdNormal:
    def test_pdf_center_and_symmetry(self):
        assert std_normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-15)
        for x in (0.3, 1.7, 4.0):
            assert std_normal_pdf(x) == std_normal_pdf(-x)

    def test_cdf_values(self):
        assert std_normal_cdf(0.0) == 0.5
        assert std_normal_cdf(1.0) == pytest.approx(0.8413447460685429, rel=1e-14)
        # Deep tails keep full relative precision through erfc.
        assert std_normal_cdf(-10.0) == pytest.approx(7.61985302416053e-24, rel=1e-13)

    def test_cdf_complement(self):
        for x in np.linspace(-6, 6, 25):
            assert std_normal_cdf(x) + std_normal_cdf(-x) == pytest.approx(1.0, abs=1e-15)


class TestSlabMass:
    """g_a(t) = Phi(a + t) - Phi(-a + t) and its t-derivative."""

    def test_frozen_value(self):
        mass = slab_mass(1.0, 1.0)
        assert mass.value == pytest.approx(0.4772498680518208, rel=1e-14)
        assert mass.derivative == pytest.approx(-0.34495131388824463, rel=1e-14)

    def test_centered_value(self):
        # g_a(0) = 2 Phi(a) - 1.
        for a in (0.25, 1.0, 3.0):
            assert slab_mass(a, 0.0).value == pytest.approx(
                2.0 * std_normal_cdf(a) - 1.0, rel=1e-14
            )
            assert slab_mass(a, 0.0).derivative == 0.0

    def test_even_in_t(self):
        for a in (0.5, 2.0):
            for t in (0.3, 1.1, 4.5):
                assert slab_mass(a, t).value == slab_mass(a, -t).value
                assert slab_mass(a, t).derivative == -slab_mass(a, -t).derivative

    def test_infinite_halfwidth(self):
        assert slab_mass(math.inf, 3.0) == (1.0, 0.0)

    def test_deep_tail_keeps_relative_precision(self):
        # Mass near 1e-50: the erfc difference must not cancel.
        value = slab_mass(1.0, 16.0).value
        want = std_normal_cdf(-15.0) - std_normal_cdf(-17.0)
        assert value > 0.0
        assert value == pytest.approx(want, rel=1e-12)

    def test_derivative_matches_finite_difference(self):
        h = 1e-6
        for a in (0.5, 1.0, 2.5):
            for t in (0.2, 1.0, 3.0):
                fd = (slab_mass(a, t + h).value - slab_mass(a, t - h).value) / (2 * h)
                assert slab_mass(a, t).derivative == pytest.approx(fd, abs=1e-9)

    @pytest.mark.parametrize("a", [-0.5, math.nan])
    def test_bad_halfwidth(self, a):
        with pytest.raises(DomainError):
            slab_mass(a, 1.0)

    def test_nan_shift(self):
        with pytest.raises(DomainError):
            slab_mass(1.0, math.nan)


class TestSlabDecaySlack:
    """lambda_a(t) = g_a(t) + g_a'(t)/t: nonnegative and nonincreasing."""

    def test_frozen_value(self):
        assert slab_decay_slack(1.0, 1.0) == pytest.approx(0.13229855416357617, rel=1e-14)

    def test_nonnegative_and_nonincreasing(self):
        t_grid = np.linspace(0.025, 10.0, 400)
        for a in (0.25, 1.0, 4.0):
            values = [slab_decay_slack(a, float(t)) for t in t_grid]
            assert min(values) >= -1e-12
            assert max(np.diff(values)) <= 1e-12

    def test_small_t_limit(self):
        # lambda_a(0+) = g_a(0) + g_a''(0) stays finite and positive.
        assert slab_decay_slack(1.0, 1e-8) > 0.0

    @pytest.mark.parametrize("a,t", [(0.0, 1.0), (math.inf, 1.0), (1.0, 0.0), (1.0, -1.0)])
    def test_domain(self, a, t):
        with pytest.raises(DomainError):
            slab_decay_slack(a, t)


def _exact_ratio(t: float, a: float) -> float:
    """r_t(a) at 80 digits, rounded to double."""
    with mpmath.workdps(80):
        t, a = mpmath.mpf(t), mpmath.mpf(a)
        if a == 0:
            return float(mpmath.exp(-t * t / 2))
        return float((mpmath.ncdf(t + a) - mpmath.ncdf(t - a)) / (mpmath.ncdf(a) - mpmath.ncdf(-a)))


class TestShiftRatio:
    """r_t(a): frozen values, exact endpoints, monotonicity, chain bounds."""

    def test_frozen_values(self):
        assert shift_ratio(1.0, 1.0) == pytest.approx(0.6990731123718361, rel=1e-14)
        assert shift_ratio(2.0, 1.0) == pytest.approx(0.23042006316429375, rel=1e-14)
        assert shift_ratio(0.5, 1.0) == pytest.approx(0.9149917600895526, rel=1e-14)

    def test_exact_endpoints(self):
        assert shift_ratio(0.0, 0.7) == 1.0
        assert shift_ratio(0.0, 0.0) == 1.0
        assert shift_ratio(3.0, math.inf) == 1.0
        assert shift_ratio(math.inf, 2.0) == 0.0
        assert shift_ratio(1.0, 0.0) == math.exp(-0.5)

    def test_matches_slab_mass_ratio(self):
        for t in (0.5, 1.5, 3.0):
            for a in (0.3, 1.0, 2.0):
                want = slab_mass(a, t).value / slab_mass(a, 0.0).value
                assert shift_ratio(t, a) == pytest.approx(want, rel=1e-13)

    def test_small_halfwidth_branch_accuracy(self):
        # Both sides of the quadrature cutoff agree with mpmath, so the
        # step between them is a rounding error, and a = 0 is the floor.
        cut = QUADRATURE_HALFWIDTH
        below = math.nextafter(cut, 0.0)
        for t in (1e-6, 0.5, 1.0, 2.0, 3.0, 12.0):
            for a in (below, cut):
                assert shift_ratio(t, a) == pytest.approx(_exact_ratio(t, a), abs=1e-13)
            assert abs(shift_ratio(t, cut) - shift_ratio(t, below)) <= 1e-13
            assert shift_ratio(t, 0.0) == math.exp(-0.5 * t * t)

    def test_matches_mpmath_on_a_dense_grid_at_t_0_3(self):
        # With the cutoff at 1e-3, the erfc quotient read 9.1e-14 off here.
        grid = np.linspace(1e-3, 1.2e-3, 201)
        worst = max(abs(shift_ratio(0.3, float(a)) - _exact_ratio(0.3, float(a))) for a in grid)
        assert worst <= 1e-14

    @pytest.mark.parametrize("t", [1e-6, 1e-3, 0.3, 0.5, 1.0, 3.0, 6.0, 12.0])
    def test_matches_mpmath_at_small_halfwidths(self, t):
        # A cosh limit below a = 1e-7 and the erfc quotient above it read
        # up to 4.4e-10 off on this grid (t = 0.5, a = 1.33e-7).
        grid = [0.0, 1.26e-7, *np.logspace(-12, -2, 81)]
        worst = max(abs(shift_ratio(t, float(a)) - _exact_ratio(t, float(a))) for a in grid)
        assert worst <= 1e-13

    def test_nondecreasing_across_the_cutoff(self):
        grid = np.linspace(0.5 * QUADRATURE_HALFWIDTH, 1.5 * QUADRATURE_HALFWIDTH, 1001)
        for t in (1e-6, 0.5, 1.0, 3.0, 6.0, 12.0):
            values = [shift_ratio(t, float(a)) for a in grid]
            assert np.diff(values).min() >= -1e-13

    def test_huge_shift_at_small_halfwidths_stays_in_range(self):
        for t in (20.0, 1e3, 1e6):
            floor = math.exp(-0.5 * t * t)
            for a in np.logspace(-12, -2, 41):
                r = shift_ratio(t, float(a))
                assert math.isfinite(r) and floor <= r <= 1.0

    def test_nondecreasing_in_halfwidth(self):
        grid = [0.0, *np.logspace(-3, math.log10(50.0), 198), math.inf]
        for t in (0.5, 1.0, 2.0, 5.0, 10.0):
            values = [shift_ratio(t, float(a)) for a in grid]
            diffs = np.diff(values)
            assert diffs.min() >= -1e-12

    def test_chain_bounds(self):
        grid = [0.0, *np.logspace(-3, math.log10(50.0), 198), math.inf]
        for t in (0.5, 1.0, 2.0, 5.0, 10.0):
            floor = math.exp(-0.5 * t * t)
            for a in grid:
                r = shift_ratio(t, float(a))
                assert floor <= r <= 1.0

    def test_tiny_shift_stays_in_range(self):
        # The erfc quotient rounded to 1.0000000000000002 here.
        assert shift_ratio(1e-20, 1.0606601717798214) == 1.0
        for t in (1e-300, 1e-100, 1e-20, 1e-10, 1e-5):
            floor = math.exp(-0.5 * t * t)
            for a in np.logspace(-7, 2, 200):
                assert floor <= shift_ratio(t, float(a)) <= 1.0

    def test_nonincreasing_in_shift(self):
        for a in (0.25, 1.0, 4.0):
            values = [shift_ratio(float(t), a) for t in np.linspace(0.0, 8.0, 200)]
            assert max(np.diff(values)) <= 1e-12

    @pytest.mark.parametrize("t,a", [(-1.0, 1.0), (math.nan, 1.0), (1.0, -2.0), (1.0, math.nan)])
    def test_domain(self, t, a):
        with pytest.raises(DomainError):
            shift_ratio(t, a)


class TestRegularizedGammaP:
    """Lower regularized incomplete gamma, both the series and the fraction."""

    def test_frozen_values(self):
        assert regularized_gamma_p(0.5, 0.5) == pytest.approx(0.6826894921370859, rel=1e-14)
        assert regularized_gamma_p(1.0, 0.7) == pytest.approx(0.5034146962085905, rel=1e-14)
        assert regularized_gamma_p(2.5, 3.1) == pytest.approx(0.7127583165744389, rel=1e-14)
        assert regularized_gamma_p(4.0, 2.0) == pytest.approx(0.14287653950145295, rel=1e-14)
        # Continued-fraction branch, x > shape + 1.
        assert regularized_gamma_p(0.5, 8.0) == pytest.approx(0.9999366575163338, rel=1e-14)

    def test_exponential_identity(self):
        # shape = 1 is the exponential distribution.
        for x in (0.1, 0.7, 3.0, 9.0):
            assert regularized_gamma_p(1.0, x) == pytest.approx(
                1.0 - math.exp(-x), rel=1e-14
            )

    def test_erf_identity(self):
        # shape = 1/2 reduces to erf(sqrt(x)).
        for x in np.linspace(0.05, 12.0, 40):
            assert regularized_gamma_p(0.5, float(x)) == pytest.approx(
                math.erf(math.sqrt(float(x))), rel=1e-13
            )

    def test_against_scipy(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            shape = float(rng.uniform(0.1, 30.0))
            x = float(rng.uniform(0.0, 60.0))
            assert regularized_gamma_p(shape, x) == pytest.approx(
                float(scipy.special.gammainc(shape, x)), rel=1e-12, abs=1e-300
            )

    def test_endpoints_and_monotonicity(self):
        assert regularized_gamma_p(2.0, 0.0) == 0.0
        assert regularized_gamma_p(2.0, math.inf) == 1.0
        values = [regularized_gamma_p(3.0, float(x)) for x in np.linspace(0.0, 30.0, 100)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)

    @pytest.mark.filterwarnings("error")
    def test_underflowed_prefactor_gives_the_converged_limit(self):
        # x^s e^-x / Gamma(s) reads 0.0 here: the series would sum to 0 and
        # the fraction to 1, but the fraction never met its test once
        # b + 2 == b.
        assert regularized_gamma_p(1.5, 5e307) == 1.0
        assert regularized_gamma_p(1.0, 1.3529362544023878e17) == 1.0
        assert regularized_gamma_p(2.0**53, 1e300) == 1.0
        assert regularized_gamma_p(1e300, 1.0) == 0.0

    @pytest.mark.filterwarnings("error")
    def test_fraction_that_cannot_start_is_refused(self):
        # shape + 1 rounds to shape, so x + 1 - shape is 0.0: a typed
        # refusal, not a ZeroDivisionError.
        with pytest.raises(NumericError):
            regularized_gamma_p(2.0**53, 2.0**53)

    @pytest.mark.parametrize(
        "shape,x", [(0.0, 1.0), (-1.0, 1.0), (math.inf, 1.0), (math.nan, 1.0), (1.0, -0.5), (1.0, math.nan)]
    )
    def test_domain(self, shape, x):
        with pytest.raises(DomainError):
            regularized_gamma_p(shape, x)
