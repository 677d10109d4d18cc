"""Scalar Gaussian kernels.

The whole package reduces to a handful of one-dimensional functions:
the standard normal density and distribution, the mass of a centered
slab after a shift, the shift ratio

    shift_ratio(t, a) = (Phi(t + a) - Phi(t - a)) / (Phi(a) - Phi(-a)),

and the regularized lower incomplete gamma function (for chi-square
CDFs).  Everything here is plain float -> float with documented
stability tricks; no arrays.

Stability notes
---------------
* Phi differences are always formed from erfc evaluated at the two
  endpoints, never as a difference of two values near 1.  For t >= a >= 0
  both erfc arguments are nonnegative, so the difference
  erfc((t-a)/sqrt2) - erfc((t+a)/sqrt2) keeps full relative precision
  down to masses ~1e-300.
* Below QUADRATURE_HALFWIDTH, where the erfc quotient loses ~3e-16/a to
  its shrinking denominator, shift_ratio is int_0^a (phi(t-s) + phi(t+s))
  ds / 2 int_0^a phi(s) ds by one 8-point Gauss-Legendre rule: no term
  cancels or overflows, it is within ~5e-16 of 80-digit mpmath for
  t <= 12, and it meets the erfc quotient, itself within ~1e-14 there,
  at the cutoff within ~1e-14.
* shift_ratio clamps its result into [e^{-t^2/2}, 1], the floor computed
  as `ratio_bounds_grid` computes its lower bound: at t ~ 1e-20 the erfc
  quotient rounds an ulp past either end.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .errors import DomainError, NumericError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Below this halfwidth shift_ratio integrates rather than forming the erfc quotient.
QUADRATURE_HALFWIDTH = 1e-2

# Iteration caps for the incomplete gamma series / continued fraction.
_GAMMA_MAX_ITER = 500
_GAMMA_EPS = 1e-16
_GAMMA_TINY = 1e-300


def std_normal_pdf(x: float) -> float:
    """Standard normal density phi(x); underflows smoothly to 0."""
    return math.exp(-0.5 * x * x) * _INV_SQRT_2PI


def std_normal_cdf(x: float) -> float:
    """Standard normal distribution Phi(x) via erfc, accurate in both tails."""
    return 0.5 * math.erfc(-x * _INV_SQRT2)


class SlabMass(NamedTuple):
    """Mass and t-derivative of a standard slab of halfwidth `a` shifted by t."""

    value: float
    derivative: float


def _check_halfwidth(a: float) -> None:
    if math.isnan(a) or a < 0.0:
        raise DomainError(f"halfwidth must be >= 0 (or inf), got {a!r}")


def slab_mass(a: float, t: float) -> SlabMass:
    """Gaussian mass g_a(t) = Phi(a + t) - Phi(-a + t) and its t-derivative.

    `a` may be +inf (mass 1, derivative 0).  `t` may be any real; the mass
    is even in t and the derivative phi(a + t) - phi(a - t) is odd.
    """
    _check_halfwidth(a)
    if math.isnan(t):
        raise DomainError("shift t must be a real number")
    if math.isinf(a):
        return SlabMass(1.0, 0.0)
    s = abs(t)
    # Both erfc arguments ordered so the larger-mass endpoint comes first:
    # g_a(t) = [erfc((s - a)/sqrt2) - erfc((s + a)/sqrt2)] / 2.
    value = 0.5 * (math.erfc((s - a) * _INV_SQRT2) - math.erfc((s + a) * _INV_SQRT2))
    derivative = std_normal_pdf(a + t) - std_normal_pdf(a - t)
    return SlabMass(value, derivative)


def slab_decay_slack(a: float, t: float) -> float:
    """g_a(t) + g_a'(t) / t, the slack of the slab log-derivative bound.

    Nonnegative for all t > 0 and decreasing in t (exactly the quantity
    whose sign makes the derivative floor work for slabs).  Requires
    finite a > 0 and t > 0.
    """
    _check_halfwidth(a)
    if not 0.0 < a < math.inf:
        raise DomainError(f"slab_decay_slack needs finite halfwidth > 0, got {a!r}")
    if not t > 0.0:
        raise DomainError(f"slab_decay_slack needs t > 0, got {t!r}")
    value, derivative = slab_mass(a, t)
    return value + derivative / t


@functools.cache
def _legendre_rule() -> tuple[tuple[float, float], ...]:
    """The 8-point Gauss-Legendre (node, weight) pairs, nodes mapped to [0, 1]."""
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(8)
    return tuple(zip((0.5 * nodes + 0.5).tolist(), weights.tolist()))


def shift_ratio(t: float, a: float) -> float:
    """Ratio of shifted to centered slab mass, r_t(a).

    r_t(a) = (Phi(t + a) - Phi(t - a)) / (Phi(a) - Phi(-a)) for finite
    a > 0, with the continuous endpoint values r_t(0) = e^{-t^2/2} and
    r_t(inf) = 1.  Defined for t >= 0 (DomainError otherwise); it is the
    sharp upper bound for the shifted/centered measure ratio of any
    symmetric convex set whose support halfwidth along the shift is `a`.

    Nondecreasing in `a` for fixed t, nonincreasing in t for fixed a,
    and always within [e^{-t^2/2}, 1].
    """
    _check_halfwidth(a)
    if math.isnan(t) or t < 0.0:
        raise DomainError(f"shift magnitude t must be >= 0, got {t!r}")
    if t == 0.0 or math.isinf(a):
        return 1.0
    if math.isinf(t):
        # Degenerate: all mass escapes unless a = inf (handled above).
        return 0.0
    floor = math.exp(-0.5 * t * t)
    if a == 0.0:
        return floor
    if a < QUADRATURE_HALFWIDTH:
        # Both integrals are over [0, a]: the rule's common factor a cancels.
        rule = [(a * x, w) for x, w in _legendre_rule()]
        num = sum(w * (std_normal_pdf(t - s) + std_normal_pdf(t + s)) for s, w in rule)
        ratio = num / (2.0 * sum(w * std_normal_pdf(s) for s, w in rule))
    else:
        num = 0.5 * (math.erfc((t - a) * _INV_SQRT2) - math.erfc((t + a) * _INV_SQRT2))
        ratio = num / math.erf(a * _INV_SQRT2)
    # At tiny t the quotient can round an ulp past either end.
    return min(max(ratio, floor), 1.0)


def regularized_gamma_p(shape: float, x: float) -> float:
    """Regularized lower incomplete gamma P(shape, x), shape > 0, x >= 0.

    Series expansion for x < shape + 1, Lentz continued fraction for the
    upper function otherwise; both iterate to relative tolerance 1e-16
    with a hard cap, and either route raises NumericError on hitting the
    cap (never silently returns a stale iterate).
    """
    if math.isnan(shape) or shape <= 0.0 or math.isinf(shape):
        raise DomainError(f"gamma shape must be finite and > 0, got {shape!r}")
    if math.isnan(x) or x < 0.0:
        raise DomainError(f"gamma argument must be >= 0, got {x!r}")
    if x == 0.0:
        return 0.0
    if math.isinf(x):
        return 1.0
    # Common prefactor x^shape e^{-x} / Gamma(shape), formed in log space.
    log_pref = shape * math.log(x) - x - math.lgamma(shape)
    pref = math.exp(log_pref)
    if x < shape + 1.0:
        # P(s, x) = pref * sum_{k>=0} x^k / (s (s+1) ... (s+k)).
        term = 1.0 / shape
        total = term
        denom = shape
        for _ in range(_GAMMA_MAX_ITER):
            denom += 1.0
            term *= x / denom
            total += term
            if abs(term) < abs(total) * _GAMMA_EPS:
                return min(1.0, pref * total)
        raise NumericError(
            f"incomplete gamma series failed to converge (shape={shape}, x={x})"
        )
    # Q(s, x) = pref * continued fraction (modified Lentz).
    b = x + 1.0 - shape
    c = 1.0 / _GAMMA_TINY
    d = 1.0 / b
    h = d
    for i in range(1, _GAMMA_MAX_ITER + 1):
        an = -i * (i - shape)
        b += 2.0
        d = an * d + b
        if abs(d) < _GAMMA_TINY:
            d = _GAMMA_TINY
        c = b + an / c
        if abs(c) < _GAMMA_TINY:
            c = _GAMMA_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_EPS:
            return max(0.0, 1.0 - pref * h)
    raise NumericError(
        f"incomplete gamma continued fraction failed to converge "
        f"(shape={shape}, x={x})"
    )
