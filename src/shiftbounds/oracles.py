"""Independent reference values for cross-checking the bound machinery.

Two exactly solvable geometries anchor the Monte Carlo and analytic
paths:

* slabs: the shifted mass is a one-dimensional normal difference
  (closed form, shared with the kernels);
* Euclidean balls: the shifted mass reduces to a one-dimensional
  integral of phi(x + t) * ChiSquareCDF_{n-1}(R^2 - x^2) over [-R, R],
  evaluated here with adaptive Simpson quadrature after the
  substitution x = R sin(theta) (see :func:`oracle_ball`).  A batch of
  balls (:func:`oracle_balls`) shares one memo of its chi-square CDF
  values, since balls of one radius evaluate it at the same nodes.

The quadrature runs to one absolute tolerance (_ABS_TOL) and enforces a
minimum refinement depth (_MIN_DEPTH) so that sharply concentrated
integrands (far shifts, masses ~1e-20) cannot be accepted from a
deceptively flat coarse pass; it gives up past _MAX_DEPTH.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

from .errors import DomainError, NumericError
from .kernels import regularized_gamma_p, slab_mass, std_normal_pdf

_ABS_TOL = 1e-10
_MIN_DEPTH = 6
_MAX_DEPTH = 50


def oracle_slab(halfwidth: float, t: float) -> float:
    """Shifted-slab mass g_a(t), the closed-form anchor case."""
    return slab_mass(halfwidth, t).value


def chi_square_cdf(dof: int, x: float) -> float:
    """CDF of the chi-square distribution with `dof` >= 1 degrees of freedom."""
    if not isinstance(dof, int) or isinstance(dof, bool) or dof < 1:
        raise DomainError(f"degrees of freedom must be a positive integer, got {dof!r}")
    if math.isnan(x):
        raise DomainError("chi-square argument must not be NaN")
    if x <= 0.0:
        return 0.0
    return regularized_gamma_p(0.5 * dof, 0.5 * x)


def adaptive_simpson(fn: Callable[[float], float], lo: float, hi: float) -> float:
    """Adaptive Simpson integral of fn over [lo, hi] to absolute tolerance _ABS_TOL.

    Bisects until both the depth is at least _MIN_DEPTH and the local
    Richardson error estimate passes; raises NumericError if _MAX_DEPTH
    is hit before convergence.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(f"integration interval must be finite with lo < hi, got [{lo}, {hi}]")
    mid = 0.5 * (lo + hi)
    f_lo, f_mid, f_hi = fn(lo), fn(mid), fn(hi)
    whole = (hi - lo) / 6.0 * (f_lo + 4.0 * f_mid + f_hi)
    return _adapt(fn, lo, hi, f_lo, f_mid, f_hi, whole, _ABS_TOL, 0)


def _adapt(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    f_lo: float,
    f_mid: float,
    f_hi: float,
    whole: float,
    tol: float,
    depth: int,
) -> float:
    mid = 0.5 * (lo + hi)
    lq = 0.5 * (lo + mid)
    rq = 0.5 * (mid + hi)
    f_lq = fn(lq)
    f_rq = fn(rq)
    left = (mid - lo) / 6.0 * (f_lo + 4.0 * f_lq + f_mid)
    right = (hi - mid) / 6.0 * (f_mid + 4.0 * f_rq + f_hi)
    delta = left + right - whole
    if depth >= _MIN_DEPTH and abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth >= _MAX_DEPTH:
        raise NumericError(
            f"adaptive Simpson failed to converge on [{lo}, {hi}] "
            f"(residual {delta:.3e} at depth {depth})"
        )
    half_tol = 0.5 * tol
    return _adapt(fn, lo, mid, f_lo, f_lq, f_mid, left, half_tol, depth + 1) + _adapt(
        fn, mid, hi, f_mid, f_rq, f_hi, right, half_tol, depth + 1
    )


def oracle_ball(dim: int, radius: float, t: float, cdf: dict | None = None) -> float:
    """Gaussian mass of a shifted Euclidean ball, P(Z in t e + B_radius).

    Splits Z into the coordinate along the shift and the orthogonal
    chi-square radius: the mass is the integral over x in [-R, R] of
    phi(x + t) * ChiSquareCDF_{dim-1}(R^2 - x^2), integrated here as
    x = R sin(theta).  The substitution matters: for even dim the CDF
    factor behaves like sqrt(R^2 - x^2) at the endpoints and the raw
    Simpson recursion cannot reach 1e-10 there, while in theta the
    integrand is analytic (sqrt(R^2 cos^2) = R cos on the interval).
    For dim = 1 the ball is an interval and the closed slab form is
    used directly.

    `cdf`, if given, memoizes the CDF values, keyed on (dim - 1, x),
    across the calls that share it (:func:`oracle_balls`).
    """
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise DomainError(f"ball dimension must be a positive integer, got {dim!r}")
    if not (math.isfinite(radius) and radius > 0.0):
        raise DomainError(f"ball radius must be finite and > 0, got {radius!r}")
    if math.isnan(t) or t < 0.0:
        raise DomainError(f"shift magnitude t must be >= 0, got {t!r}")
    if dim == 1:
        return oracle_slab(radius, t)
    dof = dim - 1
    memo = {} if cdf is None else cdf

    def integrand(theta: float) -> float:
        across = radius * math.cos(theta)
        if across <= 0.0:
            return 0.0
        key = (dof, across * across)
        if key not in memo:
            memo[key] = chi_square_cdf(*key)
        return std_normal_pdf(radius * math.sin(theta) + t) * memo[key] * across

    # Clamped: at full mass the quadrature reads up to about 2e-13 past 1.
    return min(max(adaptive_simpson(integrand, -0.5 * math.pi, 0.5 * math.pi), 0.0), 1.0)


def oracle_balls(cases: Iterable[tuple[int, float, float]]) -> list[float]:
    """:func:`oracle_ball` of each (dim, radius, t), in order, on one CDF memo.

    Balls of one radius evaluate the chi-square CDF at the same nodes,
    whatever their shift, and a memo value is the value a fresh call
    returns, so every mass has the bits of its own call.  The memo lives
    for this call only.
    """
    cdf: dict[tuple[int, float], float] = {}
    return [oracle_ball(dim, radius, t, cdf) for dim, radius, t in cases]
