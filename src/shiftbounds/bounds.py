"""Two-sided bounds for Gaussian measures of shifted symmetric convex sets.

For a centered Gaussian with covariance Sigma, an origin-symmetric
convex body A, a unit direction u, and a shift magnitude t >= 0, the
ratio

    rho(t) = P(X in t u + A) / P(X in A)

is sandwiched:

    exp(-t^2 <u, Sigma^{-1} u> / 2)  <=  rho(t)  <=  shift_ratio(t m, a)  <=  1

with m = ||Sigma^{-1/2} u|| and the shift exponent

    a = delta*(Sigma^{-1} u | A) / m,

where delta* is the support function of A.  The sandwich is linear in
the weight, so it also holds for any layered weight (a positive
combination of indicators of symmetric convex sets, nested or not) with
`a` the largest exponent over its layers.  The slab {x : |<x, u>| <= a}
attains the upper bound exactly, so no smaller exponent can work:
:func:`extremal_slab` builds that worst case for any covariance.

Everything in this module is closed-form (no sampling); the Monte Carlo
counterparts live in :mod:`shiftbounds.mc`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bodies import ConvexBody, LinearImage, Slab
from .errors import DomainError, NumericError, ShapeError
from .kernels import shift_ratio
from .linalg import Covariance, Direction, mahalanobis_norm

# Slack allowed before declaring the analytic chain lower <= upper <= 1
# broken; violations beyond this indicate a bug, not roundoff.
CHAIN_SLACK = 1e-12


@dataclass(frozen=True)
class BoundReport:
    """The sandwich at one shift magnitude.

    `lower` = exp(-(t * mahalanobis)^2 / 2), `upper` = shift_ratio of the
    exponent; `exponent_exact` is False when the exponent came from an
    upper-bounded support value (intersections), in which case `upper`
    is still a valid bound, just not the sharp one.
    """

    t: float
    mahalanobis: float
    exponent_a: float
    exponent_exact: bool
    lower: float
    upper: float


@dataclass(frozen=True)
class PowerReport:
    """Envelope for the power function of the test that accepts inside A."""

    theta: float
    alpha: float
    beta_lower: float
    beta_upper: float
    exponent_a: float
    exponent_exact: bool


@dataclass(frozen=True)
class Layer:
    """One layer of a layered unimodal weight: weight * indicator(body)."""

    weight: float
    body: ConvexBody

    def __post_init__(self) -> None:
        w = float(self.weight)
        if not (math.isfinite(w) and w > 0.0):
            raise DomainError(f"layer weight must be finite and > 0, got {w!r}")
        object.__setattr__(self, "weight", w)


@dataclass(frozen=True)
class LayeredUnimodal:
    """w(x) = sum_k weight_k * indicator(body_k): any positive mixture.

    Nested layers make w unimodal, but the bounds do not need nesting:
    they are linear in w and the shift exponent is the largest over the
    layers.  The constructor checks only that the layers agree on
    dimension.
    """

    layers: tuple[Layer, ...]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ShapeError("layered weight needs at least one layer")
        dims = {layer.body.dim for layer in self.layers}
        if len(dims) != 1:
            raise ShapeError(f"layer bodies disagree on dimension: {sorted(dims)}")
        object.__setattr__(self, "layers", tuple(self.layers))

    @property
    def dim(self) -> int:
        return self.layers[0].body.dim

    def evaluate_batch(self, pts: np.ndarray) -> np.ndarray:
        p = np.asarray(pts, dtype=float)
        return self.weigh([layer.body.contains_batch(p) for layer in self.layers])

    def weigh(self, inside: Sequence[np.ndarray]) -> np.ndarray:
        """Rows of w from their memberships: inside[k] is the mask of layer k."""
        out = np.zeros(len(inside[0]))
        for layer, mask in zip(self.layers, inside):
            out += layer.weight * mask
        return out


def as_layered(target: ConvexBody | LayeredUnimodal) -> LayeredUnimodal:
    """View a plain body as the unit-weight single-layer weight function."""
    if isinstance(target, LayeredUnimodal):
        return target
    return LayeredUnimodal(layers=(Layer(1.0, target),))


def build_layered(layers: list[Layer] | tuple[Layer, ...]) -> LayeredUnimodal:
    """The layered weight of any positive mixture of symmetric convex bodies."""
    return LayeredUnimodal(layers=tuple(layers))


def shift_exponent(
    cov: Covariance, target: ConvexBody | LayeredUnimodal, u: Direction
) -> tuple[float, bool]:
    """The exponent a = delta*(Sigma^{-1} u | A) / ||Sigma^{-1/2} u||.

    For a layered weight it is the largest exponent over the layers: the
    weight's ratio is an average of its layers' ratios, each within its
    own bounds, and the upper bound is nondecreasing in `a`.

    Returns (value, exact); value may be +inf (body unbounded along the
    relevant direction), in which case the upper bound degenerates to 1.
    The flag is False when the largest support value was itself only an
    upper bound; the resulting shift_ratio is then an upper bound too.
    Any other layer's true support is at most its computed value, so an
    exact largest value is the true largest support even when it ties an
    upper bound.  It is the exponent of :func:`ratio_bounds_grid`'s report.
    """
    (report,) = ratio_bounds_grid(cov, target, u, (0.0,))
    return report.exponent_a, report.exponent_exact


def ratio_bounds_grid(
    cov: Covariance,
    target: ConvexBody | LayeredUnimodal,
    u: Direction,
    ts: Sequence[float],
) -> list[BoundReport]:
    """The sandwich at every shift magnitude of a grid, one report per t.

    `target` is a body (its indicator weight) or a layered weight (the
    largest exponent over its layers, see :func:`shift_exponent`).
    Neither the exponent nor the Mahalanobis norm depends on t, so each
    support and the norm are evaluated once for the whole grid.  The grid
    may be in any order and may repeat values.
    """
    if len(ts) == 0:
        raise DomainError("bound grid needs at least one t")
    for t in ts:
        if math.isnan(t) or t < 0.0:
            raise DomainError(f"shift magnitude t must be >= 0, got {t!r}")
    weight = as_layered(target)
    if weight.dim != cov.dim or u.dim != cov.dim:
        raise ShapeError(
            f"dimension mismatch: cov {cov.dim}, body {weight.dim}, u {u.dim}"
        )
    m = mahalanobis_norm(cov, u)
    v = cov.solve(u.entries)
    supports = [layer.body.support(v) for layer in weight.layers]
    for sv in supports:
        if sv.value < 0.0:
            raise NumericError(f"support function returned a negative value {sv.value!r}")
    value, exact = max((sv.value, sv.exact) for sv in supports)
    a = value / m
    reports = []
    for t in ts:
        t_eff = t * m
        lower = math.exp(-0.5 * t_eff * t_eff)
        upper = shift_ratio(t_eff, a)
        if upper < lower - CHAIN_SLACK or upper > 1.0 + CHAIN_SLACK:
            raise NumericError(
                f"bound chain violated: lower {lower!r}, upper {upper!r} (t={t}, a={a})"
            )
        reports.append(BoundReport(float(t), m, a, exact, lower, upper))
    return reports


def ratio_bounds_set(
    cov: Covariance, body: ConvexBody, u: Direction, t: float
) -> BoundReport:
    """The sandwich for the indicator weight of a symmetric convex body."""
    (report,) = ratio_bounds_grid(cov, body, u, (t,))
    return report


def ratio_bounds_layered(
    cov: Covariance, weight: LayeredUnimodal, u: Direction, t: float
) -> BoundReport:
    """The sandwich for a layered weight (the largest exponent over its layers)."""
    (report,) = ratio_bounds_grid(cov, weight, u, (t,))
    return report


def derivative_floor(cov: Covariance, u: Direction, t: float, current: float) -> float:
    """Lower bound -t <u, Sigma^{-1} u> * current for d/dt E w(X - t u).

    `current` is the expectation E w(X - t u) itself (finite, >= 0).  The
    floor says the expectation can decay at most like a Gaussian with
    the direction's Mahalanobis rate; combined with w >= 0 it integrates
    back into the sandwich lower bound.
    """
    if u.dim != cov.dim:
        raise ShapeError(f"direction dim {u.dim} != covariance dim {cov.dim}")
    if not math.isfinite(t) or t < 0.0:
        raise DomainError(f"shift magnitude t must be finite and >= 0, got {t!r}")
    if not math.isfinite(current) or current < 0.0:
        raise DomainError(f"current expectation must be finite and >= 0, got {current!r}")
    return -t * cov.quad_form_inv(u.entries) * current


def conditional_coordinate_ceiling(t: float) -> float:
    """Upper bound for E(<u, Z> | Z in t u + A): the shift magnitude itself.

    Holds for every origin-symmetric convex A with positive mass under
    the standard Gaussian; conditioning on the shifted body cannot move
    the mean coordinate past the shift.
    """
    if math.isnan(t) or t < 0.0:
        raise DomainError(f"shift magnitude t must be >= 0, got {t!r}")
    return t


def power_envelope(report: BoundReport, alpha: float) -> PowerReport:
    """Two-sided envelope for the power of the acceptance-region test.

    The test accepts when the observation lies in the body of `report`;
    alpha is its size (the probability of rejecting at shift 0).  At the
    report's shift theta u the power beta satisfies

        1 - shift_ratio(theta m, a) (1 - alpha)
            <= beta <=
        1 - exp(-(theta m)^2 / 2) (1 - alpha),

    and beta >= alpha (the test is unbiased along the shift family).
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    beta_lower, beta_upper = power_bounds(report, alpha)
    if beta_lower < alpha - CHAIN_SLACK or beta_upper < beta_lower - CHAIN_SLACK:
        raise NumericError(
            f"power envelope chain violated: alpha {alpha!r}, "
            f"beta_lower {beta_lower!r}, beta_upper {beta_upper!r}"
        )
    return PowerReport(
        theta=report.t,
        alpha=float(alpha),
        beta_lower=beta_lower,
        beta_upper=beta_upper,
        exponent_a=report.exponent_a,
        exponent_exact=report.exponent_exact,
    )


def power_bounds(report: BoundReport, alpha: float) -> tuple[float, float]:
    """(beta_lower, beta_upper) = 1 - (upper, lower) (1 - alpha), unchecked.

    Unlike :func:`power_envelope`, it takes an estimated size of exactly 0 or 1.
    """
    return 1.0 - report.upper * (1.0 - alpha), 1.0 - report.lower * (1.0 - alpha)


def extremal_slab(cov: Covariance, u: Direction, halfwidth: float) -> ConvexBody:
    """The body attaining the upper bound: a slab of the given exponent.

    In whitened coordinates it is {z : |<z, w>| <= halfwidth} with
    w = Sigma^{-1/2} u normalized; mapped back through Sigma^{1/2} its
    shift exponent is exactly `halfwidth` and the measure ratio equals
    shift_ratio(t m, halfwidth) for every t.  For the identity
    covariance this is the plain slab with normal u.
    """
    if u.dim != cov.dim:
        raise ShapeError(f"direction dim {u.dim} != covariance dim {cov.dim}")
    if not (math.isfinite(halfwidth) and halfwidth > 0.0):
        raise DomainError(f"slab halfwidth must be finite and > 0, got {halfwidth!r}")
    whitened_normal = Direction.from_vector(cov.inv_sqrt @ u.entries)
    slab = Slab(normal=whitened_normal, halfwidth=float(halfwidth))
    if cov.is_identity():
        return slab
    return LinearImage(base=slab, matrix=cov.sqrt)
