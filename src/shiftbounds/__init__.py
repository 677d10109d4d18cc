"""shiftbounds: sharp two-sided bounds for Gaussian measures of shifted
origin-symmetric convex sets (and positive mixtures of them), with Monte
Carlo and quadrature verification.

The core inequality: for X ~ N(0, Sigma), a symmetric convex body A, a
unit direction u and shift t >= 0,

    exp(-t^2 <u, Sigma^{-1} u>/2)
        <= P(X in t u + A) / P(X in A)
        <= shift_ratio(t ||Sigma^{-1/2} u||, a) <= 1,

with the shift exponent a = delta*(Sigma^{-1} u | A)/||Sigma^{-1/2} u||;
the slab with halfwidth a attains the upper bound exactly.
"""

from .bodies import (
    ConvexBody,
    Ellipsoid,
    HPolytope,
    Intersection,
    LinearImage,
    LpBall,
    Slab,
    SupportValue,
    body_from_dict,
    transform,
)
from .bounds import (
    BoundReport,
    Layer,
    LayeredUnimodal,
    PowerReport,
    as_layered,
    build_layered,
    conditional_coordinate_ceiling,
    derivative_floor,
    extremal_slab,
    power_envelope,
    ratio_bounds_grid,
    ratio_bounds_layered,
    ratio_bounds_set,
    shift_exponent,
)
from .errors import (
    ConfigError,
    DefinitenessError,
    DomainError,
    InsufficientHitsError,
    InsufficientMassError,
    NumericError,
    ShapeError,
    ShiftBoundsError,
)
from .kernels import (
    SlabMass,
    regularized_gamma_p,
    shift_ratio,
    slab_decay_slack,
    slab_mass,
    std_normal_cdf,
    std_normal_pdf,
)
from .linalg import (
    Covariance,
    Direction,
    build_covariance,
    identity_covariance,
    mahalanobis_norm,
)
from .mc import (
    CHUNK_SIZE,
    DerivativeCheck,
    McEstimate,
    PowerVerdict,
    SandwichVerdict,
    estimate_conditional_center,
    estimate_layered_expectation,
    estimate_power,
    estimate_power_grid,
    estimate_shift_prob,
    verify_derivative_identity,
    verify_power_envelope,
    verify_sandwich,
)
from .oracles import adaptive_simpson, chi_square_cdf, oracle_ball, oracle_balls, oracle_slab
from .suites import SUITES, CheckResult

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CHUNK_SIZE",
    "CheckResult",
    "ConfigError",
    "ConvexBody",
    "Covariance",
    "DefinitenessError",
    "DerivativeCheck",
    "Direction",
    "DomainError",
    "Ellipsoid",
    "HPolytope",
    "InsufficientHitsError",
    "InsufficientMassError",
    "Intersection",
    "Layer",
    "LayeredUnimodal",
    "LinearImage",
    "LpBall",
    "McEstimate",
    "NumericError",
    "PowerReport",
    "PowerVerdict",
    "SUITES",
    "SandwichVerdict",
    "ShapeError",
    "ShiftBoundsError",
    "Slab",
    "SlabMass",
    "SupportValue",
    "adaptive_simpson",
    "as_layered",
    "body_from_dict",
    "build_covariance",
    "build_layered",
    "chi_square_cdf",
    "conditional_coordinate_ceiling",
    "derivative_floor",
    "estimate_conditional_center",
    "estimate_layered_expectation",
    "estimate_power",
    "estimate_power_grid",
    "estimate_shift_prob",
    "extremal_slab",
    "identity_covariance",
    "mahalanobis_norm",
    "oracle_ball",
    "oracle_balls",
    "oracle_slab",
    "power_envelope",
    "ratio_bounds_grid",
    "ratio_bounds_layered",
    "ratio_bounds_set",
    "regularized_gamma_p",
    "shift_exponent",
    "shift_ratio",
    "slab_decay_slack",
    "slab_mass",
    "std_normal_cdf",
    "std_normal_pdf",
    "transform",
    "verify_derivative_identity",
    "verify_power_envelope",
    "verify_sandwich",
]
