"""Monte Carlo verification engine.

Sampling is counter-based: chunk i of the stream (seed, substream) uses
an independent Philox generator keyed by [seed, substream * 2^48 + i],
so each chunk depends only on its coordinates.  Uniforms are
(53-bit integer + 0.5) * 2^-53, mapped through the inverse normal CDF;
correlated Gaussians are L z for the covariance's Cholesky factor L.

Every estimator reduces a vector of per-chunk sums (sum, sum of
squares, hits, ...) in fixed chunk order; mean = S1/N and stderr =
sqrt((S2/N - mean^2)/N), the plug-in (ddof=0) form, which for
indicator weights is exactly the binomial stderr.

Verdicts score bound violations in numerator units:

    z = (signed slack) / sqrt(se_num^2 + (bound * se_den)^2)

so a *negative* z means the estimate crossed the bound by |z| combined
standard errors.  Numerator and denominator always come from
independent substreams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
from scipy.special import ndtri

from .bodies import ConvexBody
from .bounds import (
    BoundReport,
    LayeredUnimodal,
    as_layered,
    ratio_bounds_layered,
    ratio_bounds_set,
)
from .errors import (
    DomainError,
    InsufficientHitsError,
    InsufficientMassError,
    ShapeError,
)
from .linalg import Covariance, Direction

CHUNK_SIZE = 65536

# Substream roles: numerators/single estimates draw from MAIN, ratio
# denominators from DENOM; anything a caller passes explicitly wins.
SUBSTREAM_MAIN = 0
SUBSTREAM_DENOM = 1

MIN_CONDITIONAL_HITS = 100
MIN_DENOMINATOR_HITS = 10

_SUBSTREAM_SHIFT = 48
_MAX_CHUNKS = 1 << _SUBSTREAM_SHIFT


@dataclass(frozen=True)
class SeedRecord:
    """Provenance of one estimate: stream coordinates and chunking."""

    seed: int
    substream: int
    chunk_size: int


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo mean with its plug-in standard error.

    `hits` counts samples with a strictly positive integrand (body
    membership or conditioning-event hits, depending on the estimator).
    """

    value: float
    stderr: float
    samples: int
    hits: int
    seed: SeedRecord


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_stream(seed: int, substream: int, count: int) -> None:
    if not _is_int(seed) or not 0 <= seed < (1 << 64):
        raise DomainError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    if not _is_int(substream) or not 0 <= substream < (1 << 15):
        raise DomainError(f"substream must be a small nonnegative integer, got {substream!r}")
    if not _is_int(count) or count < 1:
        raise DomainError(f"sample count must be a positive integer, got {count!r}")
    if (count + CHUNK_SIZE - 1) // CHUNK_SIZE > _MAX_CHUNKS:
        raise DomainError(f"sample count {count} exceeds the stream capacity")


def _chunk_rng(seed: int, substream: int, index: int) -> np.random.Generator:
    key = np.array(
        [seed, (substream << _SUBSTREAM_SHIFT) + index], dtype=np.uint64
    )
    return np.random.Generator(np.random.Philox(key=key))


def standard_normal_chunks(
    dim: int, count: int, seed: int, substream: int = SUBSTREAM_MAIN
) -> Iterator[np.ndarray]:
    """Yield standard normal chunks of shape (<=CHUNK_SIZE, dim), in order."""
    _check_stream(seed, substream, count)
    produced = 0
    index = 0
    while produced < count:
        rows = min(CHUNK_SIZE, count - produced)
        yield _normal_chunk(seed, substream, index, rows, dim)
        produced += rows
        index += 1


def _normal_chunk(
    seed: int, substream: int, index: int, rows: int, dim: int
) -> np.ndarray:
    rng = _chunk_rng(seed, substream, index)
    bits = rng.integers(0, 1 << 53, size=(rows, dim), dtype=np.uint64)
    uniforms = (bits.astype(np.float64) + 0.5) * 2.0**-53
    return ndtri(uniforms)


def sample_gaussian(
    cov: Covariance, count: int, seed: int, substream: int = SUBSTREAM_MAIN
) -> Iterator[np.ndarray]:
    """Yield chunks of N(0, Sigma) samples (rows) from the given stream."""
    chol_t = np.asarray(cov.chol).T
    for z in standard_normal_chunks(cov.dim, count, seed, substream):
        yield z @ chol_t


def _accumulate(
    count: int,
    seed: int,
    substream: int,
    dim: int,
    chunk_sums: Callable[[np.ndarray], np.ndarray],
) -> list[float]:
    """Sum the vectors chunk_sums(normal_chunk) over the stream, in chunk order.

    Hit counts travel as floats; they stay exact below 2^53 samples.
    """
    total = 0.0
    for z in standard_normal_chunks(dim, count, seed, substream):
        total = total + chunk_sums(z)
    return [float(s) for s in total]


def _plug_in(s1: float, s2: float, n: int) -> tuple[float, float]:
    """Plug-in (ddof=0) mean and stderr from a sum and sum of squares over n."""
    mean = s1 / n
    return mean, math.sqrt(max(s2 / n - mean * mean, 0.0) / n)


def _mean_estimate(
    count: int, seed: int, substream: int, dim: int, chunk_sums
) -> McEstimate:
    s1, s2, hits = _accumulate(count, seed, substream, dim, chunk_sums)
    value, stderr = _plug_in(s1, s2, count)
    return McEstimate(
        value=value,
        stderr=stderr,
        samples=count,
        hits=int(hits),
        seed=SeedRecord(seed=seed, substream=substream, chunk_size=CHUNK_SIZE),
    )


def _check_geometry(cov: Covariance, dim: int, u: Direction, t: float) -> None:
    if dim != cov.dim or u.dim != cov.dim:
        raise ShapeError(
            f"dimension mismatch: cov {cov.dim}, body {dim}, u {u.dim}"
        )
    if math.isnan(t) or t < 0.0:
        raise DomainError(f"shift magnitude t must be >= 0, got {t!r}")


def estimate_shift_prob(
    cov: Covariance,
    body: ConvexBody,
    u: Direction,
    t: float,
    count: int,
    seed: int,
    substream: int = SUBSTREAM_MAIN,
) -> McEstimate:
    """Estimate P(X in t u + A) for X ~ N(0, Sigma)."""
    _check_geometry(cov, body.dim, u, t)
    shift = t * u.entries
    chol_t = np.asarray(cov.chol).T

    def stats(z: np.ndarray) -> np.ndarray:
        hits = float(np.count_nonzero(body.contains_batch(z @ chol_t - shift)))
        # Indicator integrand: sum of squares equals the sum.
        return np.array([hits, hits, hits])

    return _mean_estimate(count, seed, substream, cov.dim, stats)


def estimate_layered_expectation(
    cov: Covariance,
    weight: LayeredUnimodal,
    u: Direction,
    t: float,
    count: int,
    seed: int,
    substream: int = SUBSTREAM_MAIN,
) -> McEstimate:
    """Estimate E w(X - t u) for a layered unimodal weight."""
    _check_geometry(cov, weight.dim, u, t)
    shift = t * u.entries
    chol_t = np.asarray(cov.chol).T

    def stats(z: np.ndarray) -> np.ndarray:
        values = weight.evaluate_batch(z @ chol_t - shift)
        return np.array(
            [values.sum(), values @ values, np.count_nonzero(values > 0.0)],
            dtype=float,
        )

    return _mean_estimate(count, seed, substream, cov.dim, stats)


def estimate_power(
    cov: Covariance,
    body: ConvexBody,
    u: Direction,
    theta: float,
    count: int,
    seed: int,
    substream: int = SUBSTREAM_MAIN,
) -> McEstimate:
    """Estimate the rejection probability P(X + theta u not in A).

    This is the power of the accept-inside-A test at mean shift
    theta u; theta = 0 gives the size of the test.
    """
    _check_geometry(cov, body.dim, u, theta)
    shift = theta * u.entries
    chol_t = np.asarray(cov.chol).T

    def stats(z: np.ndarray) -> np.ndarray:
        hits = float(np.count_nonzero(~body.contains_batch(z @ chol_t + shift)))
        return np.array([hits, hits, hits])

    return _mean_estimate(count, seed, substream, cov.dim, stats)


def estimate_conditional_center(
    body: ConvexBody,
    u: Direction,
    t: float,
    count: int,
    seed: int,
    substream: int = SUBSTREAM_MAIN,
) -> McEstimate:
    """Estimate E(<u, Z> | Z in t u + A) for standard Gaussian Z.

    Raises InsufficientHitsError below MIN_CONDITIONAL_HITS conditioning
    hits; the stderr is the within-hits plug-in form.
    """
    if body.dim != u.dim:
        raise ShapeError(f"dimension mismatch: body {body.dim}, u {u.dim}")
    if math.isnan(t) or t < 0.0:
        raise DomainError(f"shift magnitude t must be >= 0, got {t!r}")
    shift = t * u.entries

    def stats(z: np.ndarray) -> np.ndarray:
        mask = body.contains_batch(z - shift)
        coords = (z @ u.entries)[mask]
        return np.array([coords.sum(), coords @ coords, mask.sum()], dtype=float)

    s1, s2, hits = _accumulate(count, seed, substream, u.dim, stats)
    hits = int(hits)
    if hits < MIN_CONDITIONAL_HITS:
        raise InsufficientHitsError(
            f"conditional estimate starved: {hits} hits < {MIN_CONDITIONAL_HITS} "
            f"(body mass too small at t={t}; raise the sample count)"
        )
    value, stderr = _plug_in(s1, s2, hits)
    return McEstimate(
        value=value,
        stderr=stderr,
        samples=count,
        hits=hits,
        seed=SeedRecord(seed=seed, substream=substream, chunk_size=CHUNK_SIZE),
    )


@dataclass(frozen=True)
class SandwichVerdict:
    """Monte Carlo test of the two-sided bound at one shift.

    `lower_z` / `upper_z` are the signed slacks of the two inequalities
    in combined-stderr units (negative = violated by that many sigmas);
    the verdict passes when both exceed -z_threshold.
    """

    bounds: BoundReport
    ratio: float
    ratio_stderr: float
    lower_z: float
    upper_z: float
    z_threshold: float
    passed: bool
    numerator: McEstimate
    denominator: McEstimate
    upper_scale: float


def _slack_z(slack: float, sigma: float) -> float:
    if sigma == 0.0:
        if slack == 0.0:
            return 0.0
        return math.copysign(math.inf, slack)
    return slack / sigma


def verify_sandwich(
    cov: Covariance,
    target: ConvexBody | LayeredUnimodal,
    u: Direction,
    t: float,
    count: int,
    seed: int,
    z_threshold: float = 4.0,
    upper_scale: float = 1.0,
) -> SandwichVerdict:
    """Estimate the shifted/centered ratio and test it against the sandwich.

    Numerator (shift t) and denominator (shift 0) use independent
    substreams.  `upper_scale` is a fault-injection hook for the
    verification suite (scales the upper bound only in the test, never
    in the report); leave it at 1.0 for real checks.
    """
    if isinstance(target, LayeredUnimodal):
        report = ratio_bounds_layered(cov, target, u, t)
        weight = target
        num = estimate_layered_expectation(
            cov, weight, u, t, count, seed, SUBSTREAM_MAIN
        )
        den = estimate_layered_expectation(
            cov, weight, u, 0.0, count, seed, SUBSTREAM_DENOM
        )
    else:
        report = ratio_bounds_set(cov, target, u, t)
        num = estimate_shift_prob(cov, target, u, t, count, seed, SUBSTREAM_MAIN)
        den = estimate_shift_prob(cov, target, u, 0.0, count, seed, SUBSTREAM_DENOM)
    if den.hits < MIN_DENOMINATOR_HITS:
        raise InsufficientMassError(
            f"denominator starved: {den.hits} hits < {MIN_DENOMINATOR_HITS} "
            "(the body carries too little mass for a meaningful ratio)"
        )
    upper = report.upper * upper_scale
    lower_slack = num.value - report.lower * den.value
    lower_sigma = math.hypot(num.stderr, report.lower * den.stderr)
    upper_slack = upper * den.value - num.value
    upper_sigma = math.hypot(num.stderr, upper * den.stderr)
    lower_z = _slack_z(lower_slack, lower_sigma)
    upper_z = _slack_z(upper_slack, upper_sigma)
    ratio = num.value / den.value
    ratio_stderr = math.hypot(
        num.stderr / den.value, num.value * den.stderr / (den.value * den.value)
    )
    return SandwichVerdict(
        bounds=report,
        ratio=ratio,
        ratio_stderr=ratio_stderr,
        lower_z=lower_z,
        upper_z=upper_z,
        z_threshold=z_threshold,
        passed=bool(lower_z >= -z_threshold and upper_z >= -z_threshold),
        numerator=num,
        denominator=den,
        upper_scale=upper_scale,
    )


@dataclass(frozen=True)
class DerivativeCheck:
    """Finite-difference vs direct estimate of d/dt E w(Z - t u).

    The two estimators share one sample stream (common random numbers),
    so their difference has far smaller variance than either alone;
    `sigma_diff` is the stderr of that paired difference.  `floor_value`
    is -t <u, u> Ehat(t), the analytic decay floor at the estimated
    expectation.
    """

    t: float
    step: float
    fd_estimate: float
    fd_stderr: float
    direct_estimate: float
    direct_stderr: float
    expectation: float
    difference: float
    sigma_diff: float
    tolerance: float
    floor_value: float
    identity_ok: bool
    floor_ok: bool

    @property
    def passed(self) -> bool:
        return self.identity_ok and self.floor_ok


def verify_derivative_identity(
    weight: LayeredUnimodal | ConvexBody,
    u: Direction,
    t: float,
    count: int,
    seed: int,
    step: float = 1e-2,
    allowance: float = 1e-3,
    substream: int = SUBSTREAM_MAIN,
) -> DerivativeCheck:
    """Check d/dt E w(Z - t u) = -E <u, Z> w(Z - t u) for standard Z.

    Central difference with the given step vs the direct estimator, on
    common random numbers; `tolerance` = 4 * sigma_diff + allowance,
    where the allowance absorbs the O(step^2) discretization bias.
    Also checks both estimates against the analytic decay floor.
    """
    w = as_layered(weight)
    if w.dim != u.dim:
        raise ShapeError(f"dimension mismatch: weight {w.dim}, u {u.dim}")
    if math.isnan(t) or t <= 0.0:
        raise DomainError(f"derivative check needs t > 0, got {t!r}")
    if not 0.0 < step < t:
        raise DomainError(f"step must lie in (0, t), got {step!r}")
    ue = u.entries
    up_shift = (t + step) * ue
    down_shift = (t - step) * ue
    mid_shift = t * ue
    inv_2h = 0.5 / step

    def stats(z: np.ndarray) -> np.ndarray:
        coords = z @ ue
        fd = (w.evaluate_batch(z - up_shift) - w.evaluate_batch(z - down_shift)) * inv_2h
        mid = w.evaluate_batch(z - mid_shift)
        direct = -coords * mid
        diff = fd - direct
        return np.array(
            [
                fd.sum(),
                fd @ fd,
                direct.sum(),
                direct @ direct,
                diff.sum(),
                diff @ diff,
                mid.sum(),
            ]
        )

    fd_s1, fd_s2, dir_s1, dir_s2, diff_s1, diff_s2, mid_s1 = _accumulate(
        count, seed, substream, w.dim, stats
    )
    fd_mean, fd_se = _plug_in(fd_s1, fd_s2, count)
    dir_mean, dir_se = _plug_in(dir_s1, dir_s2, count)
    diff_mean, diff_se = _plug_in(diff_s1, diff_s2, count)
    expectation = mid_s1 / count
    tolerance = 4.0 * diff_se + allowance
    floor_value = -t * float(ue @ ue) * expectation
    identity_ok = abs(diff_mean) <= tolerance
    floor_ok = (fd_mean >= floor_value - 4.0 * fd_se) and (
        dir_mean >= floor_value - 4.0 * dir_se
    )
    return DerivativeCheck(
        t=float(t),
        step=float(step),
        fd_estimate=fd_mean,
        fd_stderr=fd_se,
        direct_estimate=dir_mean,
        direct_stderr=dir_se,
        expectation=expectation,
        difference=diff_mean,
        sigma_diff=diff_se,
        tolerance=tolerance,
        floor_value=floor_value,
        identity_ok=identity_ok,
        floor_ok=floor_ok,
    )


@dataclass(frozen=True)
class PowerVerdict:
    """Monte Carlo test of the power envelope at one shift."""

    theta: float
    alpha_estimate: McEstimate
    beta_estimate: McEstimate
    beta_lower: float
    beta_upper: float
    lower_z: float
    upper_z: float
    z_threshold: float
    passed: bool


def verify_power_envelope(
    cov: Covariance,
    body: ConvexBody,
    u: Direction,
    theta: float,
    count: int,
    seed: int,
    z_threshold: float = 4.0,
) -> PowerVerdict:
    """Estimate size and power on independent substreams and test the envelope.

    The envelope is evaluated at the *estimated* size alpha-hat, so both
    inequalities carry combined stderr from the two estimates.
    """
    if math.isnan(theta) or theta <= 0.0:
        raise DomainError(f"power check needs theta > 0, got {theta!r}")
    report = ratio_bounds_set(cov, body, u, theta)
    beta = estimate_power(cov, body, u, theta, count, seed, SUBSTREAM_MAIN)
    alpha = estimate_power(cov, body, u, 0.0, count, seed, SUBSTREAM_DENOM)
    beta_lower = 1.0 - report.upper * (1.0 - alpha.value)
    beta_upper = 1.0 - report.lower * (1.0 - alpha.value)
    lower_slack = beta.value - beta_lower
    lower_sigma = math.hypot(beta.stderr, report.upper * alpha.stderr)
    upper_slack = beta_upper - beta.value
    upper_sigma = math.hypot(beta.stderr, report.lower * alpha.stderr)
    lower_z = _slack_z(lower_slack, lower_sigma)
    upper_z = _slack_z(upper_slack, upper_sigma)
    return PowerVerdict(
        theta=float(theta),
        alpha_estimate=alpha,
        beta_estimate=beta,
        beta_lower=beta_lower,
        beta_upper=beta_upper,
        lower_z=lower_z,
        upper_z=upper_z,
        z_threshold=z_threshold,
        passed=bool(lower_z >= -z_threshold and upper_z >= -z_threshold),
    )
