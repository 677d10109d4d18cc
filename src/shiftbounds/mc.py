"""Monte Carlo verification engine.

Sampling is counter-based: chunk i of the stream (seed, substream) uses
an independent Philox generator keyed by [seed, substream * 2^48 + i],
so each chunk depends only on its coordinates.  Uniforms are
(53-bit integer + 0.5) * 2^-53, mapped through the inverse normal CDF;
correlated Gaussians are L z for the covariance's Cholesky factor L.

Chunks are drawn on a small thread pool (SAMPLER_WORKERS threads; the
Philox fill and ndtri release the GIL), up to SAMPLER_WORKERS chunks
ahead of the one being reduced.  Everything else -- membership tests,
weights, BLAS calls and the reduction -- runs on the calling thread in
chunk order, so no bit depends on the number of workers.

Every estimator reduces a vector of per-chunk sums (sum, sum of
squares, hits, ...) in fixed chunk order; mean = S1/N and stderr =
sqrt((S2/N - mean^2)/N), the plug-in (ddof=0) form, which for
indicator weights is exactly the binomial stderr.

Verdicts score bound violations in numerator units:

    z = (signed slack) / sqrt(se_num^2 + (bound * se_den)^2)

so a *negative* z means the estimate crossed the bound by |z| combined
standard errors.  Numerator and denominator always come from
independent substreams.  Every Monte Carlo z of the package, and its
verdict, comes from :func:`score_interval` or :func:`score_agreement`;
at stderr 0 a z is 0 without slack and +-inf otherwise.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy.special import ndtri

from .bodies import ConvexBody
from .bounds import (
    BoundReport,
    LayeredUnimodal,
    as_layered,
    derivative_floor,
    power_bounds,
    ratio_bounds_grid,
    ratio_bounds_set,
)
from .errors import (
    DomainError,
    InsufficientHitsError,
    InsufficientMassError,
    ShapeError,
)
from .linalg import Covariance, Direction, identity_covariance

CHUNK_SIZE = 65536

# Rows per block of the indicator pass.  OpenBLAS runs a gemm on the
# calling thread up to m*n*k = 262,144, so a 4,096-row block at dim <= 8
# wakes no helper thread (one that then spins between calls), and every
# temporary of the block stays in cache.
BLOCK_ROWS = 4096

# Sampler threads, and chunks drawn ahead of the one being reduced.  The
# cap bounds the chunks alive at once to about 1 + SAMPLER_WORKERS.
SAMPLER_WORKERS = min(
    4,
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1,
)

# Substream roles: numerators/single estimates draw from MAIN, ratio
# denominators from DENOM; anything a caller passes explicitly wins.
SUBSTREAM_MAIN = 0
SUBSTREAM_DENOM = 1

MIN_CONDITIONAL_HITS = 100
MIN_DENOMINATOR_HITS = 10

# Allowance for the O(step^2) bias of the derivative check's central difference.
DERIVATIVE_ALLOWANCE = 1e-3

_SUBSTREAM_SHIFT = 48
# Samples one stream holds: 2^48 chunk indices of CHUNK_SIZE rows (2^64).
STREAM_CAPACITY = CHUNK_SIZE << _SUBSTREAM_SHIFT


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
    if count > STREAM_CAPACITY:
        raise DomainError(f"sample count {count} exceeds the stream capacity")


def _chunk_rng(seed: int, substream: int, index: int) -> np.random.Generator:
    key = np.array(
        [seed, (substream << _SUBSTREAM_SHIFT) + index], dtype=np.uint64
    )
    return np.random.Generator(np.random.Philox(key=key))


_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _sampler_pool() -> ThreadPoolExecutor:
    """The process's sampler pool, started on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                SAMPLER_WORKERS, thread_name_prefix="shiftbounds-sampler"
            )
        return _pool


def _forget_pool() -> None:
    """Drop the pool in a forked child, which inherits it without its threads."""
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def standard_normal_chunks(
    dim: int, count: int, seed: int, substream: int = SUBSTREAM_MAIN
) -> Iterator[np.ndarray]:
    """Yield standard normal chunks of shape (<=CHUNK_SIZE, dim), in order.

    Up to SAMPLER_WORKERS later chunks are drawn on the sampler pool
    while the caller works on the current one; closing or dropping the
    generator cancels the draws that have not started.
    """
    _check_stream(seed, substream, count)
    pool = _sampler_pool()
    ahead: deque[Future] = deque()
    try:
        for index, start in enumerate(range(0, count, CHUNK_SIZE)):
            rows = min(CHUNK_SIZE, count - start)
            ahead.append(pool.submit(_normal_chunk, seed, substream, index, rows, dim))
            if len(ahead) > SAMPLER_WORKERS:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()
    finally:
        for future in ahead:
            future.cancel()


def _normal_chunk(
    seed: int, substream: int, index: int, rows: int, dim: int
) -> np.ndarray:
    # random() is (top 53 bits of a Philox word) * 2^-53, as integers(0,
    # 2^53) is; adding 2^-54 rounds as (bits + 0.5) * 2^-53 does, because
    # scaling by a power of two commutes with rounding.
    uniforms = _chunk_rng(seed, substream, index).random((rows, dim))
    uniforms += 2.0**-54
    return ndtri(uniforms, out=uniforms)


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
    with closing(standard_normal_chunks(dim, count, seed, substream)) as chunks:
        for z in chunks:
            total = total + chunk_sums(z)
    return [float(s) for s in total]


def _plug_in(s1: float, s2: float, n: int) -> tuple[float, float]:
    """Plug-in (ddof=0) mean and stderr from a sum and sum of squares over n."""
    mean = s1 / n
    return mean, math.sqrt(max(s2 / n - mean * mean, 0.0) / n)


def _mean_estimate(
    s1: float, s2: float, hits: float, count: int, seed: int, substream: int
) -> McEstimate:
    """The estimate from a reduced sum, sum of squares and hit count."""
    value, stderr = _plug_in(s1, s2, count)
    record = SeedRecord(seed=seed, substream=substream, chunk_size=CHUNK_SIZE)
    return McEstimate(value, stderr, count, int(hits), record)


def _check_shift(t: float) -> None:
    if not math.isfinite(t) or t < 0.0:
        raise DomainError(f"shift magnitude t must be finite and >= 0, got {t!r}")


def _check_geometry(cov: Covariance, dim: int, u: Direction, t: float) -> None:
    if dim != cov.dim or u.dim != cov.dim:
        raise ShapeError(
            f"dimension mismatch: cov {cov.dim}, body {dim}, u {u.dim}"
        )
    _check_shift(t)


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
    (hits,) = _membership_hits(cov, body, u, (-t,), count, seed, substream)
    # Indicator integrand: sum of squares equals the sum.
    return _mean_estimate(hits, hits, hits, count, seed, substream)


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

    s1, s2, hits = _accumulate(count, seed, substream, cov.dim, stats)
    return _mean_estimate(s1, s2, hits, count, seed, substream)


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
    (estimate,) = estimate_power_grid(cov, body, u, (theta,), count, seed, substream)
    return estimate


def estimate_power_grid(
    cov: Covariance,
    body: ConvexBody,
    u: Direction,
    thetas: Sequence[float],
    count: int,
    seed: int,
    substream: int = SUBSTREAM_MAIN,
) -> list[McEstimate]:
    """Estimate the power at every theta of a grid from one pass over the stream.

    Each chunk is transformed once and tested at every shift, so the
    whole grid shares common random numbers.  Entry k does not depend on
    the rest of the grid: it has the bits of a grid holding thetas[k]
    alone.  The grid may be in any order and may repeat values.
    """
    if not thetas:
        raise DomainError("power grid needs at least one theta")
    for theta in thetas:
        _check_geometry(cov, body.dim, u, theta)
    hits = _membership_hits(cov, body, u, thetas, count, seed, substream)
    # Rejections are the complement; integer counts are exact in floats.
    misses = [count - h for h in hits]
    return [_mean_estimate(m, m, m, count, seed, substream) for m in misses]


def _membership_hits(
    cov: Covariance, body: ConvexBody, u: Direction, shifts: Sequence[float],
    count: int, seed: int, substream: int,
) -> list[float]:
    """Count X + s u in A at every signed shift s, from one pass over the stream.

    Each chunk is transformed once and tested at every shift (common
    random numbers); entry k has the bits of a pass at shifts[k] alone.
    Chunks are walked in blocks of BLOCK_ROWS rows: a row's transform
    does not depend on the rows around it and the hits are integers, so
    the per-chunk counts do not depend on the block size.
    """
    offsets = [s * u.entries for s in shifts]
    chol_t = np.asarray(cov.chol).T
    # Identity Sigma has an exactly-identity factor, whose product leaves
    # every row as it is (it could only turn -0.0 into +0.0, and no body
    # tells those apart).
    identity = cov.is_identity()

    def stats(z: np.ndarray) -> np.ndarray:
        hits = np.zeros(len(offsets))
        for start in range(0, z.shape[0], BLOCK_ROWS):
            block = z[start : start + BLOCK_ROWS]
            x = block.copy() if identity else block @ chol_t
            for k, offset in enumerate(offsets):
                # The block is not read again, so it holds each shifted copy.
                np.add(x, offset, out=block)
                hits[k] += np.count_nonzero(body.contains_batch(block))
        return hits

    return _accumulate(count, seed, substream, cov.dim, stats)


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
    _check_shift(t)
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
    return McEstimate(value, stderr, count, hits, SeedRecord(seed, substream, CHUNK_SIZE))


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
    """slack / sigma; at sigma 0 it is 0 for no slack and +-inf otherwise."""
    if sigma == 0.0:
        if slack == 0.0:
            return 0.0
        return math.copysign(math.inf, slack)
    return slack / sigma


def score_interval(
    estimate: McEstimate, lower: float, lower_se: float, upper: float, upper_se: float,
    z_threshold: float,
) -> tuple[float, float, bool]:
    """Score lower <= estimate <= upper: (lower_z, upper_z, passed).

    Each side's sigma is hypot(estimate stderr, that bound's own stderr),
    0 for a bound known exactly; the check passes when both z's are
    >= -z_threshold.  An infinite bound never fails its side.
    """
    lower_z = _slack_z(estimate.value - lower, math.hypot(estimate.stderr, lower_se))
    upper_z = _slack_z(upper - estimate.value, math.hypot(estimate.stderr, upper_se))
    return lower_z, upper_z, bool(lower_z >= -z_threshold and upper_z >= -z_threshold)


def score_agreement(
    estimate: McEstimate, reference: float, z_threshold: float
) -> tuple[float, bool]:
    """Score estimate = reference: z = (value - reference) / stderr, |z| <= threshold."""
    z = _slack_z(estimate.value - reference, estimate.stderr)
    return z, abs(z) <= z_threshold


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
    (report,) = ratio_bounds_grid(cov, target, u, (t,))
    if isinstance(target, LayeredUnimodal):
        num = estimate_layered_expectation(
            cov, target, u, t, count, seed, SUBSTREAM_MAIN
        )
        den = estimate_layered_expectation(
            cov, target, u, 0.0, count, seed, SUBSTREAM_DENOM
        )
    else:
        num = estimate_shift_prob(cov, target, u, t, count, seed, SUBSTREAM_MAIN)
        den = estimate_shift_prob(cov, target, u, 0.0, count, seed, SUBSTREAM_DENOM)
    if den.hits < MIN_DENOMINATOR_HITS:
        raise InsufficientMassError(
            f"denominator starved: {den.hits} hits < {MIN_DENOMINATOR_HITS} "
            "(the body carries too little mass for a meaningful ratio)"
        )
    upper = report.upper * upper_scale
    lower_z, upper_z, passed = score_interval(
        num, report.lower * den.value, report.lower * den.stderr,
        upper * den.value, upper * den.stderr, z_threshold,
    )
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
        passed=passed,
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
    z_threshold: float
    allowance: float

    @property
    def passed(self) -> bool:
        return self.identity_ok and self.floor_ok

    def matches(self, derivative: float) -> bool:
        """Whether the finite difference agrees with a known exact derivative.

        The margin is z_threshold finite-difference stderrs plus the allowance.
        """
        margin = self.z_threshold * self.fd_stderr + self.allowance
        return abs(self.fd_estimate - derivative) <= margin


def verify_derivative_identity(
    weight: LayeredUnimodal | ConvexBody,
    u: Direction,
    t: float,
    count: int,
    seed: int,
    step: float = 1e-2,
    allowance: float = DERIVATIVE_ALLOWANCE,
    substream: int = SUBSTREAM_MAIN,
    z_threshold: float = 4.0,
) -> DerivativeCheck:
    """Check d/dt E w(Z - t u) = -E <u, Z> w(Z - t u) for standard Z.

    Central difference with the given step vs the direct estimator, on
    common random numbers; `tolerance` = z_threshold * sigma_diff +
    allowance, where the allowance absorbs the O(step^2) discretization
    bias.  Also checks both estimates against the analytic decay floor
    (:func:`derivative_floor` for the identity covariance), each within
    z_threshold of its own stderr.
    """
    w = as_layered(weight)
    if w.dim != u.dim:
        raise ShapeError(f"dimension mismatch: weight {w.dim}, u {u.dim}")
    if not math.isfinite(t) or t <= 0.0:
        raise DomainError(f"derivative check needs a finite t > 0, got {t!r}")
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
    tolerance = z_threshold * diff_se + allowance
    floor_value = derivative_floor(identity_covariance(w.dim), u, t, expectation)
    identity_ok = abs(diff_mean) <= tolerance
    floor_ok = (fd_mean >= floor_value - z_threshold * fd_se) and (
        dir_mean >= floor_value - z_threshold * dir_se
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
        z_threshold=z_threshold,
        allowance=allowance,
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
    """Estimate size and power on independent substreams and test the envelope."""
    if not math.isfinite(theta) or theta <= 0.0:
        raise DomainError(f"power check needs a finite theta > 0, got {theta!r}")
    report = ratio_bounds_set(cov, body, u, theta)
    beta = estimate_power(cov, body, u, theta, count, seed, SUBSTREAM_MAIN)
    alpha = estimate_power(cov, body, u, 0.0, count, seed, SUBSTREAM_DENOM)
    return score_power_envelope(report, alpha, beta, z_threshold)


def score_power_envelope(
    report: BoundReport,
    alpha: McEstimate,
    beta: McEstimate,
    z_threshold: float,
) -> PowerVerdict:
    """Test a power estimate against the envelope at the estimated size.

    `report` is the ratio bound at the power's shift; the envelope is
    evaluated at alpha-hat, so both inequalities carry combined stderr
    from the two estimates.
    """
    beta_lower, beta_upper = power_bounds(report, alpha.value)
    lower_z, upper_z, passed = score_interval(
        beta, beta_lower, report.upper * alpha.stderr,
        beta_upper, report.lower * alpha.stderr, z_threshold,
    )
    return PowerVerdict(
        theta=report.t,
        alpha_estimate=alpha,
        beta_estimate=beta,
        beta_lower=beta_lower,
        beta_upper=beta_upper,
        lower_z=lower_z,
        upper_z=upper_z,
        z_threshold=z_threshold,
        passed=passed,
    )
