"""Monte Carlo verification engine.

Sampling is counter-based: chunk i of the stream (seed, substream) uses
an independent Philox generator keyed by [seed, substream * 2^48 + i],
so each chunk depends only on its coordinates.  Uniforms are
(53-bit integer + 0.5) * 2^-53, mapped through the inverse normal CDF;
correlated Gaussians are L z for the covariance's Cholesky factor L.

Chunks are drawn on a small thread pool (SAMPLER_WORKERS threads; the
Philox fill and ndtri release the GIL), up to SAMPLER_WORKERS chunks
ahead of the one being reduced.  Each run has a pool of its own: ending
or closing the run cancels its queued draws and waits for those already
running, so no sampler thread outlives it.  Everything else --
membership tests, weights, BLAS calls and the reduction -- runs on the
calling thread in chunk order, so no bit depends on the number of
workers.

Each Monte Carlo check is a :class:`Plan`: the walks it reads (a
:class:`Walk` names a covariance, a target, a direction, the shifts and
one stream) and a finisher that turns their totals into the check's
estimate or verdict.  :func:`run_plans` runs a request's plans in order
with one draw-ahead window over all their chunks, so the pool draws the
next check's chunks while the caller finishes and scores the last one;
the public estimators are one-plan runs.  Since a chunk's bits depend
only on its coordinates, and every reduction stays on the calling
thread in chunk order, a check run among others has the bits of a check
run alone.  The power check of a grid, for the library and the CLI
alike, is one plan (:func:`power_envelope_plan`): the power at each
theta it is given (at 0, the estimated size) and a verdict per theta > 0.

All five estimators run on one walk over the chunks (:func:`_accumulate`):
it tests each (shift, layer) pair once per row, in blocks of BLOCK_ROWS
rows, into a whole-chunk mask, and each estimator reduces the chunk and
its masks to per-chunk sums, added in fixed chunk order (exact counts for
indicator and layered weights, weighted after the pass; whole-chunk
float sums for the conditional and derivative estimators).  A nonzero
shift s is one flat add of the transformed block against s u tiled over
SHIFT_TILE_ROWS rows, the IEEE add of the broadcast x + s u element for
element; a zero shift skips the add, as identity Sigma skips the
transform: either could only turn -0.0 into +0.0, and no body tells
those apart.  mean = S1/N
and stderr = sqrt((S2/N - mean^2)/N), the plug-in (ddof=0) form, which
for indicator weights is exactly the binomial stderr.

Verdicts score bound violations in numerator units:

    z = (signed slack) / sqrt(se_num^2 + (bound * se_den)^2)

so a *negative* z means the estimate crossed the bound by |z| combined
standard errors.  Numerator and denominator always come from
independent substreams.  Every z of the sandwich, power, oracle and
conditional checks comes from :func:`score_interval` or
:func:`score_agreement`; at stderr 0 a z is 0 without slack and +-inf
otherwise.  The derivative check's verdicts compare its differences
with z_threshold stderrs directly (:class:`DerivativeCheck`).
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

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
)
from .errors import (
    DomainError,
    InsufficientHitsError,
    InsufficientMassError,
    ShapeError,
)
from .linalg import Covariance, Direction, identity_covariance

CHUNK_SIZE = 65536

# Rows per block of the membership pass.  OpenBLAS runs a gemm on the
# calling thread up to m*n*k = 262,144, so a 4,096-row block at dim <= 8
# wakes no helper thread (one that then spins between calls), and every
# temporary of the block stays in cache.
BLOCK_ROWS = 4096

# Rows of a shift's tiled offset.  Adding a (rows, dim) block and a (dim,)
# offset, numpy loops over dim columns per row; against the tile it loops
# over SHIFT_TILE_ROWS * dim elements.  256 rows keep a tile at 128 KiB
# at MAX_DIM, twice one shift's 64 KiB chunk mask.
SHIFT_TILE_ROWS = 256

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

# The default z threshold of every verdict, in combined standard errors.
Z_THRESHOLD = 4.0

MIN_CONDITIONAL_HITS = 100
MIN_DENOMINATOR_HITS = 10

# The derivative check's central-difference step and the allowance for its O(step^2) bias.
DERIVATIVE_STEP = 1e-2
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


def standard_normal_chunks(
    dim: int, count: int, seed: int, substream: int = SUBSTREAM_MAIN
) -> Iterator[np.ndarray]:
    """Yield standard normal chunks of shape (<=CHUNK_SIZE, dim), in order.

    Up to SAMPLER_WORKERS later chunks are drawn on the sampler pool
    while the caller works on the current one; closing or dropping the
    generator cancels the draws that have not started and waits for the rest.
    """
    _check_stream(seed, substream, count)
    yield from _draw_ahead((seed, substream, index, rows, dim) for index, rows in _chunks(count))


def _chunks(count: int) -> Iterator[tuple[int, int]]:
    """(index, rows) of each chunk of a count-sample stream."""
    for index, start in enumerate(range(0, count, CHUNK_SIZE)):
        yield index, min(CHUNK_SIZE, count - start)


def _draw_ahead(specs: Iterable[tuple[int, int, int, int, int]]) -> Iterator[np.ndarray]:
    """Draw the chunk of each (seed, substream, index, rows, dim), in order.

    Up to SAMPLER_WORKERS chunks after the one being yielded are drawn on
    a pool of this run's own; closing the generator cancels those not yet
    started and waits for the rest, so no sampler thread outlives the run.
    Each chunk is allocated here and only filled on the pool: glibc gives
    every thread a malloc arena of its own, and chunks allocated on the
    sampler threads left those arenas holding freed memory once draws ran
    across checks (7 to 11 MB more peak RSS on the benchmark workloads,
    2-CPU host).
    """
    pool = ThreadPoolExecutor(SAMPLER_WORKERS, thread_name_prefix="shiftbounds-sampler")
    ahead: deque[Future] = deque()
    try:
        for seed, substream, index, rows, dim in specs:
            out = np.empty((rows, dim))
            ahead.append(pool.submit(_normal_chunk, seed, substream, index, out))
            if len(ahead) > SAMPLER_WORKERS:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _normal_chunk(seed: int, substream: int, index: int, out: np.ndarray) -> np.ndarray:
    """Fill `out`, a C-contiguous (rows, dim) array, with chunk `index` of the stream."""
    # random() is (top 53 bits of a Philox word) * 2^-53, as integers(0,
    # 2^53) is; adding 2^-54 rounds as (bits + 0.5) * 2^-53 does, because
    # scaling by a power of two commutes with rounding.
    uniforms = _chunk_rng(seed, substream, index).random(out=out)
    uniforms += 2.0**-54
    return ndtri(uniforms, out=uniforms)


def sample_gaussian(
    cov: Covariance, count: int, seed: int, substream: int = SUBSTREAM_MAIN
) -> Iterator[np.ndarray]:
    """Yield chunks of N(0, Sigma) samples (rows) from the given stream."""
    chol_t = np.asarray(cov.chol).T
    for z in standard_normal_chunks(cov.dim, count, seed, substream):
        yield z @ chol_t


@dataclass(frozen=True)
class Walk:
    """One pass over the stream (seed, substream): what :func:`_accumulate` reads.

    Its total is the sum of reduce(z, inside) over the stream's chunks.
    The target is kept as a layered weight (a body is one layer).  The
    dimensions and the stream are checked here, so a plan that holds the
    walk is checked before any chunk of its run is drawn.
    """

    cov: Covariance
    target: LayeredUnimodal
    u: Direction
    shifts: Sequence[float]
    count: int
    seed: int
    substream: int
    reduce: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        w = as_layered(self.target)
        if not self.cov.dim == w.dim == self.u.dim:
            raise ShapeError(
                f"dimension mismatch: cov {self.cov.dim}, body {w.dim}, u {self.u.dim}"
            )
        _check_stream(self.seed, self.substream, self.count)
        object.__setattr__(self, "target", w)


@dataclass(frozen=True)
class Plan:
    """One Monte Carlo check: the walks it reads, in order, and its finisher.

    finish(*totals) takes one total per walk and returns the check's
    estimate or verdict.
    """

    walks: tuple[Walk, ...]
    finish: Callable[..., object]


def run_plans(plans: Sequence[Plan]) -> Iterator:
    """Yield each plan's result in order, from one draw-ahead window.

    The window runs over the chunks of every walk of every plan, in
    order, so while the caller works on one check's result the pool
    already draws the next check's chunks; no chunk is drawn that no walk
    reads.  A plan's walks are reduced in chunk order on the calling
    thread, so each result has the bits of a run of its plan alone.
    Closing the generator, or an exception in a finisher, cancels the
    draws not yet started and waits for those already running.
    """
    specs = (
        (walk.seed, walk.substream, index, rows, walk.cov.dim)
        for plan in plans
        for walk in plan.walks
        for index, rows in _chunks(walk.count)
    )
    with closing(_draw_ahead(specs)) as chunks:
        for plan in plans:
            yield plan.finish(*[_accumulate(walk, chunks) for walk in plan.walks])


def _run(plan: Plan):
    """The result of one plan, run alone."""
    (result,) = run_plans((plan,))
    return result


def _offset_tile(s: float, u: Direction) -> np.ndarray | None:
    """s u repeated over SHIFT_TILE_ROWS rows, flat; None for a zero shift."""
    if s == 0.0:
        return None
    return np.tile(s * u.entries, SHIFT_TILE_ROWS)


def _shifted(x: np.ndarray, tile: np.ndarray | None, out: np.ndarray) -> np.ndarray:
    """The rows of x shifted by the tile's offset, written to `out`.

    x and out are C-contiguous (rows, dim) arrays, so the add runs flat
    against the tile: each element gets the IEEE add of the broadcast
    x + s u, without numpy's inner loop over dim columns per row.  A zero
    shift returns x itself: adding +-0.0 could only turn -0.0 into +0.0,
    and no body tells those apart.
    """
    if tile is None:
        return x
    flat, into = x.reshape(-1), out.reshape(-1)
    whole = flat.size - flat.size % tile.size
    np.add(
        flat[:whole].reshape(-1, tile.size), tile, out=into[:whole].reshape(-1, tile.size)
    )
    if whole < flat.size:
        np.add(flat[whole:], tile[: flat.size - whole], out=into[whole:])
    return out


def _accumulate(walk: Walk, chunks: Iterator[np.ndarray]) -> list:
    """Sum walk.reduce(z, inside) over the walk's chunks, as Python numbers.

    The walk's chunks are the next ones of `chunks`.  z is a standard
    normal chunk, and inside[k, i, r] says whether row r of
    X + shifts[k] u, X = L z, lies in layer i of the target; it is a
    buffer that the next chunk overwrites.  This is the package's one
    walk over chunks: it transforms and shifts each chunk in blocks of
    BLOCK_ROWS rows, and a row's transform and verdict ignore its
    neighbours, so `inside` does not depend on the block size.
    """
    tiles = [_offset_tile(s, walk.u) for s in walk.shifts]
    # Identity Sigma has an exactly-identity factor, whose product leaves
    # every row as it is (it could only turn -0.0 into +0.0).
    chol_t = None if walk.cov.is_identity() else np.asarray(walk.cov.chol).T
    # One mask buffer and one shifted block per walk.
    rows = min(walk.count, CHUNK_SIZE)
    inside = np.empty((len(tiles), len(walk.target.layers), rows), dtype=bool)
    shifted = np.empty((min(rows, BLOCK_ROWS), walk.cov.dim))
    total = 0
    for _ in _chunks(walk.count):
        total = total + _reduce_chunk(walk, next(chunks), chol_t, tiles, inside, shifted)
    return total.tolist()


def _reduce_chunk(
    walk: Walk, z: np.ndarray, chol_t: np.ndarray | None, tiles: list,
    inside: np.ndarray, shifted: np.ndarray,
) -> np.ndarray:
    """walk.reduce(z, masks) for one chunk; z is released when this returns,
    before the next chunk is awaited."""
    masks = inside[:, :, : len(z)]
    for start in range(0, len(z), BLOCK_ROWS):
        block = z[start : start + BLOCK_ROWS]
        x = block if chol_t is None else block @ chol_t
        out = shifted[: len(block)]
        for k, tile in enumerate(tiles):
            points = _shifted(x, tile, out)
            for i, layer in enumerate(walk.target.layers):
                masks[k, i, start : start + BLOCK_ROWS] = layer.body.contains_batch(points)
    return walk.reduce(z, masks)


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
    return estimate_layered_expectation(cov, body, u, t, count, seed, substream)


def estimate_layered_expectation(
    cov: Covariance,
    target: ConvexBody | LayeredUnimodal,
    u: Direction,
    t: float,
    count: int,
    seed: int,
    substream: int = SUBSTREAM_MAIN,
) -> McEstimate:
    """Estimate E w(X - t u) for w = sum_k c_k 1{A_k}, or a body's indicator."""
    return _run(layered_plan(cov, target, u, t, count, seed, substream))


def layered_plan(
    cov: Covariance, target: ConvexBody | LayeredUnimodal, u: Direction, t: float,
    count: int, seed: int, substream: int = SUBSTREAM_MAIN,
) -> Plan:
    """The plan of :func:`estimate_layered_expectation`."""
    w = as_layered(target)
    _check_shift(t)
    c = [layer.weight for layer in w.layers]
    pairs = _layer_pairs(len(c))

    def finish(rows: list) -> McEstimate:
        (row,) = rows
        both = dict(zip(pairs, row))
        s1 = math.fsum(c[i] * n for (i, j), n in both.items() if i == j)
        # Off the diagonal, (i, j) stands for both N_ij and N_ji.
        s2 = math.fsum((1.0 if i == j else 2.0) * c[i] * c[j] * n for (i, j), n in both.items())
        return _mean_estimate(s1, s2, row[-1], count, seed, substream)

    return Plan((_membership_walk(cov, w, u, (-t,), count, seed, substream),), finish)


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
    return _run(power_grid_plan(cov, body, u, thetas, count, seed, substream))


def power_grid_plan(
    cov: Covariance, body: ConvexBody, u: Direction, thetas: Sequence[float],
    count: int, seed: int, substream: int = SUBSTREAM_MAIN,
) -> Plan:
    """The plan of :func:`estimate_power_grid`."""
    if len(thetas) == 0:
        raise DomainError("power grid needs at least one theta")
    for theta in thetas:
        _check_shift(theta)

    def finish(rows: list) -> list[McEstimate]:
        misses = [count - row[-1] for row in rows]
        return [_mean_estimate(m, m, m, count, seed, substream) for m in misses]

    return Plan((_membership_walk(cov, body, u, thetas, count, seed, substream),), finish)


def _layer_pairs(layers: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(layers) for j in range(i, layers)]


def _membership_walk(
    cov: Covariance, target: ConvexBody | LayeredUnimodal, u: Direction,
    shifts: Sequence[float], count: int, seed: int, substream: int,
) -> Walk:
    """A walk whose total holds, per signed shift s, the counts of X + s u:
    N_ij for each layer pair i <= j (:func:`_layer_pairs`), the rows in
    both A_i and A_j of the target's layers (a body is one layer), and
    last the rows in any layer (for one layer, its N_00).

    Entry k has the bits of a walk at shifts[k] alone: the counts are
    integers, so neither the grid nor the block size moves them.
    """
    layers = len(as_layered(target).layers)
    pairs = _layer_pairs(layers)

    def counts(z: np.ndarray, inside: np.ndarray) -> np.ndarray:
        # Per shift: the pair counts, then the union's (one layer's pair count).
        hits = np.zeros((len(inside), len(pairs) + (layers > 1)), dtype=np.int64)
        for row, masks in zip(hits, inside):
            for k, (i, j) in enumerate(pairs):
                row[k] = np.count_nonzero(masks[i] if i == j else masks[i] & masks[j])
            if layers > 1:
                row[-1] = np.count_nonzero(masks.any(axis=0))
        return hits

    return Walk(cov, target, u, shifts, count, seed, substream, counts)


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
    return _run(conditional_plan(body, u, t, count, seed, substream))


def conditional_plan(
    body: ConvexBody, u: Direction, t: float, count: int, seed: int,
    substream: int = SUBSTREAM_MAIN,
) -> Plan:
    """The plan of :func:`estimate_conditional_center`."""
    _check_shift(t)

    def sums(z: np.ndarray, inside: np.ndarray) -> np.ndarray:
        mask = inside[0, 0]
        coords = (z @ u.entries)[mask]
        return np.array([coords.sum(), coords @ coords, mask.sum()], dtype=float)

    def finish(totals: list) -> McEstimate:
        s1, s2, hits = totals
        hits = int(hits)
        if hits < MIN_CONDITIONAL_HITS:
            raise InsufficientHitsError(
                f"conditional estimate starved: {hits} hits < {MIN_CONDITIONAL_HITS} "
                f"(body mass too small at t={t}; raise the sample count)"
            )
        value, stderr = _plug_in(s1, s2, hits)
        return McEstimate(value, stderr, count, hits, SeedRecord(seed, substream, CHUNK_SIZE))

    cov = identity_covariance(u.dim)
    return Plan((Walk(cov, body, u, (-t,), count, seed, substream, sums),), finish)


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
    z_threshold: float = Z_THRESHOLD,
) -> SandwichVerdict:
    """Estimate the shifted/centered ratio and test it against the sandwich.

    Numerator (shift t) and denominator (shift 0) use independent
    substreams.
    """
    return _run(sandwich_plan(cov, target, u, t, count, seed, z_threshold))


def sandwich_plan(
    cov: Covariance, target: ConvexBody | LayeredUnimodal, u: Direction, t: float,
    count: int, seed: int, z_threshold: float = Z_THRESHOLD, upper_scale: float = 1.0,
) -> Plan:
    """The plan of :func:`verify_sandwich`; its finisher evaluates the bound.

    `upper_scale`, the sandwich suite's fault-injection hook, scales the
    upper bound in the test only, never in the report.
    """
    num_plan = layered_plan(cov, target, u, t, count, seed, SUBSTREAM_MAIN)
    den_plan = layered_plan(cov, target, u, 0.0, count, seed, SUBSTREAM_DENOM)

    def finish(num_rows: list, den_rows: list) -> SandwichVerdict:
        (report,) = ratio_bounds_grid(cov, target, u, (t,))
        num, den = num_plan.finish(num_rows), den_plan.finish(den_rows)
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

    return Plan(num_plan.walks + den_plan.walks, finish)


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
    substream: int = SUBSTREAM_MAIN,
    z_threshold: float = Z_THRESHOLD,
) -> DerivativeCheck:
    """Check d/dt E w(Z - t u) = -E <u, Z> w(Z - t u) for standard Z.

    Central difference with step DERIVATIVE_STEP vs the direct
    estimator, on common random numbers; `tolerance` = z_threshold *
    sigma_diff + DERIVATIVE_ALLOWANCE, which absorbs the O(step^2)
    discretization bias.  Also checks both estimates against the
    analytic decay floor (:func:`derivative_floor` for the identity
    covariance), each within z_threshold of its own stderr.
    """
    return _run(derivative_plan(weight, u, t, count, seed, substream, z_threshold))


def derivative_plan(
    weight: LayeredUnimodal | ConvexBody, u: Direction, t: float, count: int, seed: int,
    substream: int = SUBSTREAM_MAIN, z_threshold: float = Z_THRESHOLD,
) -> Plan:
    """The plan of :func:`verify_derivative_identity`."""
    w = as_layered(weight)
    step = DERIVATIVE_STEP
    if not math.isfinite(t) or t <= step:
        raise DomainError(f"derivative check needs a finite t > {step}, got {t!r}")
    inv_2h = 0.5 / step

    def sums(z: np.ndarray, inside: np.ndarray) -> np.ndarray:
        # Rows of w(Z - s u) at s = t + step, t - step and t.
        up, down, mid = (w.weigh(masks) for masks in inside)
        coords = z @ u.entries
        fd = (up - down) * inv_2h
        direct = -coords * mid
        diff = fd - direct
        return np.array([
            fd.sum(), fd @ fd, direct.sum(), direct @ direct, diff.sum(), diff @ diff, mid.sum()
        ])

    cov = identity_covariance(w.dim)

    def finish(totals: list) -> DerivativeCheck:
        fd_s1, fd_s2, dir_s1, dir_s2, diff_s1, diff_s2, mid_s1 = totals
        fd_mean, fd_se = _plug_in(fd_s1, fd_s2, count)
        dir_mean, dir_se = _plug_in(dir_s1, dir_s2, count)
        diff_mean, diff_se = _plug_in(diff_s1, diff_s2, count)
        expectation = mid_s1 / count
        tolerance = z_threshold * diff_se + DERIVATIVE_ALLOWANCE
        floor_value = derivative_floor(cov, u, t, expectation)
        identity_ok = abs(diff_mean) <= tolerance
        floor_ok = (fd_mean >= floor_value - z_threshold * fd_se) and (
            dir_mean >= floor_value - z_threshold * dir_se
        )
        return DerivativeCheck(
            t=float(t),
            step=step,
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
            allowance=DERIVATIVE_ALLOWANCE,
        )

    shifts = (-(t + step), -(t - step), -t)
    return Plan((Walk(cov, w, u, shifts, count, seed, substream, sums),), finish)


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
    z_threshold: float = Z_THRESHOLD,
) -> PowerVerdict:
    """Estimate size and power on independent substreams and test the envelope."""
    if not math.isfinite(theta) or theta <= 0.0:
        raise DomainError(f"power check needs a finite theta > 0, got {theta!r}")
    reports = ratio_bounds_grid(cov, body, u, (theta,))
    _, (verdict,) = _run(power_envelope_plan(cov, body, u, reports, count, seed, z_threshold))
    return verdict


def power_envelope_plan(
    cov: Covariance, body: ConvexBody, u: Direction, reports: Sequence[BoundReport],
    count: int, seed: int, z_threshold: float = Z_THRESHOLD,
) -> Plan:
    """The power check at the shift of each report: (powers, verdicts).

    One MAIN pass at the reports' thetas gives each power (at theta 0, the
    estimated size) on common random numbers; one DENOM pass at 0, walked
    only when a theta is > 0, gives the independent size against which
    each theta > 0 gets one verdict, in order.
    """
    main = power_grid_plan(
        cov, body, u, [report.t for report in reports], count, seed, SUBSTREAM_MAIN
    )
    denom = power_grid_plan(cov, body, u, (0.0,), count, seed, SUBSTREAM_DENOM)
    checked = any(report.t > 0.0 for report in reports)

    def finish(main_rows: list, *denom_rows: list) -> tuple[list[McEstimate], list[PowerVerdict]]:
        powers = main.finish(main_rows)
        if not checked:
            return powers, []
        (alpha,) = denom.finish(*denom_rows)
        return powers, [
            score_power_envelope(report, alpha, beta, z_threshold)
            for report, beta in zip(reports, powers)
            if report.t > 0.0
        ]

    return Plan(main.walks + (denom.walks if checked else ()), finish)


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
