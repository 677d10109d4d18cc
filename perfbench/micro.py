"""Fixed-size microbenchmarks of public calls, one per layer boundary.

Each entry times one call on inputs drawn from the run's seed and
reports the median over a fixed number of repeats, in milliseconds.
The sizes mirror the ones the workloads hit: one 65,536-row sampling
chunk, support LPs of 32 to 512 rows, covariances up to MAX_DIM.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from shiftbounds import lp, mc
from shiftbounds.bodies import Ellipsoid, HPolytope, Intersection, LinearImage, LpBall, Slab
from shiftbounds.linalg import Direction, build_covariance

CHUNK_DIMS = (2, 4, 6)
BODY_DIMS = (2, 4, 6, 16)
LP_ROWS = (32, 128, 512)
LP_DIM = 8
COV_DIMS = (8, 16, 32, 64)


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1000.0 * statistics.median(times)


def _spd(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim))
    s = a @ a.T / dim + 0.5 * np.eye(dim)
    return 0.5 * (s + s.T)


def _bodies(rng: np.random.Generator, dim: int) -> dict:
    """Eight kinds, sized so that a standard normal chunk lands about half inside."""
    normal = Direction.from_vector(rng.standard_normal(dim))
    normals = rng.standard_normal((8, dim))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    ball = LpBall(dim=dim, p=2.0, radius=math.sqrt(dim))
    return {
        "slab": Slab(normal=normal, halfwidth=1.0),
        "l1": LpBall(dim=dim, p=1.0, radius=0.8 * dim),
        "l2": ball,
        "linf": LpBall(dim=dim, p=math.inf, radius=1.5),
        "ellipsoid": Ellipsoid(quadratic=build_covariance(np.linalg.inv(_spd(rng, dim)) / dim)),
        "h_polytope": HPolytope(normals=normals, offsets=np.full(8, 1.5)),
        "intersection": Intersection(parts=(ball, LpBall(dim=dim, p=math.inf, radius=1.5))),
        "linear_image": LinearImage(
            base=ball, matrix=np.eye(dim) + 0.3 * rng.standard_normal((dim, dim))
        ),
    }


def run(seed: int) -> dict[str, tuple[float, str]]:
    """All microbenchmarks as {metric name: (milliseconds, "ms")}."""
    rng = np.random.default_rng([4, seed])
    stream = int(rng.integers(0, 2**32))
    out: dict[str, tuple[float, str]] = {}

    for dim in CHUNK_DIMS:
        out[f"mc.normal_chunk_ms.d{dim}"] = _median_ms(
            lambda: next(mc.standard_normal_chunks(dim, mc.CHUNK_SIZE, stream)), 15
        )
    cov6 = build_covariance(_spd(rng, 6))
    out["mc.gaussian_chunk_ms.d6"] = _median_ms(
        lambda: next(mc.sample_gaussian(cov6, mc.CHUNK_SIZE, stream)), 15
    )

    for dim in BODY_DIMS:
        points = next(mc.standard_normal_chunks(dim, mc.CHUNK_SIZE, stream))
        for kind, body in _bodies(rng, dim).items():
            out[f"bodies.contains_batch_ms.{kind}.d{dim}"] = _median_ms(
                lambda: body.contains_batch(points), 9
            )

    for rows in LP_ROWS:
        normals = rng.standard_normal((rows // 2, LP_DIM))
        a = np.vstack([normals, -normals])
        b = np.ones(rows)
        c = rng.standard_normal(LP_DIM)
        repeats = 3 if rows >= 512 else 7
        out[f"lp.simplex_max_ms.r{rows}"] = _median_ms(lambda: lp.simplex_max(c, a, b), repeats)

    for dim in COV_DIMS:
        matrix = _spd(rng, dim)
        out[f"linalg.build_covariance_ms.d{dim}"] = _median_ms(
            lambda: build_covariance(matrix), 3
        )
    return {name: (value, "ms") for name, value in out.items()}
