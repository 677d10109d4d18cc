"""Request sets of the three benchmark workloads, generated from a seed.

A request is one CLI invocation: a command, the JSON config it reads,
and the exit code it must return.  Every number in every config comes
from ``numpy.random.default_rng([salt, seed])``, so the same seed gives
byte-identical configs.  Sizes are fixed here, not on the command line,
so two commits always measure the same work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# verify-suites: one reduced Monte Carlo count for every suite (two
# 65,536-row chunks per estimate), and a small count for the fault probe.
VERIFY_SAMPLES = 131_072
FAULT_SAMPLES = 16_384
VERIFY_SUITES = ("oracles", "sandwich", "derivative", "conditional", "power")

# power-grid: G theta points per config, each config estimating the size
# once and every theta twice, i.e. (1 + 2 G) passes over the samples.
POWER_GRID_POINTS = 4
POWER_GRID_SAMPLES = 131_072
POWER_GRID_KINDS = (
    "slab", "l1", "l2", "linf", "ellipsoid", "h_polytope", "intersection", "linear_image",
)

# analytic-cli: long grids, large dense covariances, tens of LP rows.
ANALYTIC_T_POINTS = 24
ANALYTIC_THETA_POINTS = 24
ANALYTIC_SUPPORT_DIRECTIONS = 6
ANALYTIC_LP_COPIES = 4


@dataclass(frozen=True)
class Request:
    """One CLI call: `command --config <config> --out <report>`."""

    name: str
    command: str
    config: dict
    expect_exit: int = 0

    @property
    def fault(self) -> bool:
        return self.expect_exit != 0


def _rng(salt: int, seed: int) -> np.random.Generator:
    return np.random.default_rng([salt, seed])


def _mc_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**32))


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _dense_sigma(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim))
    s = a @ a.T / dim + 0.5 * np.eye(dim)
    return 0.5 * (s + s.T)


def _sigma_cfg(matrix: np.ndarray) -> dict:
    return {"kind": "dense", "matrix": matrix.tolist()}


def _sd(sigma: np.ndarray, v: np.ndarray) -> float:
    return math.sqrt(float(v @ sigma @ v))


def _polytope(rng: np.random.Generator, sigma: np.ndarray, rows: int, scale: float) -> dict:
    normals = np.array([_unit(rng, sigma.shape[0]) for _ in range(rows)])
    offsets = [scale * _sd(sigma, n) * (1.0 + 0.3 * float(rng.random())) for n in normals]
    return {"kind": "h_polytope", "normals": normals.tolist(), "offsets": offsets}


def _body(kind: str, rng: np.random.Generator, sigma: np.ndarray) -> dict:
    """A body of the given kind that rejects a moderate share of N(0, sigma)."""
    dim = sigma.shape[0]
    spread = math.sqrt(float(np.trace(sigma)))
    max_sd = math.sqrt(float(np.max(np.diag(sigma))))
    c = float(rng.uniform(1.0, 1.3))
    if kind == "slab":
        normal = _unit(rng, dim)
        halfwidth = 1.3 * c * _sd(sigma, normal)
        return {"kind": "slab", "normal": normal.tolist(), "halfwidth": halfwidth}
    if kind == "l1":
        return {"kind": "lp_ball", "dim": dim, "p": 1.0, "radius": c * math.sqrt(dim) * spread}
    if kind == "l2":
        return {"kind": "lp_ball", "dim": dim, "p": 2.0, "radius": c * spread}
    if kind == "linf":
        return {"kind": "lp_ball", "dim": dim, "p": "inf", "radius": 2.0 * c * max_sd}
    if kind == "ellipsoid":
        radius = c * (math.sqrt(dim) + 0.5)
        m = np.linalg.inv(sigma) / (radius * radius)
        return {"kind": "ellipsoid", "matrix": (0.5 * (m + m.T)).tolist()}
    if kind == "h_polytope":
        return _polytope(rng, sigma, 8, 1.8 * c)
    if kind == "intersection":
        return {
            "kind": "intersection",
            "parts": [
                {"kind": "lp_ball", "dim": dim, "p": 2.0, "radius": 1.1 * c * spread},
                {"kind": "lp_ball", "dim": dim, "p": "inf", "radius": 2.2 * c * max_sd},
            ],
        }
    if kind == "linear_image":
        matrix = np.eye(dim) + 0.3 * rng.standard_normal((dim, dim))
        inv = np.linalg.inv(matrix)
        base_spread = math.sqrt(float(np.trace(inv @ sigma @ inv.T)))
        return {
            "kind": "linear_image",
            "base": {"kind": "lp_ball", "dim": dim, "p": 2.0, "radius": c * base_spread},
            "matrix": matrix.tolist(),
        }
    raise ValueError(f"unknown body kind {kind!r}")


def verify_suites(seed: int, samples: int = VERIFY_SAMPLES) -> list[Request]:
    """`verify` on the five Monte Carlo suites, plus one fault-injected run."""
    rng = _rng(1, seed)
    mc = {"samples": samples, "seed": _mc_seed(rng)}
    requests = [
        Request(f"verify-{suite}", "verify", {"dim": 1, "suite": suite, "mc": mc})
        for suite in VERIFY_SUITES
    ]
    # Halving the upper bound must make the sandwich suite fail (exit 1).
    fault_mc = {"samples": min(samples, FAULT_SAMPLES), "seed": mc["seed"]}
    requests.append(
        Request(
            "verify-sandwich-fault",
            "verify",
            {"dim": 1, "suite": "sandwich", "fault_upper_scale": 0.5, "mc": fault_mc},
            expect_exit=1,
        )
    )
    return requests


def power_grid(
    seed: int, samples: int = POWER_GRID_SAMPLES, points: int = POWER_GRID_POINTS
) -> list[Request]:
    """`power` with an estimated size and a Monte Carlo check at every theta."""
    rng = _rng(2, seed)
    base_seed = _mc_seed(rng)
    requests = []
    for i, kind in enumerate(POWER_GRID_KINDS):
        dim = 2 + i % 5
        sigma = _dense_sigma(rng, dim)
        thetas = np.sort(rng.uniform(0.25, 2.5, points)).tolist()
        config = {
            "dim": dim,
            "sigma": _sigma_cfg(sigma),
            "u": _unit(rng, dim).tolist(),
            "body": _body(kind, rng, sigma),
            "theta_grid": thetas,
            "mc": {"samples": samples, "seed": base_seed + i},
        }
        requests.append(Request(f"power-{kind}-d{dim}", "power", config))
    return requests


def _nested_layers(rng: np.random.Generator, dim: int) -> list[dict]:
    """Outer H-polytope, a Euclidean ball inside it, an ellipsoid inside that.

    Unit normals with offsets >= 2 contain the ball of radius 1.9, whose
    inside holds every ellipsoid with semi-axes in [1.0, 1.5].
    """
    normals = np.array([_unit(rng, dim) for _ in range(2 * dim)])
    offsets = rng.uniform(2.0, 2.5, 2 * dim)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    axes = rng.uniform(1.0, 1.5, dim)
    m = (q / axes**2) @ q.T
    return [
        {"weight": 1.0, "body": {"kind": "h_polytope", "normals": normals.tolist(),
                                 "offsets": offsets.tolist()}},
        {"weight": 0.5, "body": {"kind": "lp_ball", "dim": dim, "p": 2.0, "radius": 1.9}},
        {"weight": 0.25, "body": {"kind": "ellipsoid", "matrix": (0.5 * (m + m.T)).tolist()}},
    ]


def analytic_cli(
    seed: int,
    t_points: int = ANALYTIC_T_POINTS,
    theta_points: int = ANALYTIC_THETA_POINTS,
    directions: int = ANALYTIC_SUPPORT_DIRECTIONS,
    big_dim: int = 64,
    copies: int = ANALYTIC_LP_COPIES,
) -> list[Request]:
    """`bounds`, `power` with a given alpha, `support` and `verify kernels`.

    The LP-bound requests come in `copies` independent draws, so the
    pivot count of one random polytope does not set the pass time.
    """
    rng = _rng(3, seed)
    t_grid = np.sort(rng.uniform(0.0, 6.0, t_points)).tolist()
    theta_grid = np.sort(rng.uniform(0.05, 4.0, theta_points)).tolist()
    requests = []

    sigma = _dense_sigma(rng, big_dim)
    requests.append(Request(f"bounds-l2-d{big_dim}", "bounds", {
        "dim": big_dim, "sigma": _sigma_cfg(sigma), "u": _unit(rng, big_dim).tolist(),
        "body": _body("l2", rng, sigma), "t_grid": t_grid,
    }))

    sigma = _dense_sigma(rng, 32)
    requests.append(Request("bounds-linear_image-d32", "bounds", {
        "dim": 32, "sigma": _sigma_cfg(sigma), "u": _unit(rng, 32).tolist(),
        "body": _body("linear_image", rng, sigma), "t_grid": t_grid,
    }))

    for i in range(copies):
        sigma = _dense_sigma(rng, 12)
        requests.append(Request(f"bounds-h_polytope-d12-{i}", "bounds", {
            "dim": 12, "sigma": _sigma_cfg(sigma), "u": _unit(rng, 12).tolist(),
            "body": _polytope(rng, sigma, 24, 1.8), "t_grid": t_grid,
        }))
        requests.append(Request(f"bounds-layered-d6-{i}", "bounds", {
            "dim": 6, "u": _unit(rng, 6).tolist(), "layers": _nested_layers(rng, 6),
            "t_grid": t_grid,
        }))
        sigma = _dense_sigma(rng, 12)
        requests.append(Request(f"support-h_polytope-d12-{i}", "support", {
            "dim": 12, "body": _polytope(rng, sigma, 24, 1.8),
            "directions": [_unit(rng, 12).tolist() for _ in range(directions)],
        }))

    sigma = _dense_sigma(rng, 12)
    requests.append(Request("power-intersection-d12", "power", {
        "dim": 12, "sigma": _sigma_cfg(sigma), "u": _unit(rng, 12).tolist(),
        "body": {"kind": "intersection", "parts": [
            _body("l2", rng, sigma), _polytope(rng, sigma, 16, 1.8)]},
        "theta_grid": theta_grid, "alpha": float(rng.uniform(0.01, 0.2)),
    }))

    sigma = _dense_sigma(rng, 8)
    requests.append(Request("power-ellipsoid-d8", "power", {
        "dim": 8, "sigma": _sigma_cfg(sigma), "u": _unit(rng, 8).tolist(),
        "body": _body("ellipsoid", rng, sigma), "theta_grid": theta_grid,
        "alpha": float(rng.uniform(0.01, 0.2)),
    }))

    sigma = _dense_sigma(rng, 8)
    dirs = [_unit(rng, 8).tolist() for _ in range(directions)]
    for kind in ("l1", "linf", "intersection", "linear_image"):
        requests.append(Request(f"support-{kind}-d8", "support", {
            "dim": 8, "body": _body(kind, rng, sigma), "directions": dirs,
        }))

    requests.append(Request("verify-kernels", "verify", {"dim": 1, "suite": "kernels"}))
    return requests


WORKLOADS = {
    "verify-suites": verify_suites,
    "power-grid": power_grid,
    "analytic-cli": analytic_cli,
}

# Sizes small enough for the harness's own smoke check to finish in seconds.
TINY = {
    "verify-suites": {"samples": 32_768},
    "power-grid": {"samples": 4096, "points": 2},
    "analytic-cli": {"t_points": 4, "theta_points": 3, "directions": 2, "big_dim": 8, "copies": 1},
}
