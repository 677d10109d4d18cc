"""Named verification suites behind the `verify` command.

Each suite returns a list of :class:`CheckResult`; a suite passes when
every check does.  The six suites mirror the package layers:

* kernels:     analytic scalar checks (frozen values, chains, monotonicity,
               extremal-slab closed-form equality).
* oracles:     quadrature anchors (closed forms, tails, Monte Carlo
               agreement for balls and slabs).
* sandwich:    the seeded 20-configuration Monte Carlo battery plus the
               extremal equality cases.
* derivative:  finite-difference vs direct derivative identity and the
               decay floor.
* conditional: conditional-center ceiling, slab closed form, and the
               log-derivative cross-check.
* power:       the power envelope with closed-form and estimated size.

Sample counts default to the acceptance-grade values; pass a smaller
`samples` for smoke runs.  `seed` drives both the configuration draws
and the Monte Carlo streams, so a suite run is fully reproducible.
Every Monte Carlo check compares at Z_THRESHOLD sigmas (see :mod:`.mc`).
`suite_sandwich` alone takes `upper_scale`, the fault-injection hook:
values below 1 shrink the upper bound of its verdicts and must make
the suite fail, which proves the machinery can detect violations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernels, oracles
from .bodies import (
    ConvexBody,
    Ellipsoid,
    HPolytope,
    Intersection,
    LpBall,
    Slab,
)
from .bounds import (
    Layer,
    as_layered,
    build_layered,
    conditional_coordinate_ceiling,
    extremal_slab,
    power_envelope,
    ratio_bounds_set,
)
from .errors import DomainError
from .linalg import Covariance, Direction, build_covariance, identity_covariance
from .mc import (
    Z_THRESHOLD,
    conditional_plan,
    derivative_plan,
    layered_plan,
    power_envelope_plan,
    power_grid_plan,
    run_plans,
    sandwich_plan,
    score_agreement,
    score_interval,
)

# Each Monte Carlo check draws from the stream seeded
# seed * SEED_STRIDE + offset, with its own offset of at most
# MAX_SEED_OFFSET (power_estimated_alpha_box; the slab battery's
# seed * 999983 + i stays below that).  MAX_SEED is the largest run
# seed that keeps every check's seed below 2^64.
SEED_STRIDE = 1000003
MAX_SEED_OFFSET = 1201
MAX_SEED = ((1 << 64) - 1 - MAX_SEED_OFFSET) // SEED_STRIDE

# Frozen high-precision reference values (40-digit erf/gamma oracle,
# rounded to double).  These are the anchors the analytic suites pin.
SHIFT_RATIO_11 = 0.6990731123718361
SHIFT_RATIO_21 = 0.23042006316429375
SHIFT_RATIO_HALF_1 = 0.9149917600895526
SLAB_MASS_11 = 0.4772498680518208
SLAB_DERIV_11 = -0.34495131388824463
SLAB_SLACK_11 = 0.13229855416357617
GAMMA_P_HALF_HALF = 0.6826894921370859
GAMMA_P_1_07 = 0.5034146962085905
GAMMA_P_25_31 = 0.7127583165744389
GAMMA_P_4_2 = 0.14287653950145295
CHI2_3_AT_1 = 0.1987480430987992
BALL_2_2_0 = 0.8646647167633873
BALL_3_1_1 = 0.13229855416357617
BALL_5_2_1 = 0.34718970217475014
TRUNCATED_SLAB_CENTER_11 = 0.7227897522452308
SLAB_ALPHA_A1 = 0.3173105078629141


@dataclass(frozen=True)
class CheckResult:
    """One named verification check.

    `statistic` is the check's headline number: a z-like margin for
    Monte Carlo checks (negative = violated by that many sigmas) or a
    worst-case error/slack for analytic checks.  `details` is small and
    JSON-ready.
    """

    name: str
    passed: bool
    statistic: float
    provenance: str
    details: dict


def _result(
    name: str, passed: bool, statistic: float, provenance: str, **details: object
) -> CheckResult:
    return CheckResult(name, bool(passed), float(statistic), provenance, details)


def _anchor_result(
    name: str,
    provenance: str,
    pairs: list[tuple[float, float]],
    tolerance: float,
    relative: bool = False,
    **details: object,
) -> CheckResult:
    """Worst absolute (or relative) error over (got, want) pairs, within tolerance."""
    if relative:
        worst = max(abs(got - want) / max(abs(want), 1e-300) for got, want in pairs)
    else:
        worst = max(abs(got - want) for got, want in pairs)
    return _result(
        name, worst <= tolerance, worst, provenance, tolerance=tolerance, **details
    )


def _halfwidth_grid() -> list[float]:
    """200 halfwidths: 0, a log grid over [1e-3, 50], and infinity.

    The log grid's points below kernels.QUADRATURE_HALFWIDTH exercise
    the Gauss-Legendre branch of shift_ratio and the rest its erfc
    quotient; the grid is part of the pinned records, and the 0 and inf
    endpoints pin the limits exactly.
    """
    return [0.0, *np.logspace(-3.0, math.log10(50.0), 198).tolist(), math.inf]


def suite_kernels(samples: int | None = None, seed: int = 0) -> list[CheckResult]:
    """Analytic scalar battery; `samples` and `seed` are unused."""
    del samples, seed
    results = []

    cases = [
        (kernels.shift_ratio(1.0, 1.0), SHIFT_RATIO_11),
        (kernels.shift_ratio(2.0, 1.0), SHIFT_RATIO_21),
        (kernels.shift_ratio(0.5, 1.0), SHIFT_RATIO_HALF_1),
        (kernels.shift_ratio(1.0, 0.0), math.exp(-0.5)),
        (kernels.shift_ratio(1.0, math.inf), 1.0),
        (kernels.shift_ratio(0.0, 3.0), 1.0),
        (kernels.slab_mass(1.0, 1.0).value, SLAB_MASS_11),
        (kernels.slab_mass(1.0, 1.0).derivative, SLAB_DERIV_11),
        (kernels.slab_decay_slack(1.0, 1.0), SLAB_SLACK_11),
    ]
    results.append(_anchor_result(
        "kernels_frozen_values", "analytic", cases, 1e-13, relative=True, cases=len(cases)
    ))

    grid = _halfwidth_grid()
    worst_diff = math.inf
    worst_chain = math.inf
    for t in (0.5, 1.0, 2.0, 5.0, 10.0):
        values = [kernels.shift_ratio(t, a) for a in grid]
        floor = math.exp(-0.5 * t * t)
        worst_chain = min(
            worst_chain,
            min(v - floor for v in values),
            min(1.0 - v for v in values),
        )
        worst_diff = min(
            worst_diff, min(b - a for a, b in zip(values, values[1:]))
        )
    results.append(_result(
        "kernels_ratio_chain_monotone", worst_diff >= -1e-12 and worst_chain >= 0.0,
        worst_diff, "analytic",
        grid_points=len(grid), min_chain_margin=worst_chain, tolerance=1e-12,
    ))

    t_grid = np.linspace(0.025, 10.0, 400)
    worst_value = math.inf
    worst_increase = -math.inf
    for a in (0.25, 1.0, 4.0):
        lam = [kernels.slab_decay_slack(a, float(t)) for t in t_grid]
        worst_value = min(worst_value, min(lam))
        worst_increase = max(
            worst_increase, max(b - a2 for a2, b in zip(lam, lam[1:]))
        )
    results.append(_result(
        "kernels_slab_slack_monotone", worst_value >= -1e-12 and worst_increase <= 1e-12,
        worst_value, "analytic", max_increase=worst_increase, tolerance=1e-12,
    ))

    equality = []
    for n in (2, 5):
        cov = identity_covariance(n)
        oblique = np.ones(n)
        oblique[-1] = 2.0
        for u in (Direction.axis(n), Direction.from_vector(oblique)):
            for a in (0.25, 1.0, 3.0):
                body = extremal_slab(cov, u, a)
                for t in (0.0, 0.5, 1.0, 2.0, 4.0):
                    closed = oracles.oracle_slab(a, t) / oracles.oracle_slab(a, 0.0)
                    equality.append((closed, ratio_bounds_set(cov, body, u, t).upper))
    results.append(_anchor_result("kernels_extremal_equality", "analytic", equality, 1e-12))

    gamma_cases = [
        (kernels.regularized_gamma_p(0.5, 0.5), GAMMA_P_HALF_HALF),
        (kernels.regularized_gamma_p(1.0, 0.7), GAMMA_P_1_07),
        (kernels.regularized_gamma_p(2.5, 3.1), GAMMA_P_25_31),
        (kernels.regularized_gamma_p(4.0, 2.0), GAMMA_P_4_2),
        (oracles.chi_square_cdf(3, 1.0), CHI2_3_AT_1),
        (kernels.regularized_gamma_p(1.0, 0.7), 1.0 - math.exp(-0.7)),
    ]
    gamma_cases += [
        (kernels.regularized_gamma_p(0.5, y), math.erf(math.sqrt(y)))
        for y in np.linspace(0.05, 12.0, 40).tolist()
    ]
    results.append(_anchor_result(
        "kernels_gamma_identities", "analytic", gamma_cases, 1e-13, relative=True
    ))
    return results


def _ball_n3_closed_form(radius: float, t: float) -> float:
    """gamma_3(t e + B_R) in closed form: the chi-square(2) CDF integrates out."""
    g = kernels.slab_mass(radius, t).value
    if t == 0.0:
        tail = kernels.std_normal_pdf(0.0) * math.exp(-0.5 * radius * radius) * 2.0 * radius
    else:
        tail = (
            kernels.std_normal_pdf(t)
            * math.exp(-0.5 * radius * radius)
            * 2.0
            * math.sinh(radius * t)
            / t
        )
    return g - tail


# Step of the central difference in :func:`_ball_decay_rate`.
_DECAY_STEP = 1e-3


def _decay_cases(radius: float, t: float) -> list[tuple[int, float, float]]:
    """The ball-oracle cases (dim, radius, shift) of :func:`_ball_decay_rate`."""
    return [(3, radius, t + _DECAY_STEP), (3, radius, t - _DECAY_STEP)]


def _ball_decay_rate(upper: float, lower: float) -> float:
    """-(d/dt) ln gamma_3(t e + B_R) by a central difference of the ball
    oracle's masses at the two :func:`_decay_cases`."""
    return -(math.log(upper) - math.log(lower)) / (2.0 * _DECAY_STEP)


def suite_oracles(samples: int | None = None, seed: int = 0) -> list[CheckResult]:
    """Quadrature anchors and their Monte Carlo cross-checks."""
    ball_samples = samples if samples is not None else 10_000_000
    slab_samples = samples if samples is not None else 1_000_000
    results = []

    frozen = [
        ((2, 2.0, 0.0), BALL_2_2_0),
        ((2, 1.0, 0.0), 1.0 - math.exp(-0.5)),
        ((3, 1.0, 1.0), BALL_3_1_1),
        ((5, 2.0, 1.0), BALL_5_2_1),
    ]
    closed_form = [
        ((3, radius, t), _ball_n3_closed_form(radius, t))
        for radius in (0.5, 1.0, 2.0) for t in (0.0, 0.7, 1.5)
    ]
    dim1 = [
        ((1, radius, t), oracles.oracle_slab(radius, t))
        for radius in (0.5, 2.0) for t in (0.0, 1.0, 3.0)
    ]
    far_case = (2, 1.0, 10.0)
    t0 = 1.0
    balls = [(n, radius, t) for n in (2, 3, 5) for radius in (1.0, 2.0) for t in (0.0, 1.0)]
    # One batch, so the quadratures share their chi-square evaluations.
    cases = [case for case, _ in frozen + closed_form + dim1]
    cases += [far_case, *_decay_cases(1.0, t0), *balls]
    mass = dict(zip(cases, oracles.oracle_balls(cases)))

    def anchors(pairs: list) -> list[tuple[float, float]]:
        return [(mass[case], want) for case, want in pairs]

    results.append(
        _anchor_result("oracle_ball_frozen_values", "quadrature", anchors(frozen), 1e-9)
    )
    results.append(_anchor_result(
        "oracle_ball_n3_closed_form", "quadrature", anchors(closed_form), 1e-9
    ))
    results.append(
        _anchor_result("oracle_ball_dim1_slab", "quadrature", anchors(dim1), 1e-12)
    )

    far = mass[far_case]
    tail_cap = kernels.std_normal_cdf(-9.0)
    results.append(_result(
        "oracle_ball_far_tail", 0.0 < far <= tail_cap, far, "quadrature", tail_cap=tail_cap
    ))

    # The decay rate is a conditional center coordinate, so it lies in [0, t].
    rate = _ball_decay_rate(*(mass[case] for case in _decay_cases(1.0, t0)))
    ceiling = conditional_coordinate_ceiling(t0)
    results.append(_result(
        "oracle_ball_log_derivative_range", -1e-3 <= rate <= ceiling + 1e-3, rate,
        "quadrature", t=t0,
    ))

    # One identity Sigma per dimension, shared by the ball and slab plans.
    identity = functools.cache(identity_covariance)
    plans = [
        layered_plan(
            identity(n), LpBall(dim=n, p=2.0, radius=radius), Direction.axis(n), t,
            ball_samples, seed * SEED_STRIDE + n * 100 + int(radius) * 10 + int(t),
        )
        for n, radius, t in balls
    ]

    rng = np.random.default_rng(seed + 17)
    slabs = []
    for i in range(20):
        a = float(rng.uniform(0.4, 2.5))
        t = float(rng.uniform(0.0, 2.0))
        n = int(rng.integers(2, 4))
        u = Direction.from_vector(rng.standard_normal(n))
        slab = Slab(normal=u, halfwidth=a)
        slabs.append((a, t))
        plans.append(layered_plan(identity(n), slab, u, t, slab_samples, seed * 999983 + i))

    estimates = run_plans(plans)
    for (n, radius, t), est in zip(balls, estimates[: len(balls)], strict=True):
        want = mass[n, radius, t]
        z, passed = score_agreement(est, want)
        results.append(_result(
            f"oracle_ball_mc_n{n}_r{int(radius)}_t{int(t)}", passed, z,
            "monte_carlo",
            oracle=want, estimate=est.value, stderr=est.stderr, samples=est.samples,
        ))
    worst_z = 0.0
    all_agree = True
    for (a, t), est in zip(slabs, estimates[len(balls) :], strict=True):
        z, passed = score_agreement(est, oracles.oracle_slab(a, t))
        worst_z = max(worst_z, abs(z))
        all_agree = all_agree and passed
    results.append(_result(
        "oracle_slab_mc_battery", all_agree, worst_z, "monte_carlo",
        configurations=20, samples=slab_samples,
    ))
    return results


@dataclass(frozen=True)
class SandwichConfig:
    """One seeded sandwich-verification configuration."""

    name: str
    cov: Covariance
    body: ConvexBody
    u: Direction
    t: float


def _random_spd(rng: np.random.Generator, n: int) -> Covariance:
    a = rng.standard_normal((n, n))
    return build_covariance(a @ a.T + 0.5 * np.eye(n))


def _battery_body(
    kind: str, n: int, cov: Covariance, rng: np.random.Generator
) -> ConvexBody:
    spread = float(np.sqrt(np.trace(cov.matrix)))
    max_sd = float(np.sqrt(np.max(np.diag(cov.matrix))))
    if kind == "l1":
        return LpBall(dim=n, p=1.0, radius=0.9 * math.sqrt(n) * spread + 1.0)
    if kind == "l2":
        return LpBall(dim=n, p=2.0, radius=spread + 1.0)
    if kind == "linf":
        return LpBall(dim=n, p=math.inf, radius=2.2 * max_sd)
    if kind == "ellipsoid":
        c = math.sqrt(n) + 1.2
        return Ellipsoid(quadratic=build_covariance(cov.inverse / (c * c)))
    if kind == "h_polytope":
        normals = []
        offsets = []
        for _ in range(8):
            v = rng.standard_normal(n)
            v /= float(np.linalg.norm(v))
            sd = math.sqrt(float(v @ cov.matrix @ v))
            normals.append(v)
            offsets.append(1.8 * sd * (1.0 + 0.3 * float(rng.random())))
        return HPolytope(normals=np.array(normals), offsets=np.array(offsets))
    if kind == "intersection":
        return Intersection(
            parts=(
                LpBall(dim=n, p=2.0, radius=spread + 1.0),
                LpBall(dim=n, p=math.inf, radius=2.0 * max_sd),
            )
        )
    raise DomainError(f"unknown battery body kind {kind!r}")


def sandwich_battery(seed: int = 0) -> list[SandwichConfig]:
    """The 20 seeded configurations of the sandwich acceptance battery.

    Cycles dimension {2,4,6} x covariance {identity, random SPD} x the
    six body families x shift {0.5, 1.5}; body sizes scale with the
    covariance spread so every configuration keeps comfortable mass.
    """
    rng = np.random.default_rng(seed)
    dims = (2, 4, 6)
    kinds = ("l1", "l2", "linf", "ellipsoid", "h_polytope", "intersection")
    configs = []
    for i in range(20):
        n = dims[i % 3]
        random_sigma = i % 2 == 1
        kind = kinds[i % 6]
        t = (0.5, 1.5)[(i // 2) % 2]
        cov = _random_spd(rng, n) if random_sigma else identity_covariance(n)
        u = Direction.from_vector(rng.standard_normal(n))
        body = _battery_body(kind, n, cov, rng)
        sigma_tag = "rnd" if random_sigma else "eye"
        configs.append(
            SandwichConfig(
                name=f"sandwich_{i:02d}_{kind}_n{n}_{sigma_tag}_t{t}",
                cov=cov,
                body=body,
                u=u,
                t=t,
            )
        )
    return configs


def suite_sandwich(
    samples: int | None = None, seed: int = 0, upper_scale: float = 1.0
) -> list[CheckResult]:
    """The 20-configuration battery plus the extremal equality cases."""
    count = samples if samples is not None else 1_000_000
    battery = sandwich_battery(seed)
    plans = [
        sandwich_plan(
            cfg.cov, cfg.body, cfg.u, cfg.t, count, seed * SEED_STRIDE + i,
            upper_scale=upper_scale,
        )
        for i, cfg in enumerate(battery)
    ]
    # Equality cases, on extremal slabs.
    rng = np.random.default_rng(seed + 29)
    for j, make_cov in enumerate((lambda: identity_covariance(3), lambda: _random_spd(rng, 3))):
        cov = make_cov()
        u = Direction.from_vector(rng.standard_normal(3))
        plans.append(sandwich_plan(
            cov, extremal_slab(cov, u, 1.0), u, 1.0, count, seed * SEED_STRIDE + 500 + j,
            upper_scale=upper_scale,
        ))

    verdicts = run_plans(plans)
    results = []
    for cfg, verdict in zip(battery, verdicts[: len(battery)], strict=True):
        worst_z = min(verdict.lower_z, verdict.upper_z)
        results.append(_result(
            cfg.name, verdict.passed, worst_z, "monte_carlo",
            ratio=verdict.ratio, ratio_stderr=verdict.ratio_stderr,
            lower=verdict.bounds.lower, upper=verdict.bounds.upper,
            lower_z=verdict.lower_z, upper_z=verdict.upper_z,
            violation_sigmas=max(0.0, -worst_z), samples=count, t=cfg.t,
        ))
    # The extremal slab must sit on the upper bound, so |upper_z| stays
    # within the threshold (two-sided).
    for tag, verdict in zip(("eye", "rnd"), verdicts[len(battery) :], strict=True):
        passed = verdict.passed and abs(verdict.upper_z) <= Z_THRESHOLD
        results.append(_result(
            f"sandwich_extremal_{tag}", passed, verdict.upper_z,
            "monte_carlo",
            ratio=verdict.ratio, upper=verdict.bounds.upper,
            lower_z=verdict.lower_z, upper_z=verdict.upper_z, samples=count,
        ))
    return results


def suite_derivative(samples: int | None = None, seed: int = 0) -> list[CheckResult]:
    """Derivative identity and floor for slab and two-layer weights."""
    count = samples if samples is not None else 1_000_000
    rng = np.random.default_rng(seed + 41)
    u2 = Direction.from_vector(rng.standard_normal(2))
    slab_weight = as_layered(Slab(normal=u2, halfwidth=1.0))
    two_layer = build_layered([
        Layer(1.0, LpBall(dim=2, p=2.0, radius=2.0)),
        Layer(0.5, LpBall(dim=2, p=2.0, radius=1.0)),
    ])
    checks = [
        (tag, t, derivative_plan(
            weight, u2, t, count, seed * SEED_STRIDE + 700 + 10 * i + int(2 * t)
        ))
        for i, (tag, weight) in enumerate((("slab", slab_weight), ("two_layer", two_layer)))
        for t in (0.5, 1.0)
    ]
    verdicts = run_plans([plan for *_, plan in checks])
    results = []
    for (tag, t, _), check in zip(checks, verdicts, strict=True):
        details = {
            "fd_estimate": check.fd_estimate,
            "direct_estimate": check.direct_estimate,
            "difference": check.difference,
            "tolerance": check.tolerance,
            "floor_value": check.floor_value,
            "t": t,
            "samples": count,
        }
        passed = check.passed
        if tag == "slab":
            details["analytic_derivative"] = kernels.slab_mass(1.0, t).derivative
            passed = passed and check.matches(details["analytic_derivative"])
        results.append(_result(
            f"derivative_{tag}_t{t}", passed, abs(check.difference) / check.tolerance,
            "monte_carlo", **details,
        ))
    return results


def suite_conditional(samples: int | None = None, seed: int = 0) -> list[CheckResult]:
    """Conditional-center ceiling, slab closed form, log-derivative link."""
    count = samples if samples is not None else 1_000_000
    rng = np.random.default_rng(seed + 53)
    results = []

    hexagon = HPolytope(
        normals=np.array([[1.0, 0.0], [0.5, math.sqrt(3) / 2], [-0.5, math.sqrt(3) / 2]]),
        offsets=np.array([1.5, 1.5, 1.5]),
    )
    ellipse = Ellipsoid(quadratic=build_covariance(np.diag([0.25, 1.0])))
    pairs: list[tuple[str, ConvexBody, float]] = [
        ("slab_a1", Slab(normal=Direction.axis(2), halfwidth=1.0), 1.0),
        ("slab_a2", Slab(normal=Direction.axis(2), halfwidth=2.0), 0.5),
        ("ball_r15", LpBall(dim=2, p=2.0, radius=1.5), 0.5),
        ("ball_r15_far", LpBall(dim=2, p=2.0, radius=1.5), 1.0),
        ("box_r12", LpBall(dim=2, p=math.inf, radius=1.2), 0.5),
        ("ball3_r2", LpBall(dim=3, p=2.0, radius=2.0), 1.0),
        ("box3_r15", LpBall(dim=3, p=math.inf, radius=1.5), 1.0),
        ("hexagon", hexagon, 0.5),
        ("ellipse", ellipse, 1.0),
        ("ball_box", Intersection(parts=(LpBall(dim=2, p=2.0, radius=2.0),
                                         LpBall(dim=2, p=math.inf, radius=1.5))), 1.0),
    ]
    plans = []
    for i, (tag, body, t) in enumerate(pairs):
        if tag.startswith("slab"):
            u = body.normal  # type: ignore[union-attr]
        else:
            u = Direction.from_vector(rng.standard_normal(body.dim))
        plans.append(conditional_plan(body, u, t, count, seed * SEED_STRIDE + 900 + i))
    # cor:c both ways: the center coordinate equals the relative decay
    # rate -(d/dt) ln gamma_n(t u + B), here differentiated through the
    # ball oracle.
    t0 = 1.0
    radius = 1.5
    rate = _ball_decay_rate(*oracles.oracle_balls(_decay_cases(radius, t0)))
    plans.append(conditional_plan(
        LpBall(dim=3, p=2.0, radius=radius), Direction.axis(3), t0, count,
        seed * SEED_STRIDE + 990,
    ))

    *estimates, link = run_plans(plans)
    for (tag, _, t), est in zip(pairs, estimates, strict=True):
        # The center lies in (-inf, ceiling].
        _, z_slack, passed = score_interval(
            est, -math.inf, 0.0, conditional_coordinate_ceiling(t), 0.0
        )
        passed = passed and est.hits >= 10_000
        details = {"center": est.value, "stderr": est.stderr, "hits": est.hits, "t": t,
                   "samples": count}
        if tag == "slab_a1" and t == 1.0:
            _, agrees = score_agreement(est, TRUNCATED_SLAB_CENTER_11)
            passed = passed and agrees
            details["closed_form"] = TRUNCATED_SLAB_CENTER_11
        results.append(_result(f"conditional_{tag}_t{t}", passed, z_slack, "monte_carlo",
                               **details))
    z, passed = score_agreement(link, rate)
    results.append(_result(
        "conditional_log_derivative_link", passed, z, "monte_carlo",
        oracle_rate=rate, center=link.value, stderr=link.stderr, hits=link.hits,
    ))
    return results


def suite_power(samples: int | None = None, seed: int = 0) -> list[CheckResult]:
    """Power envelope: slab closed-form size plus estimated-size configs."""
    count = samples if samples is not None else 1_000_000
    results = []
    cov = identity_covariance(2)
    u = Direction.axis(2)
    slab = Slab(normal=u, halfwidth=1.0)
    alpha = SLAB_ALPHA_A1

    thetas = (0.5, 1.0, 2.0)
    plans = [
        power_grid_plan(cov, slab, u, (theta,), count, seed * SEED_STRIDE + 1100 + int(theta * 10))
        for theta in thetas
    ]
    rng = np.random.default_rng(seed + 71)
    extra = [
        ("ball", LpBall(dim=2, p=2.0, radius=2.0), 1.0),
        ("box", LpBall(dim=3, p=math.inf, radius=1.8), 2.0),
    ]
    for i, (tag, body, theta) in enumerate(extra):
        cov_i = identity_covariance(body.dim)
        u_i = Direction.from_vector(rng.standard_normal(body.dim))
        plans.append(power_envelope_plan(
            cov_i, body, u_i, (ratio_bounds_set(cov_i, body, u_i, theta),), count,
            seed * SEED_STRIDE + 1200 + i,
        ))

    verdicts = run_plans(plans)
    worst_chain = math.inf
    for theta, (est,) in zip(thetas, verdicts[: len(thetas)], strict=True):
        report = power_envelope(ratio_bounds_set(cov, slab, u, theta), alpha)
        worst_chain = min(
            worst_chain, report.beta_lower - alpha, report.beta_upper - report.beta_lower
        )
        # The size is exact here, so only the power's stderr counts.
        low_z, up_z, passed = score_interval(
            est, report.beta_lower, 0.0, report.beta_upper, 0.0
        )
        results.append(_result(
            f"power_slab_theta{theta}", passed, min(low_z, up_z), "monte_carlo",
            beta_estimate=est.value, stderr=est.stderr, beta_lower=report.beta_lower,
            beta_upper=report.beta_upper, alpha=alpha, samples=count,
        ))
    results.append(_result(
        "power_envelope_chain", worst_chain >= -1e-12, worst_chain, "analytic",
        tolerance=1e-12,
    ))
    for (tag, _, theta), (_, (verdict,)) in zip(extra, verdicts[len(thetas) :], strict=True):
        results.append(_result(
            f"power_estimated_alpha_{tag}", verdict.passed,
            min(verdict.lower_z, verdict.upper_z), "monte_carlo",
            alpha_estimate=verdict.alpha_estimate.value,
            beta_estimate=verdict.beta_estimate.value,
            beta_lower=verdict.beta_lower, beta_upper=verdict.beta_upper,
            theta=theta, samples=count,
        ))
    return results


SUITES: dict[str, Callable[..., list[CheckResult]]] = {
    "kernels": suite_kernels,
    "oracles": suite_oracles,
    "sandwich": suite_sandwich,
    "derivative": suite_derivative,
    "conditional": suite_conditional,
    "power": suite_power,
}
