"""Acceptance gate: the ten release criteria, one test and one printed
pass/fail line each, at full sample sizes and the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they complete.  Everything is seeded; a green run is reproducible
bit for bit on the same platform.
"""

import math
import time

import numpy as np
import pytest

from shiftbounds import (
    Direction,
    Ellipsoid,
    LpBall,
    build_covariance,
    extremal_slab,
    identity_covariance,
    mahalanobis_norm,
    oracle_ball,
    ratio_bounds_set,
    shift_ratio,
    slab_decay_slack,
    transform,
)
from shiftbounds.linalg import cholesky_lower
from shiftbounds.suites import (
    suite_conditional,
    suite_derivative,
    suite_oracles,
    suite_power,
    suite_sandwich,
)


def report(number: int, label: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\n[criterion {number:02d}] {status} {label}: {detail}")
    assert passed, f"criterion {number} ({label}): {detail}"


def run_suite(suite_fn, budget_seconds: float):
    started = time.perf_counter()
    results = suite_fn(seed=0)
    elapsed = time.perf_counter() - started
    failed = [r.check for r in results if not r.passed]
    return results, failed, elapsed, elapsed <= budget_seconds


class TestAcceptance:
    def test_criterion_01_extremal_slab_equality(self):
        # The slab shifted along its own normal must sit exactly on the
        # closed-form upper bound, for axis and oblique directions.
        worst = 0.0
        cases = 0
        for n in (2, 5):
            cov = identity_covariance(n)
            oblique = np.ones(n)
            oblique[-1] = 2.0
            for u in (Direction.axis(n), Direction.from_vector(oblique)):
                for a in (0.25, 1.0, 3.0):
                    body = extremal_slab(cov, u, a)
                    for t in (0.0, 0.5, 1.0, 2.0, 4.0):
                        upper = ratio_bounds_set(cov, body, u, t).upper
                        worst = max(worst, abs(shift_ratio(t, a) - upper))
                        cases += 1
        report(
            1,
            "extremal slab attains the upper bound",
            worst <= 1e-12,
            f"worst |closed_form - upper| = {worst:.3e} over {cases} cases (tol 1e-12)",
        )

    def test_criterion_02_ratio_monotone_chain(self):
        grid = [0.0, *np.logspace(-3.0, math.log10(50.0), 198).tolist(), math.inf]
        worst_diff = math.inf
        worst_chain = math.inf
        for t in (0.5, 1.0, 2.0, 5.0, 10.0):
            values = [shift_ratio(t, a) for a in grid]
            floor = math.exp(-0.5 * t * t)
            worst_diff = min(worst_diff, min(b - a for a, b in zip(values, values[1:])))
            worst_chain = min(
                worst_chain,
                min(v - floor for v in values),
                min(1.0 - v for v in values),
            )
        report(
            2,
            "shift ratio nondecreasing with Gaussian floor",
            worst_diff >= -1e-12 and worst_chain >= 0.0,
            f"min successive diff = {worst_diff:.3e} (tol -1e-12), "
            f"min chain margin = {worst_chain:.3e}",
        )

    def test_criterion_03_slack_nonnegative_monotone(self):
        t_grid = np.linspace(0.025, 10.0, 400)
        worst_value = math.inf
        worst_increase = -math.inf
        for a in (0.25, 1.0, 4.0):
            lam = [slab_decay_slack(a, float(t)) for t in t_grid]
            worst_value = min(worst_value, min(lam))
            worst_increase = max(worst_increase, max(y - x for x, y in zip(lam, lam[1:])))
        report(
            3,
            "decay slack nonnegative and nonincreasing",
            worst_value >= -1e-12 and worst_increase <= 1e-12,
            f"min value = {worst_value:.3e}, max increase = {worst_increase:.3e} "
            "(tol 1e-12)",
        )

    def test_criterion_04_sandwich_battery(self):
        results, failed, elapsed, in_budget = run_suite(suite_sandwich, 120.0)
        worst = min(r.statistic for r in results)
        report(
            4,
            "20-configuration sandwich battery at N=1e6",
            not failed and in_budget,
            f"{len(results)} verdicts, worst margin z = {worst:.2f}, "
            f"failed = {failed or 'none'}, {elapsed:.1f}s (budget 120s)",
        )

    def test_criterion_05_ball_oracle_cross_check(self):
        closed_form_gap = abs(oracle_ball(2, 2.0, 0.0) - (1.0 - math.exp(-2.0)))
        results, failed, elapsed, in_budget = run_suite(suite_oracles, 120.0)
        mc = [r for r in results if r.check.startswith("oracle_ball_mc_")]
        worst_z = max(abs(r.statistic) for r in mc)
        report(
            5,
            "ball quadrature vs Monte Carlo at N=1e7",
            not failed and in_budget and closed_form_gap <= 1e-9 and len(mc) == 12,
            f"{len(mc)} MC grid points, worst |z| = {worst_z:.2f}, "
            f"|oracle - (1-e^-2)| = {closed_form_gap:.2e} (tol 1e-9), "
            f"failed = {failed or 'none'}, {elapsed:.1f}s (budget 120s)",
        )

    def test_criterion_06_derivative_identity_and_floor(self):
        results, failed, elapsed, in_budget = run_suite(suite_derivative, 60.0)
        worst = max(r.statistic for r in results)
        report(
            6,
            "finite-difference derivative matches direct estimate",
            not failed and in_budget and len(results) == 4,
            f"4 configurations, worst |diff|/tolerance = {worst:.2f}, "
            f"failed = {failed or 'none'}, {elapsed:.1f}s (budget 60s)",
        )

    def test_criterion_07_conditional_center_ceiling(self):
        results, failed, elapsed, in_budget = run_suite(suite_conditional, 60.0)
        pairs = [r for r in results if r.check != "conditional_log_derivative_link"]
        min_hits = min(r.details["hits"] for r in pairs)
        report(
            7,
            "conditional center stays at or below the shift",
            not failed and in_budget and len(pairs) == 10 and min_hits >= 10_000,
            f"10 pairs, min hits = {min_hits}, failed = {failed or 'none'}, "
            f"{elapsed:.1f}s (budget 60s)",
        )

    def test_criterion_08_power_envelope(self):
        results, failed, elapsed, in_budget = run_suite(suite_power, 30.0)
        chain = next(r for r in results if r.check == "power_envelope_chain")
        report(
            8,
            "power estimates inside the analytic envelope",
            not failed and in_budget,
            f"{len(results)} checks, chain margin = {chain.statistic:.3e} "
            f"(tol 1e-12), failed = {failed or 'none'}, {elapsed:.1f}s (budget 30s)",
        )

    def test_criterion_09_whitening_invariance(self):
        rng = np.random.default_rng(97)
        worst = 0.0
        started = time.perf_counter()
        for i in range(20):
            n = int(rng.integers(2, 6))
            a = rng.standard_normal((n, n))
            cov = build_covariance(a @ a.T + 0.1 * np.eye(n))
            u = Direction.from_vector(rng.standard_normal(n))
            t = float(rng.uniform(0.1, 2.0))
            if i % 4 == 3:
                body = Ellipsoid(
                    quadratic=build_covariance(cov.inverse * float(rng.uniform(0.2, 1.0)))
                )
            else:
                p = (1.0, 2.0, math.inf)[i % 3]
                body = LpBall(dim=n, p=p, radius=float(rng.uniform(1.0, 3.0)))
            direct = ratio_bounds_set(cov, body, u, t)
            white = ratio_bounds_set(
                identity_covariance(n),
                transform(body, cov.inv_sqrt),
                Direction.from_vector(cov.inv_sqrt @ u.entries),
                t * direct.mahalanobis,
            )
            worst = max(
                worst,
                abs(white.lower - direct.lower) / direct.lower,
                abs(white.upper - direct.upper) / direct.upper,
            )
        elapsed = time.perf_counter() - started
        report(
            9,
            "bounds invariant under whitening",
            worst <= 1e-10 and elapsed <= 5.0,
            f"20 configurations, worst relative gap = {worst:.3e} (tol 1e-10), "
            f"{elapsed:.1f}s (budget 5s)",
        )

    def test_criterion_10_matrix_contracts(self):
        rng = np.random.default_rng(101)
        worst_inv_sqrt = 0.0
        worst_chol = 0.0
        worst_mahal = 0.0
        started = time.perf_counter()
        for _ in range(100):
            n = int(rng.integers(1, 9))
            a = rng.standard_normal((n, n))
            sigma = a @ a.T + 0.1 * np.eye(n)
            cov = build_covariance(sigma)
            eye_gap = np.linalg.norm(
                cov.inv_sqrt @ sigma @ cov.inv_sqrt - np.eye(n), ord="fro"
            )
            worst_inv_sqrt = max(worst_inv_sqrt, eye_gap)
            lower = cholesky_lower(sigma)
            chol_gap = np.linalg.norm(lower @ lower.T - sigma, ord="fro") / np.linalg.norm(
                sigma, ord="fro"
            )
            worst_chol = max(worst_chol, chol_gap)
            u = Direction.from_vector(rng.standard_normal(n))
            direct = mahalanobis_norm(cov, u) ** 2
            quad = cov.quad_form_inv(u.entries)
            worst_mahal = max(worst_mahal, abs(direct - quad) / quad)
        elapsed = time.perf_counter() - started
        report(
            10,
            "matrix factor residuals within contract",
            worst_inv_sqrt <= 1e-10
            and worst_chol <= 1e-10
            and worst_mahal <= 1e-10
            and elapsed <= 5.0,
            f"100 matrices: inv_sqrt residual {worst_inv_sqrt:.3e}, "
            f"cholesky residual {worst_chol:.3e}, mahalanobis gap {worst_mahal:.3e} "
            f"(tol 1e-10), {elapsed:.1f}s (budget 5s)",
        )
