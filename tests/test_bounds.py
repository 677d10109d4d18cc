"""Bound assembly tests: shift exponents, the sandwich chain, layered
weights, the power envelope, and the extremal slab construction."""

import dataclasses
import json
import math

import numpy as np
import pytest

from shiftbounds import lp
from shiftbounds import (
    Direction,
    DomainError,
    Ellipsoid,
    HPolytope,
    Intersection,
    Layer,
    LayeredUnimodal,
    LpBall,
    ShapeError,
    Slab,
    as_layered,
    body_from_dict,
    build_covariance,
    build_layered,
    conditional_coordinate_ceiling,
    derivative_floor,
    extremal_slab,
    identity_covariance,
    oracle_slab,
    power_envelope,
    ratio_bounds_grid,
    ratio_bounds_layered,
    ratio_bounds_set,
    shift_exponent,
    shift_ratio,
    slab_mass,
    transform,
)
from shiftbounds.bounds import power_bounds
from shiftbounds.cli import main
from shiftbounds.mc import verify_sandwich


# Two ellipses with semi-axes (2, 1) and (1, 2): a mixture that is not nested.
CROSSING_ELLIPSES_GRAMMAR = [
    (1.0, {"kind": "ellipsoid", "matrix": [[0.25, 0.0], [0.0, 1.0]]}),
    (0.5, {"kind": "ellipsoid", "matrix": [[1.0, 0.0], [0.0, 0.25]]}),
]


def crossing_ellipses():
    return build_layered([Layer(w, body_from_dict(b)) for w, b in CROSSING_ELLIPSES_GRAMMAR])


def random_spd_cov(rng, n, ridge=0.5):
    a = rng.standard_normal((n, n))
    return build_covariance(a @ a.T + ridge * np.eye(n))


class TestShiftExponent:
    def test_slab_along_direction(self):
        cov = identity_covariance(2)
        u = Direction.axis(2)
        a, exact = shift_exponent(cov, Slab(normal=u, halfwidth=1.4), u)
        assert a == pytest.approx(1.4, rel=1e-12)
        assert exact

    def test_ball_is_radius(self):
        # For Sigma = I the exponent of B_r is r in every direction.
        cov = identity_covariance(3)
        rng = np.random.default_rng(61)
        ball = LpBall(dim=3, p=2.0, radius=2.5)
        for _ in range(10):
            u = Direction.from_vector(rng.standard_normal(3))
            a, exact = shift_exponent(cov, ball, u)
            assert a == pytest.approx(2.5, rel=1e-12)
            assert exact

    def test_unbounded_body_gives_inf(self):
        cov = identity_covariance(2)
        slab = Slab(normal=Direction.axis(2, 0), halfwidth=1.0)
        a, exact = shift_exponent(cov, slab, Direction.axis(2, 1))
        assert a == math.inf
        assert exact

    def test_intersection_flags_upper_bound(self):
        cov = identity_covariance(2)
        body = Intersection(
            parts=(LpBall(dim=2, p=2.0, radius=2.0), LpBall(dim=2, p=math.inf, radius=1.5))
        )
        _, exact = shift_exponent(cov, body, Direction.axis(2))
        assert not exact

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            shift_exponent(identity_covariance(3), LpBall(dim=2, p=2.0, radius=1.0), Direction.axis(3))


class TestRatioBounds:
    def test_chain_holds(self):
        rng = np.random.default_rng(67)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            cov = random_spd_cov(rng, n)
            u = Direction.from_vector(rng.standard_normal(n))
            body = LpBall(dim=n, p=2.0, radius=float(rng.uniform(0.5, 3.0)))
            t = float(rng.uniform(0.0, 3.0))
            report = ratio_bounds_set(cov, body, u, t)
            assert report.lower <= report.upper + 1e-12
            assert report.upper <= 1.0
            assert report.lower > 0.0

    def test_zero_shift_is_exactly_one(self):
        cov = identity_covariance(2)
        report = ratio_bounds_set(cov, LpBall(dim=2, p=2.0, radius=1.0), Direction.axis(2), 0.0)
        assert report.lower == 1.0
        assert report.upper == 1.0

    def test_lower_bound_formula(self):
        cov = build_covariance(np.diag([4.0, 1.0]))
        u = Direction.axis(2, 0)
        t = 2.0
        report = ratio_bounds_set(cov, LpBall(dim=2, p=2.0, radius=1.0), u, t)
        assert report.mahalanobis == pytest.approx(0.5, rel=1e-12)
        assert report.lower == pytest.approx(math.exp(-0.5 * (t * 0.5) ** 2), rel=1e-12)

    def test_unbounded_exponent_degenerates_to_one(self):
        cov = identity_covariance(2)
        slab = Slab(normal=Direction.axis(2, 0), halfwidth=1.0)
        report = ratio_bounds_set(cov, slab, Direction.axis(2, 1), 2.0)
        assert report.upper == 1.0
        assert report.exponent_a == math.inf

    def test_negative_shift_rejected(self):
        with pytest.raises(DomainError):
            ratio_bounds_set(
                identity_covariance(2), LpBall(dim=2, p=2.0, radius=1.0), Direction.axis(2), -0.5
            )


DENSE3 = build_covariance(
    np.array([[2.0, 0.6, -0.3], [0.6, 1.0, 0.2], [-0.3, 0.2, 0.8]])
)
POLYTOPE3 = HPolytope(
    normals=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [1.0, -1.0, 0.5]]),
    offsets=np.array([2.0, 2.5, 2.2]),
)
# Unsorted, with the zero shift, a repeat and an infinite shift.
MIXED_GRID = (1.5, 0.0, 0.7, 1.5, math.inf, 3.0)


def report_bits(report) -> tuple:
    """Every field of a report, floats as hex so signed zeros differ."""
    return tuple(
        v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(report)
    )


class TestRatioBoundsGrid:
    @pytest.mark.parametrize(
        "target",
        [
            POLYTOPE3,
            build_layered(
                [Layer(1.0, POLYTOPE3), Layer(0.5, LpBall(dim=3, p=2.0, radius=1.0))]
            ),
        ],
        ids=["h_polytope", "layered"],
    )
    def test_matches_single_t_calls_bit_for_bit(self, target):
        u = Direction.from_vector(np.array([0.5, 1.0, -1.0]))
        single = ratio_bounds_set if target is POLYTOPE3 else ratio_bounds_layered
        grid = ratio_bounds_grid(DENSE3, target, u, MIXED_GRID)
        assert [report_bits(r) for r in grid] == [
            report_bits(single(DENSE3, target, u, t)) for t in MIXED_GRID
        ]
        assert [r.t for r in grid] == list(MIXED_GRID)
        assert report_bits(grid[0]) == report_bits(grid[3])
        assert (grid[1].lower, grid[1].upper) == (1.0, 1.0)
        assert (grid[4].lower, grid[4].upper) == (0.0, 0.0)

    def test_support_is_solved_once_per_grid(self, monkeypatch):
        calls = []
        original = lp.simplex_max

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(lp, "simplex_max", counting)
        u = Direction.from_vector(np.array([0.5, 1.0, -1.0]))
        ratio_bounds_grid(DENSE3, POLYTOPE3, u, MIXED_GRID)
        assert len(calls) == 1

    def test_layered_grid_solves_only_the_layer_lps(self, monkeypatch):
        # Building and bounding a polytope around a ball needs the one
        # support LP of the polytope.
        calls = []
        original = lp.simplex_max

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(lp, "simplex_max", counting)
        weight = build_layered(
            [Layer(1.0, POLYTOPE3), Layer(0.5, LpBall(dim=3, p=2.0, radius=1.0))]
        )
        u = Direction.from_vector(np.array([0.5, 1.0, -1.0]))
        ratio_bounds_grid(DENSE3, weight, u, (0.0, 0.5, 1.0, 2.0, 4.0))
        assert len(calls) == 1

    @pytest.mark.parametrize("bad", [-0.5, math.nan])
    def test_bad_t_anywhere_is_rejected_before_the_support(self, monkeypatch, bad):
        def fail(*args, **kwargs):
            raise AssertionError("support LP solved before validation")

        monkeypatch.setattr(lp, "simplex_max", fail)
        u = Direction.from_vector(np.array([0.5, 1.0, -1.0]))
        with pytest.raises(DomainError):
            ratio_bounds_grid(DENSE3, POLYTOPE3, u, (1.0, bad, 2.0))

    def test_empty_grid(self):
        with pytest.raises(DomainError):
            ratio_bounds_grid(DENSE3, POLYTOPE3, Direction.axis(3), ())
        with pytest.raises(DomainError):
            ratio_bounds_grid(DENSE3, POLYTOPE3, Direction.axis(3), np.array([]))

    @pytest.mark.parametrize("sigma", ["identity", "dense"])
    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf], ids=["l1", "l2", "box"])
    def test_tiny_shifts_keep_the_chain(self, sigma, p):
        # At t near 1e-20 the erfc quotient of shift_ratio rounded an ulp
        # past its range: LpBall(2, 1, 1.5) under identity Sigma read
        # upper 1.0000000000000002 for u along (1, 1), and lower 1.0 above
        # upper 0.9999999999999999 for u along (1, -2).
        cov = identity_covariance(2) if sigma == "identity" else build_covariance(
            np.array([[2.0, 0.6], [0.6, 1.0]])
        )
        body = LpBall(dim=2, p=p, radius=1.5)
        ts = [10.0 ** -k for k in range(5, 301, 5)]
        for v in ([1.0, 0.0], [1.0, 1.0], [1.0, -2.0], [0.3, 1.0]):
            u = Direction.from_vector(np.array(v))
            for r in ratio_bounds_grid(cov, body, u, ts):
                assert 0.0 < r.lower <= r.upper <= 1.0, (v, r.t, r.lower, r.upper)
                assert r.lower == math.exp(-0.5 * (r.t * r.mahalanobis) ** 2)

    @pytest.mark.parametrize(
        "grid", [np.array([0.0]), np.linspace(0.0, 2.0, 5)], ids=["one", "five"]
    )
    def test_array_grid_matches_a_list(self, grid):
        u = Direction.from_vector(np.array([0.5, 1.0, -1.0]))
        got = ratio_bounds_grid(DENSE3, POLYTOPE3, u, grid)
        want = ratio_bounds_grid(DENSE3, POLYTOPE3, u, grid.tolist())
        assert [report_bits(r) for r in got] == [report_bits(r) for r in want]


class TestLayered:
    def test_single_layer_matches_set_route(self):
        # A unit-weight single layer must reproduce the indicator bounds
        # field for field, bit for bit.
        rng = np.random.default_rng(71)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            cov = random_spd_cov(rng, n)
            u = Direction.from_vector(rng.standard_normal(n))
            body = LpBall(dim=n, p=2.0, radius=float(rng.uniform(0.5, 2.5)))
            t = float(rng.uniform(0.0, 2.0))
            direct = ratio_bounds_set(cov, body, u, t)
            layered = ratio_bounds_layered(cov, as_layered(body), u, t)
            assert direct == layered

    def test_exponent_comes_from_outermost_layer(self):
        w = build_layered(
            [
                Layer(1.0, LpBall(dim=2, p=2.0, radius=2.0)),
                Layer(0.5, LpBall(dim=2, p=2.0, radius=1.0)),
            ]
        )
        report = ratio_bounds_layered(identity_covariance(2), w, Direction.axis(2), 1.0)
        assert report.exponent_a == pytest.approx(2.0, rel=1e-12)
        assert report.exponent_exact

    def test_exponent_is_the_largest_over_unnested_layers(self):
        # The raw constructor takes the inner slab first; the bound must
        # still hold, so the exponent is the wider slab's.
        u = Direction.axis(2)
        w = LayeredUnimodal(
            layers=(
                Layer(1.0, Slab(normal=u, halfwidth=1.0)),
                Layer(1.0, Slab(normal=u, halfwidth=3.0)),
            )
        )
        cov = identity_covariance(2)
        mass0 = slab_mass(1.0, 0.0).value + slab_mass(3.0, 0.0).value
        for report in ratio_bounds_grid(cov, w, u, (1.0, 2.0, 4.0)):
            assert report.exponent_a == 3.0
            assert report.exponent_exact
            true_ratio = (slab_mass(1.0, report.t).value + slab_mass(3.0, report.t).value) / mass0
            assert report.lower <= true_ratio <= report.upper
        assert shift_exponent(cov, w, u) == (3.0, True)

    def test_largest_intersection_layer_flags_upper_bound(self):
        u = Direction.axis(2)
        w = LayeredUnimodal(
            layers=(
                Layer(1.0, LpBall(dim=2, p=2.0, radius=1.0)),
                Layer(1.0, Intersection(parts=(
                    LpBall(dim=2, p=2.0, radius=2.0), LpBall(dim=2, p=2.0, radius=3.0),
                ))),
            )
        )
        report = ratio_bounds_layered(identity_covariance(2), w, u, 1.0)
        assert report.exponent_a == pytest.approx(2.0, rel=1e-12)
        assert not report.exponent_exact

    def test_exact_layer_tying_an_upper_bound_is_exact(self):
        # The intersection's upper bound is the ball's own support, bit for
        # bit, and no layer's true support exceeds its computed value.
        cov = DENSE3
        u = Direction.from_vector(np.array([0.5, 1.0, -1.0]))
        ball = LpBall(dim=3, p=2.0, radius=1.2)
        w = build_layered(
            [
                Layer(1.0, Intersection(parts=(ball, LpBall(dim=3, p=2.0, radius=50.0)))),
                Layer(0.5, ball),
            ]
        )
        report = ratio_bounds_layered(cov, w, u, 1.0)
        assert (report.exponent_a, report.exponent_exact) == shift_exponent(cov, ball, u)
        assert report.exponent_exact

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_nested_polytope_ball_ellipsoid_matches_outer_body(self, seed):
        # An H-polytope with offsets >= 2 on unit normals, the l2 ball of
        # radius 1.9 inside it, and an ellipsoid with semi-axes in
        # [1.0, 1.5] inside that: the outer body's bounds, bit for bit.
        rng = np.random.default_rng(seed)
        dim = 6
        normals = rng.standard_normal((2 * dim, dim))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        outer = HPolytope(normals=normals, offsets=rng.uniform(2.0, 2.5, 2 * dim))
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        m = (q / rng.uniform(1.0, 1.5, dim) ** 2) @ q.T
        w = build_layered(
            [
                Layer(1.0, outer),
                Layer(0.5, LpBall(dim=dim, p=2.0, radius=1.9)),
                Layer(0.25, Ellipsoid(quadratic=build_covariance(0.5 * (m + m.T)))),
            ]
        )
        u = Direction.from_vector(rng.standard_normal(dim))
        for cov in (identity_covariance(dim), random_spd_cov(rng, dim)):
            grid = ratio_bounds_grid(cov, w, u, MIXED_GRID)
            assert [report_bits(r) for r in grid] == [
                report_bits(ratio_bounds_set(cov, outer, u, t)) for t in MIXED_GRID
            ]

    def test_evaluate_batch_sums_layers(self):
        w = build_layered(
            [
                Layer(1.0, LpBall(dim=2, p=2.0, radius=2.0)),
                Layer(0.5, LpBall(dim=2, p=2.0, radius=1.0)),
            ]
        )
        pts = np.array([[0.0, 0.0], [1.5, 0.0], [3.0, 0.0]])
        np.testing.assert_allclose(w.evaluate_batch(pts), [1.5, 1.0, 0.0])

    def test_crossing_ellipses_run_on_the_cli(self, tmp_path):
        # Neither ellipse contains the other: the bounds hold for any
        # positive mixture, with the largest exponent over the layers.
        config = tmp_path / "crossing.json"
        config.write_text(json.dumps({
            "dim": 2, "u": [0.0, 1.0], "t_grid": [0.5, 1.5],
            "layers": [{"weight": w, "body": b} for w, b in CROSSING_ELLIPSES_GRAMMAR],
        }))
        out = tmp_path / "report.json"
        assert main(["bounds", "--config", str(config), "--out", str(out)]) == 0
        cov, u = identity_covariance(2), Direction.axis(2, 1)
        largest = max(shift_exponent(cov, layer.body, u) for layer in crossing_ellipses().layers)
        assert largest == (2.0, True)
        records = json.loads(out.read_text())["records"]
        assert [r["t"] for r in records] == [0.5, 1.5]
        for record in records:
            assert record["exponent_a"] == largest[0]
            assert record["exactness"] == "exact"

    @pytest.mark.parametrize("dense", [False, True], ids=["identity", "dense"])
    @pytest.mark.parametrize("t", [0.5, 1.5])
    def test_crossing_ellipses_pass_the_sandwich(self, dense, t):
        cov = build_covariance([[1.0, 0.4], [0.4, 0.7]]) if dense else identity_covariance(2)
        u = Direction.from_vector(np.array([0.6, 0.8]))
        verdict = verify_sandwich(cov, crossing_ellipses(), u, t, 200_000, seed=5)
        assert verdict.passed

    def test_rejects_bad_weight(self):
        with pytest.raises(DomainError):
            Layer(0.0, LpBall(dim=2, p=2.0, radius=1.0))
        with pytest.raises(DomainError):
            Layer(-1.0, LpBall(dim=2, p=2.0, radius=1.0))
        with pytest.raises(ShapeError):
            build_layered([])


class TestDerivativeFloor:
    def test_identity_formula(self):
        cov = identity_covariance(2)
        u = Direction.axis(2)
        assert derivative_floor(cov, u, 2.0, 0.3) == pytest.approx(-0.6, rel=1e-12)
        assert derivative_floor(cov, u, 0.0, 0.3) == 0.0

    def test_scales_with_inverse_covariance(self):
        cov = build_covariance(np.diag([4.0, 1.0]))
        u = Direction.axis(2, 0)
        # <u, Sigma^{-1} u> = 1/4.
        assert derivative_floor(cov, u, 1.0, 1.0) == pytest.approx(-0.25, rel=1e-12)

    def test_domain(self):
        cov = identity_covariance(2)
        u = Direction.axis(2)
        with pytest.raises(DomainError):
            derivative_floor(cov, u, -1.0, 0.5)
        with pytest.raises(DomainError):
            derivative_floor(cov, u, 1.0, -0.5)
        # -inf * q * 0 would be NaN.
        with pytest.raises(DomainError, match="finite"):
            derivative_floor(cov, u, math.inf, 0.0)
        # So would -0.0 * q * inf.
        with pytest.raises(DomainError, match="finite"):
            derivative_floor(cov, u, 0.0, math.inf)


class TestConditionalCeiling:
    def test_is_the_shift(self):
        assert conditional_coordinate_ceiling(1.7) == 1.7
        assert conditional_coordinate_ceiling(0.0) == 0.0
        with pytest.raises(DomainError):
            conditional_coordinate_ceiling(-0.1)


class TestPowerEnvelope:
    def test_unbounded_region_frozen_pair(self):
        # Acceptance region unbounded along u: the ratio upper bound is 1,
        # so beta_lower collapses to alpha while beta_upper keeps the
        # Gaussian decay term.
        cov = identity_covariance(2)
        u = Direction.axis(2, 0)
        region = Slab(normal=Direction.axis(2, 1), halfwidth=1.0)
        report = power_envelope(ratio_bounds_set(cov, region, u, 2.0), 0.05)
        assert report.beta_lower == pytest.approx(0.05, rel=1e-12)
        assert report.beta_upper == pytest.approx(0.8714314809252179, rel=1e-12)
        assert report.exponent_a == math.inf

    def test_slab_chain(self):
        cov = identity_covariance(2)
        u = Direction.axis(2)
        slab = Slab(normal=u, halfwidth=1.0)
        alpha = 1.0 - oracle_slab(1.0, 0.0)
        for theta in (0.5, 1.0, 2.0):
            report = power_envelope(ratio_bounds_set(cov, slab, u, theta), alpha)
            assert report.beta_lower >= alpha - 1e-12
            assert report.beta_upper >= report.beta_lower - 1e-12
            assert report.beta_upper <= 1.0
            # Closed form: beta = 1 - g_a(theta), inside the envelope.
            beta = 1.0 - oracle_slab(1.0, theta)
            assert report.beta_lower - 1e-12 <= beta <= report.beta_upper + 1e-12

    def test_envelope_is_the_power_bounds_formula(self):
        u = Direction.from_vector(np.array([0.5, 1.0, -1.0]))
        for report in ratio_bounds_grid(DENSE3, POLYTOPE3, u, MIXED_GRID):
            for alpha in (1e-9, 0.05, 0.5, 0.999):
                envelope = power_envelope(report, alpha)
                assert (envelope.beta_lower, envelope.beta_upper) == power_bounds(
                    report, alpha
                )
                assert envelope.theta == report.t
                assert envelope.exponent_a == report.exponent_a

    def test_domain(self):
        cov = identity_covariance(2)
        u = Direction.axis(2)
        slab = Slab(normal=u, halfwidth=1.0)
        with pytest.raises(DomainError):
            power_envelope(ratio_bounds_set(cov, slab, u, -1.0), 0.1)
        for alpha in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                power_envelope(ratio_bounds_set(cov, slab, u, 1.0), alpha)


class TestExtremalSlab:
    def test_identity_covariance_gives_plain_slab(self):
        u = Direction.from_vector(np.array([1.0, 1.0]))
        body = extremal_slab(identity_covariance(2), u, 1.5)
        assert isinstance(body, Slab)
        assert body.halfwidth == 1.5
        np.testing.assert_allclose(body.normal.entries, u.entries)

    def test_attains_the_upper_bound(self):
        # The measure ratio of the extremal slab is the closed slab form,
        # which must coincide with the reported upper bound everywhere.
        rng = np.random.default_rng(73)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            cov = random_spd_cov(rng, n)
            u = Direction.from_vector(rng.standard_normal(n))
            halfwidth = float(rng.uniform(0.3, 3.0))
            body = extremal_slab(cov, u, halfwidth)
            a, exact = shift_exponent(cov, body, u)
            assert exact
            assert a == pytest.approx(halfwidth, rel=1e-12)
            report = ratio_bounds_set(cov, body, u, 1.3)
            want = shift_ratio(1.3 * report.mahalanobis, halfwidth)
            assert report.upper == pytest.approx(want, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            extremal_slab(identity_covariance(2), Direction.axis(2), 0.0)
        with pytest.raises(ShapeError):
            extremal_slab(identity_covariance(3), Direction.axis(2), 1.0)


class TestWhiteningInvariance:
    def test_bounds_agree_in_whitened_coordinates(self):
        rng = np.random.default_rng(79)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            cov = random_spd_cov(rng, n)
            u = Direction.from_vector(rng.standard_normal(n))
            body = LpBall(dim=n, p=2.0, radius=float(rng.uniform(1.0, 3.0)))
            t = float(rng.uniform(0.1, 2.0))
            direct = ratio_bounds_set(cov, body, u, t)
            white_u = Direction.from_vector(cov.inv_sqrt @ u.entries)
            white_body = transform(body, cov.inv_sqrt)
            white_t = t * direct.mahalanobis
            white = ratio_bounds_set(identity_covariance(n), white_body, white_u, white_t)
            assert white.lower == pytest.approx(direct.lower, rel=1e-10)
            assert white.upper == pytest.approx(direct.upper, rel=1e-10)
