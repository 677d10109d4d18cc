"""Convex body tests: membership, support functions, images, and the
JSON body grammar.

The property classes at the bottom run every body variant through the
shared support-function contracts: symmetry, positive homogeneity, and
the adjoint law for linear images.
"""

import json
import math
import warnings

import mpmath
import numpy as np
import pytest

from shiftbounds import (
    ConfigError,
    DefinitenessError,
    Direction,
    DomainError,
    Ellipsoid,
    HPolytope,
    Intersection,
    LinearImage,
    LpBall,
    ShapeError,
    Slab,
    body_from_dict,
    build_covariance,
    transform,
)
from shiftbounds.bodies import SupportValue, _lp_norm


def sample_bodies():
    """One representative of each variant, keyed for parametrize ids."""
    quadratic = build_covariance(np.array([[0.5, 0.1], [0.1, 1.5]]))
    hexagon = HPolytope(
        normals=np.array([[1.0, 0.0], [0.5, math.sqrt(3) / 2], [-0.5, math.sqrt(3) / 2]]),
        offsets=np.array([1.0, 1.0, 1.0]),
    )
    return {
        "slab": Slab(normal=Direction.from_vector(np.array([1.0, 2.0])), halfwidth=0.8),
        "l1": LpBall(dim=2, p=1.0, radius=1.5),
        "l2": LpBall(dim=2, p=2.0, radius=2.0),
        "l3": LpBall(dim=2, p=3.0, radius=1.2),
        "linf": LpBall(dim=2, p=math.inf, radius=1.0),
        "ellipsoid": Ellipsoid(quadratic=quadratic),
        "h_polytope": hexagon,
        "intersection": Intersection(
            parts=(LpBall(dim=2, p=2.0, radius=2.0), LpBall(dim=2, p=math.inf, radius=1.5))
        ),
        "linear_image": LinearImage(
            base=LpBall(dim=2, p=2.0, radius=1.0),
            matrix=np.array([[2.0, 0.5], [0.0, 1.0]]),
        ),
    }


class TestSlab:
    def test_membership(self):
        slab = Slab(normal=Direction.axis(2), halfwidth=1.0)
        pts = np.array([[0.5, 100.0], [1.0, -3.0], [1.0000001, 0.0], [-2.0, 0.0]])
        np.testing.assert_array_equal(slab.contains_batch(pts), [True, True, False, False])

    def test_support_parallel_and_orthogonal(self):
        slab = Slab(normal=Direction.axis(2), halfwidth=2.0)
        along = slab.support(np.array([3.0, 0.0]))
        assert along.value == pytest.approx(6.0)
        assert along.exact and along.exactness == "exact"
        across = slab.support(np.array([0.0, 1.0]))
        assert across.value == math.inf
        assert across.exact  # genuinely unbounded, not an estimate

    def test_support_point(self):
        slab = Slab(normal=Direction.axis(2), halfwidth=2.0)
        np.testing.assert_allclose(slab.support_point(np.array([-1.0, 0.0])), [-2.0, 0.0])
        assert slab.support_point(np.array([0.0, 1.0])) is None

    @pytest.mark.filterwarnings("error")
    def test_membership_past_the_double_range(self):
        # <x, normal> is past the largest double: outside, with no warning.
        slab = Slab(Direction.from_vector([1, 1]), 1.0)
        assert slab.contains([1.5e308, 1.5e308]) is False

    @pytest.mark.parametrize("h", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_halfwidth(self, h):
        with pytest.raises(DomainError):
            Slab(normal=Direction.axis(2), halfwidth=h)


class TestLpBall:
    def test_l1_support_is_max_coordinate(self):
        ball = LpBall(dim=2, p=1.0, radius=1.0)
        assert ball.support(np.array([3.0, -4.0])).value == pytest.approx(4.0)

    def test_l2_support_is_euclidean_norm(self):
        ball = LpBall(dim=3, p=2.0, radius=2.0)
        assert ball.support(np.array([1.0, 2.0, 2.0])).value == pytest.approx(6.0)

    def test_linf_support_is_l1_norm(self):
        ball = LpBall(dim=2, p=math.inf, radius=0.5)
        assert ball.support(np.array([3.0, -4.0])).value == pytest.approx(3.5)

    def test_general_p_dual_norm(self):
        ball = LpBall(dim=2, p=3.0, radius=1.0)
        v = np.array([1.0, 1.0])
        want = (1.0 + 1.0) ** (2.0 / 3.0)  # ||v||_{3/2}
        assert ball.support(v).value == pytest.approx(want, rel=1e-12)

    def test_membership(self):
        ball = LpBall(dim=2, p=1.0, radius=1.0)
        pts = np.array([[0.5, 0.5], [0.5, 0.51], [-1.0, 0.0]])
        np.testing.assert_array_equal(ball.contains_batch(pts), [True, False, True])

    @pytest.mark.parametrize(
        "p, radius, pts, want",
        [
            # A NaN coordinate is outside, as max(|x_i|) <= r says.
            (math.inf, 1.0, [[1.0, -1.0], [1.0, 1.0000001], [math.nan, 0.0], [0.0, 0.0]],
             [True, False, False, True]),
            # 1.5^2000 overflows; ||(1, 1)||_2000 = 2^(1/2000) = 1.000347.
            (2000.0, 1.5,
             [[1.5, 0.0], [1.5 / 1.0003, 1.5 / 1.0003], [1.5 / 1.0004, 1.5 / 1.0004]],
             [True, False, True]),
            # x^p overflows although ||(x, 0)||_p = x is far inside the radius.
            (2.0, 1e250, [[1e200, 0.0], [1.0000001e250, 0.0]], [True, False]),
            (1.5, 1e250, [[1e240, 0.0], [1.0000001e250, 0.0]], [True, False]),
            # x^p underflows although ||(x, 0)||_p = x is far outside the radius.
            (2.0, 1e-250, [[1e-240, 0.0], [0.9999999e-250, 0.0]], [False, True]),
            (1.5, 1e-250, [[1e-240, 0.0], [0.9999999e-250, 0.0]], [False, True]),
        ],
        ids=["linf", "l2000", "l2_past_1e154", "l1.5_past_1e205", "l2_below_1e-154",
             "l1.5_below_1e-205"],
    )
    def test_membership_extreme_exponents(self, p, radius, pts, want):
        ball = LpBall(dim=2, p=p, radius=radius)
        np.testing.assert_array_equal(ball.contains_batch(np.array(pts)), want)

    def test_l2_membership_norm_is_sqrt_of_sum_of_squares(self):
        # The l2 membership band derives its threshold from sqrt, so the
        # array power ** 0.5 in _lp_norm must be sqrt bit for bit, on
        # random rows and on rows whose norm sits within ulps of 1.
        rng = np.random.default_rng(13)
        dims = (1, 2, 3, 5, 8, 9, 16, 64)
        for dim in dims:
            g = np.abs(rng.standard_normal((2000, dim)))
            wide = g * np.exp(rng.uniform(-300.0, 300.0, size=(2000, 1)))
            unit = g / np.sqrt(np.sum(g * g, axis=-1, keepdims=True))
            near = unit[:, None, :] * (1.0 + np.arange(-4, 5) * 2.0**-52)[None, :, None]
            for a in (g, wide, near.reshape(-1, dim)):
                old = np.sum(a**2.0, axis=-1) ** 0.5
                assert old.tobytes() == _lp_norm(a, 2.0).tobytes()
                assert old.tobytes() == np.sqrt(np.sum(a * a, axis=-1)).tobytes()

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_only_underflowing_rows_are_rescaled(self, p):
        rng = np.random.default_rng(6)
        a = np.abs(rng.standard_normal((64, 9)))
        a[3] *= 1e-250
        a[4] = 0.0
        a[5, 1] = 5e-324
        a[11, 2] = math.nan
        plain = np.sum(a**p, axis=-1) ** (1.0 / p)
        got = _lp_norm(a, p)
        kept = (np.arange(64) != 3) & (np.arange(64) != 5)
        assert got[kept].tobytes() == plain[kept].tobytes()
        for row in (3, 5):
            with mpmath.workdps(60):
                terms = (mpmath.mpf(float(x)) ** p for x in a[row])
                want = mpmath.fsum(terms) ** (1 / mpmath.mpf(p))
            assert got[row] == pytest.approx(float(want), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("p", [1.0001, 1000.0, 2000.0])
    def test_large_exponents_match_high_precision(self, p):
        # x^p overflows at these exponents (1.5^2000), and so does |v|^q
        # for the dual q = 10001 of p = 1.0001; the norms must not.
        ball = LpBall(dim=3, p=p, radius=2.0)
        q = p / (p - 1.0)

        def norm(x, e):
            with mpmath.workdps(60):
                terms = [abs(mpmath.mpf(float(xi))) ** e for xi in x]
                return float(mpmath.fsum(terms) ** (1 / mpmath.mpf(e)))

        rng = np.random.default_rng(7)
        pts = rng.uniform(-3.0, 3.0, size=(300, 3))
        want = [norm(x, p) <= 2.0 for x in pts]
        np.testing.assert_array_equal(ball.contains_batch(pts), want)
        for v in 3.0 * rng.standard_normal((20, 3)):
            assert ball.support(v).value == pytest.approx(2.0 * norm(v, q), rel=1e-12)

    def test_near_one_exponent_support_is_finite(self):
        # The dual exponent is 10001: |3|^10001 is inf in double.
        ball = LpBall(dim=2, p=1.0001, radius=1.0)
        v = np.array([3.0, 1.0])
        assert ball.support(v).value == pytest.approx(3.0, rel=1e-12)
        np.testing.assert_allclose(ball.support_point(v), [1.0, 0.0], rtol=1e-12)

    @pytest.mark.parametrize("p, x", [(2.0, 1e200), (3.0, 1e300)], ids=["l2", "l3"])
    def test_support_where_the_dual_sum_overflows(self, p, x):
        # |v_1|^q overflows for the dual q of p; the dual norm is |v_1|.
        sv = LpBall(dim=2, p=p, radius=1.0).support(np.array([x, 0.0]))
        assert sv.value == x and sv.exact
        np.testing.assert_array_equal(sv.point, [1.0, 0.0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "p, v, want",
        [(2.0, [1.5e308, 1.5e308], 1.5e308 / 4.0 * math.sqrt(2.0)),
         (math.inf, [1e308, 1e308], 5e307)],
        ids=["l2", "linf"],
    )
    def test_support_where_the_dual_norm_overflows(self, p, v, want):
        # The dual norm is past the largest double and the value is not;
        # it read inf, flagged exact.
        sv = LpBall(dim=2, p=p, radius=0.25).support(np.array(v))
        assert sv.value == pytest.approx(want, rel=1e-15) and sv.exact
        assert float(sv.point @ (np.array(v) * 2.0**-1000)) == pytest.approx(
            sv.value * 2.0**-1000, rel=1e-15
        )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("dim", [2, 20], ids=["narrow", "wide"])
    def test_membership_where_the_row_sum_overflows(self, p, dim):
        # An overflowed sum of nonnegative terms is inf, outside the ball.
        ball = LpBall(dim=dim, p=p, radius=1e100)
        pts = np.full((2, dim), 1e308)
        pts[1] = 1e90 / dim
        np.testing.assert_array_equal(ball.contains_batch(pts), [False, True])

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_support_of_a_tiny_direction_attains_its_value(self, p):
        # The dual sum underflows at p = 2; no division by it may warn.
        v = np.array([1e-200, 0.0])
        sv = LpBall(dim=2, p=p, radius=1.0).support(v)
        assert sv.value == pytest.approx(1e-200, rel=1e-13, abs=0.0)
        assert np.all(np.isfinite(sv.point))
        assert float(sv.point @ v) == pytest.approx(sv.value, rel=1e-12)

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_only_overflowing_rows_are_rescaled(self, p):
        rng = np.random.default_rng(5)
        a = np.abs(rng.standard_normal((64, 9)))
        a[3] *= 1e250
        a[10, 0] = math.inf
        a[11, 2] = math.nan
        with np.errstate(over="ignore"):
            plain = np.sum(a**p, axis=-1) ** (1.0 / p)
        got = _lp_norm(a, p)
        kept = np.arange(64) != 3
        assert got[kept].tobytes() == plain[kept].tobytes()
        with mpmath.workdps(60):
            want = mpmath.fsum(mpmath.mpf(float(x)) ** p for x in a[3]) ** (1 / mpmath.mpf(p))
        assert got[3] == pytest.approx(float(want), rel=1e-13)

    @pytest.mark.parametrize("p", [1.0, 1.0001, 1.5, 2.0, 3.0, 1000.0, 2000.0, math.inf])
    def test_support_point_attains(self, p):
        ball = LpBall(dim=3, p=p, radius=1.7)
        rng = np.random.default_rng(31)
        for _ in range(20):
            v = rng.standard_normal(3)
            point = ball.support_point(v)
            assert ball.contains(point * (1.0 - 1e-12))
            assert float(point @ v) == pytest.approx(ball.support(v).value, rel=1e-10)

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            LpBall(dim=2, p=0.5, radius=1.0)
        with pytest.raises(DomainError):
            LpBall(dim=2, p=2.0, radius=0.0)
        with pytest.raises(ShapeError):
            LpBall(dim=0, p=2.0, radius=1.0)
        with pytest.raises(ShapeError, match="got True$"):
            LpBall(dim=True, p=2.0, radius=1.0)


class TestEllipsoid:
    def test_semi_axes(self):
        # {x : x1^2/4 + x2^2/9 <= 1} has semi-axes 2 and 3.
        body = Ellipsoid(quadratic=build_covariance(np.diag([0.25, 1.0 / 9.0])))
        assert body.support(np.array([1.0, 0.0])).value == pytest.approx(2.0, rel=1e-12)
        assert body.support(np.array([0.0, 1.0])).value == pytest.approx(3.0, rel=1e-12)
        assert body.contains(np.array([2.0, 0.0]))
        assert not body.contains(np.array([2.0001, 0.0]))

    def test_support_point_attains(self):
        body = Ellipsoid(quadratic=build_covariance(np.array([[1.0, 0.3], [0.3, 2.0]])))
        rng = np.random.default_rng(37)
        for _ in range(20):
            v = rng.standard_normal(2)
            point = body.support_point(v)
            assert body.contains(point * (1.0 - 1e-12))
            assert float(point @ v) == pytest.approx(body.support(v).value, rel=1e-10)

    @pytest.mark.parametrize("x", [[1.5e308, 1.5e308], [math.inf, 0.0]])
    def test_membership_past_the_double_range(self, x):
        # The product overflows, or the form is inf * 0 = NaN: outside,
        # with no warning.
        body = Ellipsoid(build_covariance([[2.0, 1.0], [1.0, 2.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert body.contains(np.array(x)) is False


class TestHPolytope:
    def test_box_matches_linf_ball(self):
        box = HPolytope(normals=np.eye(3), offsets=np.array([1.0, 1.0, 1.0]))
        ball = LpBall(dim=3, p=math.inf, radius=1.0)
        rng = np.random.default_rng(41)
        pts = rng.uniform(-1.5, 1.5, size=(200, 3))
        np.testing.assert_array_equal(box.contains_batch(pts), ball.contains_batch(pts))
        for _ in range(20):
            v = rng.standard_normal(3)
            assert box.support(v).value == pytest.approx(
                ball.support(v).value, rel=1e-9, abs=1e-9
            )

    def test_support_point_is_vertex(self):
        box = HPolytope(normals=np.eye(2), offsets=np.array([1.0, 2.0]))
        point = box.support_point(np.array([1.0, -1.0]))
        np.testing.assert_allclose(point, [1.0, -2.0], atol=1e-9)

    def test_tiny_offsets_give_a_point_inside(self):
        # With absolute LP tolerances, ratio ties at offsets near 2^-45
        # picked a vertex outside the body and a value too large.
        normals = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
        body = HPolytope(normals, np.ldexp([1.0, 1.0, 1.5, 1.5], -45))
        sv = body.support(np.array([1.0, 1.0]))
        assert sv.value == math.ldexp(1.5, -45)
        assert body.contains(sv.point)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "normals, x, inside",
        [
            ([[1, 1]], [1.5e308, 1.5e308], False),
            # Every term overflows, and the exact product is 0.
            ([[1.0, 1.0, -2.0]], [1.2e308] * 3, True),
        ],
        ids=["overflow", "cancelling"],
    )
    def test_membership_past_the_double_range(self, normals, x, inside):
        body = HPolytope(normals, [1.0])
        assert body.contains(np.array(x)) is inside

    def test_validation(self):
        with pytest.raises(DomainError):
            HPolytope(normals=np.eye(2), offsets=np.array([1.0, -1.0]))
        with pytest.raises(DomainError):
            HPolytope(normals=np.eye(2), offsets=np.array([1.0, 0.0]))
        with pytest.raises(ShapeError):
            HPolytope(normals=np.array([[1.0, 0.0], [0.0, 0.0]]), offsets=np.ones(2))
        with pytest.raises(ShapeError):
            HPolytope(normals=np.eye(2), offsets=np.ones(3))


class TestIntersection:
    def test_membership_is_conjunction(self):
        ball = LpBall(dim=2, p=2.0, radius=2.0)
        box = LpBall(dim=2, p=math.inf, radius=1.5)
        both = Intersection(parts=(ball, box))
        pts = np.array([[1.9, 0.0], [1.4, 1.4], [1.2, 1.2]])
        want = ball.contains_batch(pts) & box.contains_batch(pts)
        np.testing.assert_array_equal(both.contains_batch(pts), want)

    def test_support_is_min_and_flagged(self):
        both = Intersection(
            parts=(LpBall(dim=2, p=2.0, radius=2.0), LpBall(dim=2, p=math.inf, radius=1.5))
        )
        sv = both.support(np.array([1.0, 0.0]))
        assert sv.value == pytest.approx(1.5)
        assert not sv.exact
        assert sv.exactness == "upper_bound"

    def test_single_part_stays_exact(self):
        single = Intersection(parts=(LpBall(dim=2, p=2.0, radius=2.0),))
        sv = single.support(np.array([1.0, 0.0]))
        assert sv.value == pytest.approx(2.0)
        assert sv.exact

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ShapeError):
            Intersection(parts=(LpBall(dim=2, p=2.0, radius=1.0), LpBall(dim=3, p=2.0, radius=1.0)))


class TestLinearImage:
    def test_membership_through_inverse(self):
        image = LinearImage(base=LpBall(dim=2, p=2.0, radius=1.0), matrix=np.diag([2.0, 0.5]))
        assert image.contains(np.array([1.9, 0.0]))
        assert not image.contains(np.array([0.0, 0.51]))

    def test_adjoint_law(self):
        rng = np.random.default_rng(43)
        base = LpBall(dim=3, p=1.0, radius=1.3)
        for _ in range(20):
            matrix = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
            image = LinearImage(base=base, matrix=matrix)
            v = rng.standard_normal(3)
            want = base.support(matrix.T @ v).value
            assert image.support(v).value == pytest.approx(want, rel=1e-10)

    def test_transform_flattens_composition(self):
        base = LpBall(dim=2, p=2.0, radius=1.0)
        once = transform(base, np.diag([2.0, 1.0]))
        twice = transform(once, np.diag([1.0, 3.0]))
        assert isinstance(twice, LinearImage)
        assert twice.base is base  # not a LinearImage of a LinearImage
        np.testing.assert_allclose(twice.matrix, np.diag([2.0, 3.0]))

    def test_support_point_maps_through(self):
        matrix = np.array([[2.0, 1.0], [0.0, 1.0]])
        image = LinearImage(base=LpBall(dim=2, p=2.0, radius=1.0), matrix=matrix)
        v = np.array([1.0, 0.5])
        point = image.support_point(v)
        assert image.contains(point * (1.0 - 1e-12))
        assert float(point @ v) == pytest.approx(image.support(v).value, rel=1e-10)

    def test_rejects_singular_matrix(self):
        with pytest.raises(DefinitenessError):
            LinearImage(base=LpBall(dim=2, p=2.0, radius=1.0), matrix=np.ones((2, 2)))

    @pytest.mark.filterwarnings("error")
    def test_support_where_the_image_direction_overflows(self):
        # matrix.T @ v overflows; the value, 4e308, is +inf in doubles.
        image = LinearImage(Slab(Direction.axis(2), 1.0), np.diag([4.0, 1.0]))
        sv = image.support(np.array([1e308, 0.0]))
        assert (sv.value, sv.exact) == (math.inf, True)
        np.testing.assert_array_equal(sv.point, [4.0, 0.0])
        # Below the range edge it keeps the unscaled value.
        assert image.support(np.array([1e307, 0.0])).value == 4e307

    @pytest.mark.filterwarnings("error")
    def test_membership_where_the_image_point_overflows(self):
        # p @ inverse.T reads (6e308, 0): +inf, outside the slab, and no
        # overflow warning.  In range the product keeps its verdict.
        image = LinearImage(Slab(Direction.axis(2), 1.0), np.diag([0.25, 1.0]))
        assert not image.contains(np.array([1.5e308, 0.0]))
        assert image.contains(np.array([0.25, 0.0]))

    @pytest.mark.filterwarnings("error")
    def test_bounded_base_refuses_an_image_point_past_the_range(self):
        # The image point (0.5, 1e310) lies outside the unit l2 ball.
        image = LinearImage(LpBall(dim=2, p=2.0, radius=1.0), np.diag([1.0, 1e-10]))
        assert not image.contains(np.array([0.5, 1e300]))
        assert image.contains(np.array([0.5, 1e-11]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "base",
        [Slab(Direction.axis(2), 1.0), HPolytope(normals=[[1.0, 0.0]], offsets=[1.0])],
        ids=["slab", "h_polytope"],
    )
    def test_unbounded_base_decides_an_image_point_past_the_range(self, base):
        # The image point (0.5, 1e310) lies in the base, (1.5, 1e310) does
        # not: the normal (1, 0) pulled back through L^-1 reads 0.5 and 1.5
        # where the image's own product reads inf * 0 = NaN.
        image = LinearImage(base, np.diag([1.0, 1e-10]))
        assert image.contains(np.array([0.5, 1e300]))
        assert not image.contains(np.array([1.5, 1e300]))
        got = image.contains_batch(np.array([[0.5, 1e300], [1.5, 1e300], [0.5, 1e9]]))
        assert got.tolist() == [True, False, True]

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeError):
            LinearImage(base=LpBall(dim=2, p=2.0, radius=1.0), matrix=np.eye(3))

    def test_inverse_is_not_an_argument(self):
        # The inverse is always computed from the matrix; passing one would
        # be silently ignored.
        with pytest.raises(TypeError):
            LinearImage(LpBall(dim=2, p=2.0, radius=1.0), np.eye(2), inverse=np.eye(2))


def _old_contains_batch(body, pts):
    """Membership as each kernel computed it before the column walks."""
    if isinstance(body, HPolytope):
        return np.all(np.abs(pts @ body.normals.T) <= body.offsets, axis=1)
    a = np.abs(pts)
    if math.isinf(body.p):
        return np.all(a <= body.radius, axis=1)
    if body.p == 1.0:
        return np.sum(a, axis=-1) <= body.radius
    return np.sum(a**body.p, axis=-1) ** (1.0 / body.p) <= body.radius


def _sqrt_bound(radius):
    """The largest double whose sqrt is <= radius, by bisection on the bits."""
    lo, hi = 0, int(np.float64(np.inf).view(np.int64))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if math.sqrt(float(np.int64(mid).view(np.float64))) <= radius:
            lo = mid
        else:
            hi = mid
    return lo


def _ulps_from(bits, steps):
    return np.array([np.int64(bits + k).view(np.float64) for k in steps])


def _parity_rows(dim, p, radius, rng):
    """Gaussian rows about half inside, rows whose row sum lands within a
    few ulps of the bound T, axis rows within ulps of the radius, and rows
    holding NaN, +-inf, 1e200 or 1e-200."""
    g = rng.standard_normal((600, dim))
    radius_bits = int(np.float64(radius).view(np.int64))
    if math.isinf(p):
        gauss = g * (radius / 1.6)
        norms = np.max(np.abs(g[:60]), axis=-1)
        bounds = _ulps_from(radius_bits, range(-6, 7))
    elif p == 1.0:
        gauss = g * (radius / (0.8 * dim))
        norms = np.sum(np.abs(g[:60]), axis=-1)
        bounds = _ulps_from(radius_bits, range(-6, 7))
    else:
        gauss = g * (radius / math.sqrt(dim))
        norms = np.sqrt(np.sum(g[:60] * g[:60], axis=-1))
        # Row norms whose squares sit near T.
        bounds = np.sqrt(_ulps_from(_sqrt_bound(radius), range(-6, 7)))
    near = (g[:60] / norms[:, None])[:, None, :] * bounds[None, :, None]
    axis = np.zeros((13, dim))
    axis[:, -1] = _ulps_from(radius_bits, range(-6, 7))
    special = gauss[:24].copy()
    for i, value in enumerate([math.nan, math.inf, -math.inf, 1e200, -1e200, 1e-200]):
        special[4 * i : 4 * i + 4, i % dim] = value
    return np.vstack([gauss, near.reshape(-1, dim), axis, -axis, special])


class TestMembershipKernels:
    """Every membership kernel gives the verdict of the expression it
    replaced, row for row: Gaussian rows, rows at the decision boundary,
    non-finite and huge coordinates, and radii whose bound leaves the
    range where row sums are compared against a band."""

    DIMS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 24, 32, 64)

    @pytest.mark.parametrize("scale", [1.0, 1e-160, 1e150])
    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf], ids=["l1", "l2", "linf"])
    @pytest.mark.parametrize("dim", DIMS)
    def test_lp_ball_matches_old_expression(self, dim, p, scale):
        radius = scale * (0.8 * dim if p == 1.0 else 1.6 if math.isinf(p) else math.sqrt(dim))
        ball = LpBall(dim=dim, p=p, radius=radius)
        rng = np.random.default_rng([dim, 0 if math.isinf(p) else int(p)])
        pts = _parity_rows(dim, p, radius, rng)
        # The old l2 sums underflow at 1e-160; the reference runs the old
        # expression on the problem scaled by 2^600, which is exact.
        up = 2.0**600 if p == 2.0 and scale == 1e-160 else 1.0
        reference = LpBall(dim=dim, p=p, radius=radius * up)
        with np.errstate(over="ignore"):  # 1e200 squared overflows in both
            got = ball.contains_batch(pts)
            np.testing.assert_array_equal(got, _old_contains_batch(reference, pts * up))
            # In Fortran order numpy sums wide rows in another order, so
            # the old verdicts themselves move; the kernel must follow them.
            fortran = np.asfortranarray(pts)
            np.testing.assert_array_equal(
                ball.contains_batch(fortran), _old_contains_batch(reference, fortran * up)
            )
        # The boundary rows fall on both sides.
        assert 0 < np.count_nonzero(got) < len(got)

    @pytest.mark.parametrize("rows", [1, 8, 9, 24, 64])
    @pytest.mark.parametrize("dim", DIMS)
    def test_h_polytope_matches_old_expression(self, dim, rows):
        rng = np.random.default_rng([dim, rows])
        normals = rng.standard_normal((rows, dim))
        pts = rng.standard_normal((500, dim))
        pts[1:5, 0] = [math.nan, math.inf, -math.inf, 1e200]
        # Offsets taken from row 0 put it on the boundary of every face.
        polytope = HPolytope(normals=normals, offsets=np.abs(pts @ normals.T)[0])
        got = polytope.contains_batch(pts)
        np.testing.assert_array_equal(got, _old_contains_batch(polytope, pts))
        assert got[0] and not got[1:5].any()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rows", [1, 65536])
    def test_h_polytope_rows_past_the_double_range(self, rows):
        # Only rows whose product overflows on finite coordinates are
        # redone: in-range rows and an inf row keep the old verdict.
        dim = 16
        rng = np.random.default_rng(rows)
        normals = rng.standard_normal((4, dim))
        normals[:, :3] = 0.0
        normals[0] = 0.0
        normals[0, :3] = [1.0, 1.0, -2.0]
        pts = rng.standard_normal((rows + 3, dim))
        pts[-3] = 0.0
        pts[-3, :3] = 1.2e308  # every term of face 0 overflows; its product is 0
        pts[-2, :2] = 1.5e308  # face 0 is past the range
        pts[-1, 0] = math.inf
        polytope = HPolytope(normals=normals, offsets=np.full(4, 3.0))
        got = polytope.contains_batch(pts)
        with np.errstate(over="ignore", invalid="ignore"):
            old = _old_contains_batch(polytope, pts)
        np.testing.assert_array_equal(got[:-3], old[:-3])
        assert got[-3] and not got[-2] and not got[-1]

    @pytest.mark.parametrize("p", [1.0, 2.0], ids=["l1", "l2"])
    @pytest.mark.parametrize("dim", [20, 64])
    def test_rows_off_the_band_skip_the_norm(self, monkeypatch, dim, p):
        # Rows whose norm is at most R/2 or in [2R, 3R] are decided by their
        # row sum alone, at every width; a row on the sphere takes the norm.
        calls = []

        def counted(a, q):
            calls.append(a.shape)
            return _lp_norm(a, q)

        monkeypatch.setattr("shiftbounds.bodies._lp_norm", counted)
        radius = 1.5
        ball = LpBall(dim=dim, p=p, radius=radius)
        rng = np.random.default_rng([dim, int(p)])
        g = rng.standard_normal((1000, dim))
        units = g / _lp_norm(np.abs(g), p)[:, None]
        norms = np.concatenate([
            rng.uniform(0.0, 0.5 * radius, 500), rng.uniform(2.0 * radius, 3.0 * radius, 500)
        ])
        np.testing.assert_array_equal(ball.contains_batch(units * norms[:, None]), norms <= radius)
        assert calls == []
        ball.contains(radius * units[0])
        assert len(calls) == 1

    @pytest.mark.parametrize("radius", [1e-160, 1e150])
    def test_extreme_l2_radius_takes_the_plain_expression(self, radius):
        ball = LpBall(dim=3, p=2.0, radius=radius)
        assert ball._band is None
        assert LpBall(dim=3, p=2.0, radius=1.0)._band is not None


class TestSupportProperties:
    """Contracts every variant must satisfy, probed with seeded directions."""

    @pytest.mark.parametrize("name", sorted(sample_bodies()))
    def test_symmetry(self, name):
        body = sample_bodies()[name]
        rng = np.random.default_rng(47)
        for _ in range(25):
            v = rng.standard_normal(body.dim)
            a = body.support(v).value
            b = body.support(-v).value
            if math.isinf(a) or math.isinf(b):
                assert a == b
            else:
                assert a == pytest.approx(b, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("name", sorted(sample_bodies()))
    def test_positive_homogeneity(self, name):
        body = sample_bodies()[name]
        rng = np.random.default_rng(53)
        for _ in range(25):
            v = rng.standard_normal(body.dim)
            c = float(rng.uniform(0.1, 10.0))
            a = body.support(v).value
            b = body.support(c * v).value
            if math.isinf(a):
                assert math.isinf(b)
            else:
                assert b == pytest.approx(c * a, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("k", [-700, -40, 40, 700])
    @pytest.mark.parametrize("name", ["slab", "ellipsoid", "h_polytope", "slab_image"])
    def test_power_of_two_scales_are_exact(self, name, k):
        # delta*(2^k v) = 2^k delta*(v) bit for bit, where the squares and
        # the LP tolerances of 2^k v would under- or overflow.
        slab = sample_bodies()["slab"]
        bodies = {**sample_bodies(), "slab_image": LinearImage(slab, [[2.0, 0.5], [0.0, 1.0]])}
        body = bodies[name]
        rng = np.random.default_rng(67)
        directions = [*rng.standard_normal((10, 2)), -1.3 * slab.normal.entries]
        if name == "slab_image":
            directions.append(np.linalg.solve(body.matrix.T, slab.normal.entries))
        for v in directions:
            sv = body.support(v)
            scaled = body.support(np.ldexp(v, k))
            assert (scaled.value, scaled.exact) == (math.ldexp(sv.value, k), sv.exact)
            if sv.point is None:
                assert scaled.point is None
            else:
                assert np.array_equal(scaled.point, sv.point)

    @pytest.mark.parametrize("name", sorted(sample_bodies()))
    def test_support_carries_its_attaining_point(self, name):
        body = sample_bodies()[name]
        rng = np.random.default_rng(61)
        directions = [np.zeros(body.dim), *rng.standard_normal((25, body.dim))]
        if isinstance(body, Slab):
            directions.append(-1.3 * body.normal.entries)
        for v in directions:
            sv = body.support(v)
            point = body.support_point(v)
            if sv.point is None:
                assert point is None
                assert math.isinf(sv.value) or isinstance(body, Intersection)
                continue
            assert [x.hex() for x in sv.point.tolist()] == [x.hex() for x in point.tolist()]
            assert float(sv.point @ v) == pytest.approx(sv.value, rel=1e-10, abs=1e-12)

    def test_point_takes_no_part_in_equality(self):
        with_point = SupportValue(1.5, True, np.array([1.0, 0.5]))
        assert with_point == SupportValue(1.5, True)
        assert hash(with_point) == hash(SupportValue(1.5, True))
        assert with_point != SupportValue(1.5, False, np.array([1.0, 0.5]))

    @pytest.mark.parametrize("name", sorted(sample_bodies()))
    def test_membership_is_symmetric_and_midpoint_convex(self, name):
        # Every sample body has its boundary within a few units of the
        # origin, so points drawn at scale 1.5 land on both sides of it.
        body = sample_bodies()[name]
        pts = np.random.default_rng(3).standard_normal((2048, body.dim)) * 1.5
        inside = body.contains_batch(pts)
        assert 0 < inside.sum() < len(pts)
        np.testing.assert_array_equal(body.contains_batch(-pts), inside)
        members = pts[inside]
        half = len(members) // 2
        mids = 0.5 * (members[:half] + members[half : 2 * half])
        assert body.contains_batch(mids).all()


class TestCallerArrays:
    def test_constructors_copy_what_they_are_given(self):
        # A unit vector goes into Direction.from_vector as it is.
        v = np.array([0.6, 0.8])
        normals = np.array([[1.0, 0.0], [1.0, 1.0]])
        offsets = np.array([1.0, 2.0])
        matrix = np.array([[2.0, 0.5], [0.0, 1.0]])
        sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
        slab = Slab(normal=Direction.from_vector(v), halfwidth=1.0)
        poly = HPolytope(normals=normals, offsets=offsets)
        image = LinearImage(base=poly, matrix=matrix)
        ellipsoid = Ellipsoid(quadratic=build_covariance(sigma))
        callers = (v, normals, offsets, matrix, sigma)
        assert all(arr.flags.writeable for arr in callers)
        held = (slab.normal.entries, poly.normals, poly.offsets, image.matrix,
                ellipsoid.quadratic.matrix)
        assert not any(arr.flags.writeable for arr in held)
        w = np.array([0.3, -1.1])
        before = [body.support(w) for body in (slab, poly, image, ellipsoid)]
        for arr in callers:
            arr *= 3.0
        assert [body.support(w) for body in (slab, poly, image, ellipsoid)] == before
        assert slab.normal.entries.tolist() == [0.6, 0.8]
        assert poly.offsets.tolist() == [1.0, 2.0]


def sample_specs():
    """The JSON form of each body of sample_bodies(), written out."""
    return {
        "slab": {"kind": "slab", "normal": [1.0, 2.0], "halfwidth": 0.8},
        "l1": {"kind": "lp_ball", "dim": 2, "p": 1, "radius": 1.5},
        "l2": {"kind": "lp_ball", "dim": 2, "p": 2.0, "radius": 2.0},
        "l3": {"kind": "lp_ball", "dim": 2, "p": 3.0, "radius": 1.2},
        "linf": {"kind": "lp_ball", "dim": 2, "p": "inf", "radius": 1.0},
        "ellipsoid": {"kind": "ellipsoid", "matrix": [[0.5, 0.1], [0.1, 1.5]]},
        "h_polytope": {
            "kind": "h_polytope",
            "normals": [[1.0, 0.0], [0.5, 0.8660254037844386], [-0.5, 0.8660254037844386]],
            "offsets": [1.0, 1.0, 1.0],
        },
        "intersection": {
            "kind": "intersection",
            "parts": [
                {"kind": "lp_ball", "dim": 2, "p": 2.0, "radius": 2.0},
                {"kind": "lp_ball", "dim": 2, "p": "inf", "radius": 1.5},
            ],
        },
        "linear_image": {
            "kind": "linear_image",
            "base": {"kind": "lp_ball", "dim": 2, "p": 2.0, "radius": 1.0},
            "matrix": [[2.0, 0.5], [0.0, 1.0]],
        },
    }


class TestBodyGrammar:
    """body_from_dict against bodies built directly, and config error paths."""

    @pytest.mark.parametrize("name", sorted(sample_bodies()))
    def test_round_trip(self, name):
        # The spec read back is the body built directly: same membership,
        # same support values, flags and points.
        body = sample_bodies()[name]
        rebuilt = body_from_dict(json.loads(json.dumps(sample_specs()[name])))
        assert type(rebuilt) is type(body)
        rng = np.random.default_rng(59)
        pts = rng.standard_normal((200, body.dim)) * 1.5
        np.testing.assert_array_equal(
            rebuilt.contains_batch(pts), body.contains_batch(pts)
        )
        for v in rng.standard_normal((8, body.dim)):
            got, want = rebuilt.support(v), body.support(v)
            assert got == want
            if want.point is None:
                assert got.point is None
            else:
                np.testing.assert_array_equal(got.point, want.point)

    def test_lp_ball_inf_exponent_round_trip(self):
        body = body_from_dict({"kind": "lp_ball", "dim": 2, "p": "inf", "radius": 1.0})
        assert isinstance(body, LpBall) and math.isinf(body.p)

    def test_error_paths_name_the_field(self):
        with pytest.raises(ConfigError, match=r"body\.kind"):
            body_from_dict({"halfwidth": 1.0})
        with pytest.raises(ConfigError, match=r"body\.kind"):
            body_from_dict({"kind": "donut"})
        with pytest.raises(ConfigError, match=r"body\.halfwidth"):
            body_from_dict({"kind": "slab", "normal": [1.0, 0.0], "halfwidth": "wide"})
        with pytest.raises(ConfigError, match=r"body\.parts\[1\]"):
            body_from_dict(
                {
                    "kind": "intersection",
                    "parts": [
                        {"kind": "lp_ball", "dim": 2, "p": 2.0, "radius": 1.0},
                        {"kind": "nope"},
                    ],
                }
            )
        with pytest.raises(ConfigError, match=r"body\.base"):
            body_from_dict({"kind": "linear_image", "matrix": [[1.0, 0.0], [0.0, 1.0]]})
        with pytest.raises(ConfigError):
            body_from_dict(["not", "a", "dict"])

    def test_domain_errors_become_config_errors(self):
        with pytest.raises(ConfigError, match="halfwidth"):
            body_from_dict({"kind": "slab", "normal": [1.0, 0.0], "halfwidth": -1.0})
        with pytest.raises(ConfigError):
            body_from_dict(
                {"kind": "h_polytope", "normals": [[1.0, 0.0]], "offsets": [-1.0]}
            )
        with pytest.raises(ConfigError):
            body_from_dict({"kind": "ellipsoid", "matrix": [[1.0, 2.0], [2.0, 1.0]]})

    @pytest.mark.parametrize("bad", [True, "1"], ids=["bool", "string"])
    @pytest.mark.parametrize(
        "where, data",
        [
            ("normal: [1]", {"kind": "slab", "normal": [1.0, "BAD"], "halfwidth": 1.0}),
            ("normals: [1][1]", {"kind": "h_polytope", "normals": [[1.0, 0.0], [0.0, "BAD"]],
                                 "offsets": [1.0, 1.0]}),
            ("offsets: [0]", {"kind": "h_polytope", "normals": [[1.0, 0.0]], "offsets": ["BAD"]}),
            ("matrix: [1][1]", {"kind": "ellipsoid", "matrix": [[1.0, 0.0], [0.0, "BAD"]]}),
            ("matrix: [1][1]", {"kind": "linear_image",
                                "base": {"kind": "lp_ball", "dim": 2, "p": 2.0, "radius": 1.0},
                                "matrix": [[1.0, 0.0], [0.0, "BAD"]]}),
        ],
        ids=["slab_normal", "h_polytope_normals", "h_polytope_offsets", "ellipsoid_matrix",
             "linear_image_matrix"],
    )
    def test_entries_must_be_json_numbers(self, where, data, bad):
        # A boolean or a numeric string is not a JSON number, even where
        # float() would take it.
        data = json.loads(json.dumps(data).replace('"BAD"', json.dumps(bad)))
        with pytest.raises(ConfigError) as exc:
            body_from_dict(data)
        assert str(exc.value) == f"body.{where}: expected a number, got {bad!r}"
