"""Matrix core tests: factorization residuals and the covariance contracts."""

import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from shiftbounds import (
    Covariance,
    DefinitenessError,
    Direction,
    DomainError,
    LpBall,
    ShapeError,
    build_covariance,
    identity_covariance,
    mahalanobis_norm,
    ratio_bounds_grid,
)
from shiftbounds.linalg import (
    MAX_DIM, _symmetric_matrix, cholesky_lower, readonly_copy, sym_eigen,
)


def random_spd(rng, n, ridge=0.1):
    a = rng.standard_normal((n, n))
    return a.T @ a + ridge * np.eye(n)


class TestSymmetricMatrix:
    """The one validator build_covariance runs before factorizing."""

    def test_rejects_asymmetric(self):
        with pytest.raises(ShapeError):
            _symmetric_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ShapeError):
            _symmetric_matrix(np.ones((2, 3)))

    @pytest.mark.parametrize(
        "m, want",
        [([[1.0, 1e308], [1e308, 1.0]], [-1e308, 1e308]),
         ([[1e308, 0.0], [0.0, 1.0]], [1.0, 1e308])],
        ids=["off-diagonal", "diagonal"],
    )
    def test_symmetrizes_where_the_sum_overflows(self, m, want):
        # m + m.T overflows to inf here, and these matrices were refused as
        # non-finite; the halves are added instead, so they keep their entries.
        s = _symmetric_matrix(np.array(m))
        np.testing.assert_array_equal(s, m)
        w, v = sym_eigen(s)
        np.testing.assert_allclose(w, want, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(np.array(m) @ v, v * w, rtol=0.0, atol=1e-15 * 1e308)


class TestSymEigen:
    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 6, 8):
            s = rng.standard_normal((n, n))
            s = 0.5 * (s + s.T)
            w, v = sym_eigen(s)
            scale = max(np.linalg.norm(s), 1.0)
            assert np.linalg.norm(s - (v * w) @ v.T) <= 1e-10 * scale
            assert np.linalg.norm(v.T @ v - np.eye(n)) <= 1e-10
            assert np.all(np.diff(w) >= 0)

    def test_matches_numpy(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            s = rng.standard_normal((n, n))
            s = 0.5 * (s + s.T)
            w, _ = sym_eigen(s)
            np.testing.assert_allclose(w, np.linalg.eigvalsh(s), atol=1e-10)

    def test_diagonal_input(self):
        w, v = sym_eigen(np.diag([3.0, -1.0, 2.0]))
        np.testing.assert_allclose(w, [-1.0, 2.0, 3.0])
        np.testing.assert_allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]])

    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e155, 1e300])
    def test_eigenpairs_at_the_edges_of_the_double_range(self, scale):
        # The Frobenius norm under- or overflowed here, so the sweep stopped
        # before its first rotation and returned the diagonal, [2, 2] * scale.
        s = scale * np.array([[2.0, 1.0], [1.0, 2.0]])
        w, v = sym_eigen(s)
        np.testing.assert_allclose(w, [scale, 3.0 * scale], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(np.abs(v), np.full((2, 2), math.sqrt(0.5)), rtol=1e-12)
        # The Cholesky route of the Mahalanobis cross-check agrees again.
        cov = build_covariance(s)
        m = mahalanobis_norm(cov, Direction.from_vector(np.array([1.0, 1.0])))
        assert m * math.sqrt(scale) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-15)

    def test_indefinite_matrix_at_the_top_of_the_range(self):
        # Returning the diagonal read both eigenvalues as +1e300.
        w, _ = sym_eigen(1e300 * np.array([[1.0, 2.0], [2.0, 1.0]]))
        np.testing.assert_allclose(w, [-1e300, 3e300], rtol=1e-12, atol=0.0)


class TestCholeskyLower:
    def test_residual_and_triangularity(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            s = random_spd(rng, n)
            low = cholesky_lower(s)
            assert np.allclose(np.triu(low, 1), 0.0)
            assert np.linalg.norm(low @ low.T - s) <= 1e-10 * np.linalg.norm(s)
            np.testing.assert_allclose(low, np.linalg.cholesky(s), atol=1e-10)

    def test_rejects_indefinite(self):
        with pytest.raises(DefinitenessError):
            cholesky_lower(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_singular(self):
        with pytest.raises(DefinitenessError):
            cholesky_lower(np.array([[1.0, 1.0], [1.0, 1.0]]))


class TestBuildCovariance:
    """The residual contracts every downstream bound relies on."""

    def test_factor_residuals(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            s = random_spd(rng, n)
            cov = build_covariance(s)
            scale = np.linalg.norm(s)
            eye = np.eye(n)
            assert np.linalg.norm(cov.inv_sqrt @ s @ cov.inv_sqrt - eye) <= 1e-10
            assert np.linalg.norm(cov.chol @ cov.chol.T - s) <= 1e-10 * scale
            assert np.linalg.norm(cov.sqrt @ cov.sqrt - s) <= 1e-10 * scale
            assert np.linalg.norm(cov.matrix @ cov.inverse - eye) <= 1e-8

    def test_solve_residual(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            cov = build_covariance(random_spd(rng, n))
            b = rng.standard_normal(n)
            x = cov.solve(b)
            assert np.linalg.norm(cov.matrix @ x - b) <= 1e-10 * max(np.linalg.norm(b), 1.0)

    def test_quad_form_nonnegative(self):
        rng = np.random.default_rng(16)
        cov = build_covariance(random_spd(rng, 5))
        for _ in range(50):
            v = rng.standard_normal(5)
            q = cov.quad_form_inv(v)
            assert q >= 0.0
            assert q == pytest.approx(float(v @ cov.inverse @ v), rel=1e-10)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_solves_refuse_non_finite_vectors(self, bad):
        # scipy's solve_triangular raised an untyped ValueError here.
        cov = build_covariance(np.array([[2.0, 0.3], [0.3, 1.0]]))
        with pytest.raises(DomainError, match="non-finite"):
            cov.solve(np.array([bad, 0.0]))
        with pytest.raises(DomainError, match="non-finite"):
            cov.quad_form_inv(np.array([1.0, bad]))

    def test_quad_form_reads_inf_past_the_largest_double(self):
        # y @ y overflowed with a RuntimeWarning; on the diagonal factor the
        # forward step itself overflows and 0 * inf turns the next entry NaN.
        dense = build_covariance(np.array([[2.0, 0.3], [0.3, 1.0]]))
        assert dense.quad_form_inv(np.array([1e308, -1e308])) == math.inf
        tiny = build_covariance(np.diag([1e-300, 1e-300]))
        assert tiny.quad_form_inv(np.array([1e308, 1e308])) == math.inf
        # In range, the form keeps the bits of ||L^{-1} b||^2.
        b = np.array([1e150, -1e150])
        y = solve_triangular(dense.chol, b, lower=True)
        assert dense.quad_form_inv(b) == float(y @ y) < math.inf

    def test_solve_refuses_an_overflowing_forward_step(self):
        # scipy refused the NaNs of L^{-1} b here with an untyped ValueError.
        tiny = build_covariance(np.diag([1e-300, 1e-300]))
        with pytest.raises(DomainError, match="overflowed"):
            tiny.solve(np.array([1e308, 1e308]))

    def test_identity_is_exact(self):
        cov = identity_covariance(4)
        assert cov.is_identity()
        assert np.array_equal(cov.chol, np.eye(4))
        assert np.array_equal(cov.inv_sqrt, np.eye(4))
        assert not build_covariance(np.diag([1.0, 2.0])).is_identity()

    @pytest.mark.parametrize(
        "dim, value", [(True, "True"), (2.0, "2.0"), (-1, "-1"), (0, "0"), (MAX_DIM + 1, "65")]
    )
    def test_identity_refuses_malformed_dim(self, dim, value):
        # np.eye raised a bare TypeError or ValueError, or built a 0 x 0 matrix.
        with pytest.raises(ShapeError, match=f"got {value}$"):
            identity_covariance(dim)

    def test_cached_arrays_are_readonly(self):
        cov = identity_covariance(3)
        with pytest.raises(ValueError):
            cov.matrix[0, 0] = 5.0

    @pytest.mark.parametrize("n", [*range(1, 9), MAX_DIM])
    def test_inverse_is_the_two_solve_loop(self, n):
        cov = build_covariance(random_spd(np.random.default_rng(100 + n), n))
        assert "inverse" not in vars(cov)  # built on first read
        cols = np.empty((n, n))
        eye = np.eye(n)
        for j in range(n):
            y = solve_triangular(cov.chol, eye[:, j], lower=True)
            cols[:, j] = solve_triangular(cov.chol.T, y, lower=False)
        assert cov.inverse.tobytes() == (0.5 * (cols + cols.T)).tobytes()
        assert cov.inverse is cov.inverse

    @pytest.mark.parametrize("k", [-60, 0, 60])
    @pytest.mark.parametrize("n", range(1, MAX_DIM + 1))
    def test_solves_are_lapacks_to_the_bit(self, n, k):
        # Only the factor enters the solves: the raw constructor skips the
        # Jacobi sweeps of build_covariance, and the eigen factors are NaN.
        rng = np.random.default_rng(300 + n)
        s = np.ldexp(random_spd(rng, n), k)
        nan = np.full_like(s, np.nan)
        cov = Covariance(
            matrix=readonly_copy(s), chol=readonly_copy(cholesky_lower(s)), sqrt=nan, inv_sqrt=nan
        )
        for b in rng.standard_normal((4, n)):
            y = solve_triangular(cov.chol, b, lower=True)
            x = solve_triangular(cov.chol.T, y, lower=False)
            assert cov.solve(b).tobytes() == x.tobytes()
            assert np.float64(cov.quad_form_inv(b)).tobytes() == np.float64(y @ y).tobytes()

    def test_identity_inverse_is_exact_and_readonly(self):
        cov = identity_covariance(5)
        assert np.array_equal(cov.inverse, np.eye(5))
        with pytest.raises(ValueError):
            cov.inverse[0, 0] = 2.0
        with pytest.raises(AttributeError):
            cov.inverse = np.eye(5)

    def test_rejects_eigenvalue_ratio_below_threshold(self):
        with pytest.raises(DefinitenessError):
            build_covariance(np.diag([1.0, 1e-12]))

    def test_rejects_ill_conditioned_matrix_at_the_top_of_the_range(self):
        # 1e308 + 1e308 overflows; that read as non-finite (a ShapeError).
        with pytest.raises(DefinitenessError):
            build_covariance(np.diag([1e308, 1.0]))

    @pytest.mark.filterwarnings("error")
    def test_large_well_conditioned_matrix_builds(self):
        # Eigenvalue ratio 1/3, refused as non-finite while m + m.T overflowed.
        m = np.array([[1e308, 5e307], [5e307, 1e308]])
        cov = build_covariance(m)
        assert cov.matrix.tobytes() == m.tobytes()
        ball = LpBall(dim=2, p=2.0, radius=1e154)
        for entries in ([1.0, 0.0], [1.0, 1.0], [1.0, -2.0]):
            u = Direction.from_vector(np.array(entries))
            reports = ratio_bounds_grid(cov, ball, u, (0.0, 1e-154, 1e154))
            assert (reports[0].lower, reports[0].upper) == (1.0, 1.0)
            for report in reports:
                assert report.lower > 0.0
                assert math.isfinite(report.upper) and math.isfinite(report.exponent_a)

    def test_rejects_indefinite(self):
        with pytest.raises(DefinitenessError):
            build_covariance(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_asymmetric(self):
        m = np.eye(3)
        m[0, 1] = 1e-6
        with pytest.raises(ShapeError):
            build_covariance(m)

    def test_rejects_oversized(self):
        with pytest.raises(ShapeError):
            build_covariance(np.eye(MAX_DIM + 1))

    def test_rejects_nonfinite(self):
        m = np.eye(2)
        m[1, 1] = np.inf
        with pytest.raises(ShapeError):
            build_covariance(m)


class TestDirection:
    def test_normalization(self):
        u = Direction.from_vector(np.array([3.0, 4.0]))
        np.testing.assert_allclose(u.entries, [0.6, 0.8])
        assert u.dim == 2

    def test_axis(self):
        u = Direction.axis(3, 1)
        np.testing.assert_allclose(u.entries, [0.0, 1.0, 0.0])

    @pytest.mark.parametrize(
        "dim, index, value",
        [(2, 5, "5"), (2, 2, "2"), (2, -1, "-1"), (2, True, "True"), (2, 0.0, "0.0"),
         (0, 0, "0"), (MAX_DIM + 1, 0, str(MAX_DIM + 1)), (True, 0, "True"), (2.0, 0, "2.0")],
    )
    def test_axis_refuses_malformed_dim_and_index(self, dim, index, value):
        # A bare IndexError, or a negative index counting from the end,
        # used to pass for an axis.
        with pytest.raises(ShapeError, match=f"got {value}$"):
            Direction.axis(dim, index)

    def test_rejects_non_unit(self):
        with pytest.raises(DomainError):
            Direction(entries=np.array([1.0, 1.0]))

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            Direction.from_vector(np.zeros(3))

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            Direction.from_vector(np.array([1.0, np.nan]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [5e-324, 1e-200, 1e200, 1e308])
    def test_normalizes_past_the_range_of_squares(self, scale):
        u = Direction.from_vector(np.array([scale, -scale]))
        want = Direction.from_vector(np.array([1.0, -1.0]))
        assert u.entries.tobytes() == want.entries.tobytes()

    def test_keeps_the_bits_of_normal_vectors(self):
        rng = np.random.default_rng(3)
        for e in rng.standard_normal((50, 4)) * np.logspace(-150, 150, 50)[:, None]:
            u = Direction.from_vector(e)
            assert u.entries.tobytes() == (e / float(np.linalg.norm(e))).tobytes()


class TestMahalanobisNorm:
    def test_identity(self):
        assert mahalanobis_norm(identity_covariance(3), Direction.axis(3)) == pytest.approx(1.0)

    def test_diagonal_closed_form(self):
        cov = build_covariance(np.diag([4.0, 9.0]))
        assert mahalanobis_norm(cov, Direction.axis(2, 0)) == pytest.approx(0.5, rel=1e-12)
        assert mahalanobis_norm(cov, Direction.axis(2, 1)) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_two_routes_agree(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            cov = build_covariance(random_spd(rng, n))
            u = Direction.from_vector(rng.standard_normal(n))
            m = mahalanobis_norm(cov, u)
            assert m * m == pytest.approx(cov.quad_form_inv(u.entries), rel=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            mahalanobis_norm(identity_covariance(3), Direction.axis(2))

    def test_cross_check_detects_corruption(self):
        cov = identity_covariance(2)
        broken = Covariance(
            matrix=cov.matrix,
            chol=cov.chol,
            sqrt=cov.sqrt,
            inv_sqrt=np.asarray(2.0 * np.eye(2)),
        )
        from shiftbounds import NumericError

        with pytest.raises(NumericError):
            mahalanobis_norm(broken, Direction.axis(2))
