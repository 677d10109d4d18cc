"""Matrix core tests: factorization residuals and the covariance contracts."""

import numpy as np
import pytest

from shiftbounds import (
    Covariance,
    DefinitenessError,
    Direction,
    DomainError,
    ShapeError,
    build_covariance,
    identity_covariance,
    mahalanobis_norm,
)
from shiftbounds.linalg import MAX_DIM, cholesky_lower, sym_eigen


def random_spd(rng, n, ridge=0.1):
    a = rng.standard_normal((n, n))
    return a.T @ a + ridge * np.eye(n)


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

    def test_rejects_asymmetric(self):
        with pytest.raises(ShapeError):
            sym_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ShapeError):
            sym_eigen(np.ones((2, 3)))

    @pytest.mark.parametrize(
        "m", [[[1.0, 1e308], [1e308, 1.0]], [[1e308, 0.0], [0.0, 1.0]]],
        ids=["off-diagonal", "diagonal"],
    )
    def test_rejects_overflow_when_symmetrizing(self, m):
        # m + m.T overflows to inf; an inf matrix would pass the
        # convergence test at once and return wrong eigenpairs.
        with pytest.raises(ShapeError, match="non-finite entries after symmetrizing"):
            sym_eigen(np.array(m))


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

    def test_identity_is_exact(self):
        cov = identity_covariance(4)
        assert cov.is_identity()
        assert np.array_equal(cov.chol, np.eye(4))
        assert np.array_equal(cov.inv_sqrt, np.eye(4))
        assert not build_covariance(np.diag([1.0, 2.0])).is_identity()

    def test_cached_arrays_are_readonly(self):
        cov = identity_covariance(3)
        with pytest.raises(ValueError):
            cov.matrix[0, 0] = 5.0

    def test_rejects_eigenvalue_ratio_below_threshold(self):
        with pytest.raises(DefinitenessError):
            build_covariance(np.diag([1.0, 1e-12]))

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

    def test_rejects_non_unit(self):
        with pytest.raises(DomainError):
            Direction(entries=np.array([1.0, 1.0]))

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            Direction.from_vector(np.zeros(3))

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            Direction.from_vector(np.array([1.0, np.nan]))


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
            inverse=cov.inverse,
            sqrt=cov.sqrt,
            inv_sqrt=np.asarray(2.0 * np.eye(2)),
        )
        from shiftbounds import NumericError

        with pytest.raises(NumericError):
            mahalanobis_norm(broken, Direction.axis(2))
