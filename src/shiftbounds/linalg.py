"""Dense symmetric matrix core: covariance factorizations and directions.

Dimensions are small (hard cap MAX_DIM = 64), so everything is dense and
unblocked.  The eigensolver is a cyclic Jacobi iteration and the Cholesky
is the textbook unblocked algorithm with an explicit pivot floor; both
are deliberately simple enough to audit line by line, and the test suite
cross-checks them against numpy routines.

A `Covariance` caches its Cholesky factor, inverse, and symmetric
square root / inverse square root, all computed once at construction.
All cached arrays are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .errors import DefinitenessError, DomainError, NumericError, ShapeError

MAX_DIM = 64

# Relative asymmetry above this is treated as malformed input rather than
# roundoff to be symmetrized away.
SYMMETRY_RTOL = 1e-12

# Eigenvalue ratio below this means numerically singular.
EIGEN_RATIO_MIN = 1e-10

# Internal agreement required between the two Mahalanobis routes.
_CROSS_CHECK_RTOL = 1e-10

_JACOBI_MAX_SWEEPS = 50
_JACOBI_TOL = 1e-14


def _as_square_matrix(matrix: np.ndarray, what: str) -> np.ndarray:
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"{what} must be a square matrix, got shape {m.shape}")
    n = m.shape[0]
    if n < 1:
        raise ShapeError(f"{what} must have dimension >= 1")
    if n > MAX_DIM:
        raise ShapeError(f"{what} dimension {n} exceeds MAX_DIM = {MAX_DIM}")
    if not np.all(np.isfinite(m)):
        raise ShapeError(f"{what} contains non-finite entries")
    return m


def _require_symmetric(m: np.ndarray, what: str) -> np.ndarray:
    # Entries near the float limit overflow m - m.T and m + m.T; the inf
    # that results is refused here, by the asymmetry test or the finite
    # check below, not raised as a warning or handed back.
    with np.errstate(over="ignore"):
        scale = float(np.max(np.abs(m))) if m.size else 0.0
        asym = float(np.max(np.abs(m - m.T))) if m.size else 0.0
        if scale > 0.0 and asym > SYMMETRY_RTOL * scale:
            raise ShapeError(
                f"{what} is not symmetric (max asymmetry {asym:.3e} "
                f"vs scale {scale:.3e})"
            )
        sym = 0.5 * (m + m.T)
    if not np.all(np.isfinite(sym)):
        raise ShapeError(f"{what} contains non-finite entries after symmetrizing")
    return sym


def _sign(x: float) -> float:
    return 1.0 if x >= 0.0 else -1.0


def sym_eigen(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues ascending, eigenvectors as columns) with
    S @ V = V @ diag(w) and V orthonormal to ~1e-14 * ||S||.  Raises
    NumericError if the off-diagonal norm has not collapsed after the
    sweep cap (does not happen for symmetric input at these sizes).
    """
    s = _require_symmetric(_as_square_matrix(matrix, "sym_eigen input"), "sym_eigen input")
    n = s.shape[0]
    a = s.copy()
    v = np.eye(n)
    frob = float(np.linalg.norm(s))
    if n == 1 or frob == 0.0:
        order = np.argsort(np.diag(a))
        return np.diag(a)[order].copy(), v[:, order].copy()
    for _ in range(_JACOBI_MAX_SWEEPS):
        off = float(np.sqrt(np.sum(np.tril(a, -1) ** 2) * 2.0))
        if off <= _JACOBI_TOL * frob:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    a[p, q] = a[q, p] = 0.0
                    continue
                theta = 0.5 * (a[q, q] - a[p, p]) / apq
                t = _sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                sn = t * c
                # Rotate rows/columns p and q of A and columns p, q of V.
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - sn * row_q
                a[q, :] = sn * row_p + c * row_q
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - sn * col_q
                a[:, q] = sn * col_p + c * col_q
                vcol_p = v[:, p].copy()
                v[:, p] = c * vcol_p - sn * v[:, q]
                v[:, q] = sn * vcol_p + c * v[:, q]
    else:
        raise NumericError("Jacobi eigensolver did not converge")
    w = np.diag(a).copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order].copy()


def cholesky_lower(matrix: np.ndarray) -> np.ndarray:
    """Unblocked lower Cholesky factor of a symmetric positive definite matrix.

    The pivot must exceed n * eps * max(diag); anything at or below that
    floor raises DefinitenessError (covers indefinite and numerically
    singular input in one test).
    """
    s = _require_symmetric(_as_square_matrix(matrix, "cholesky input"), "cholesky input")
    n = s.shape[0]
    max_diag = float(np.max(np.diag(s))) if n else 0.0
    pivot_floor = n * np.finfo(float).eps * max(max_diag, 0.0)
    low = np.zeros_like(s)
    for j in range(n):
        d = s[j, j] - low[j, :j] @ low[j, :j]
        if not d > pivot_floor:
            raise DefinitenessError(
                f"matrix is not positive definite (pivot {d:.3e} at column {j}, "
                f"floor {pivot_floor:.3e})"
            )
        low[j, j] = np.sqrt(d)
        if j + 1 < n:
            low[j + 1 :, j] = (s[j + 1 :, j] - low[j + 1 :, :j] @ low[j, :j]) / low[j, j]
    return low


def readonly_copy(arr: np.ndarray) -> np.ndarray:
    """A read-only C-ordered float copy; the caller's array stays as it was."""
    out = np.array(arr, dtype=float, order="C")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Covariance:
    """A validated SPD covariance with its factorizations precomputed.

    Construct through :func:`build_covariance`; the raw constructor
    trusts its arguments.
    """

    matrix: np.ndarray
    chol: np.ndarray
    inverse: np.ndarray
    sqrt: np.ndarray
    inv_sqrt: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def solve(self, vec: np.ndarray) -> np.ndarray:
        """Sigma^{-1} @ vec via the Cholesky factor (two triangular solves)."""
        b = np.asarray(vec, dtype=float)
        if b.shape != (self.dim,):
            raise ShapeError(f"solve expects a vector of length {self.dim}")
        y = solve_triangular(self.chol, b, lower=True)
        return solve_triangular(self.chol.T, y, lower=False)

    def quad_form_inv(self, vec: np.ndarray) -> float:
        """<vec, Sigma^{-1} vec> as ||L^{-1} vec||^2, nonnegative by construction."""
        b = np.asarray(vec, dtype=float)
        if b.shape != (self.dim,):
            raise ShapeError(f"quad_form_inv expects a vector of length {self.dim}")
        y = solve_triangular(self.chol, b, lower=True)
        return float(y @ y)

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.matrix, np.eye(self.dim)))


def build_covariance(matrix: np.ndarray) -> Covariance:
    """Validate and factorize a covariance matrix.

    Rejects non-square, non-finite, or asymmetric (beyond 1e-12 relative)
    input with ShapeError, and indefinite or numerically singular input
    (eigenvalue ratio below 1e-10, or a failed Cholesky pivot) with
    DefinitenessError.
    """
    s = _require_symmetric(_as_square_matrix(matrix, "covariance"), "covariance")
    chol = cholesky_lower(s)
    w, v = sym_eigen(s)
    w_min = float(w[0])
    w_max = float(w[-1])
    if w_min <= 0.0 or w_min < EIGEN_RATIO_MIN * w_max:
        raise DefinitenessError(
            f"covariance numerically singular (eigenvalue range "
            f"[{w_min:.3e}, {w_max:.3e}])"
        )
    sqrt_s = (v * np.sqrt(w)) @ v.T
    inv_sqrt_s = (v / np.sqrt(w)) @ v.T
    # Inverse through the Cholesky factor; symmetrize away solve roundoff.
    inv_cols = np.empty_like(s)
    eye = np.eye(s.shape[0])
    for j in range(s.shape[0]):
        y = solve_triangular(chol, eye[:, j], lower=True)
        inv_cols[:, j] = solve_triangular(chol.T, y, lower=False)
    inverse = 0.5 * (inv_cols + inv_cols.T)
    return Covariance(
        matrix=readonly_copy(s),
        chol=readonly_copy(chol),
        inverse=readonly_copy(inverse),
        sqrt=readonly_copy(0.5 * (sqrt_s + sqrt_s.T)),
        inv_sqrt=readonly_copy(0.5 * (inv_sqrt_s + inv_sqrt_s.T)),
    )


def identity_covariance(dim: int) -> Covariance:
    """Covariance for the standard Gaussian; all factors exactly the identity."""
    return build_covariance(np.eye(dim))


@dataclass(frozen=True)
class Direction:
    """A unit vector; the shift direction `u`.

    Use :meth:`from_vector` to normalize arbitrary nonzero input.
    """

    entries: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        e = np.asarray(self.entries, dtype=float)
        if e.ndim != 1 or e.size < 1:
            raise ShapeError(f"direction must be a nonempty vector, got shape {e.shape}")
        if e.size > MAX_DIM:
            raise ShapeError(f"direction dimension {e.size} exceeds MAX_DIM = {MAX_DIM}")
        if not np.all(np.isfinite(e)):
            raise DomainError("direction contains non-finite entries")
        norm = float(np.linalg.norm(e))
        if abs(norm - 1.0) > 1e-12:
            raise DomainError(
                f"direction must be unit length (||u|| = {norm!r}); "
                "use Direction.from_vector to normalize"
            )
        object.__setattr__(self, "entries", readonly_copy(e))

    @property
    def dim(self) -> int:
        return self.entries.size

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "Direction":
        e = np.asarray(vec, dtype=float)
        if e.ndim != 1 or e.size < 1:
            raise ShapeError(f"direction must be a nonempty vector, got shape {e.shape}")
        if not np.all(np.isfinite(e)):
            raise DomainError("direction contains non-finite entries")
        norm = float(np.linalg.norm(e))
        if norm == 0.0:
            raise DomainError("cannot normalize the zero vector into a direction")
        if abs(norm - 1.0) <= 1e-12:
            # Already unit within the constructor tolerance; dividing again
            # would shuffle the last ulp and break serialization round trips.
            return cls(entries=e)
        return cls(entries=e / norm)

    @classmethod
    def axis(cls, dim: int, index: int = 0) -> "Direction":
        e = np.zeros(dim)
        e[index] = 1.0
        return cls(entries=e)


def mahalanobis_norm(cov: Covariance, u: Direction) -> float:
    """||Sigma^{-1/2} u||, cross-checked against sqrt(<u, Sigma^{-1} u>).

    The two routes use independent factorizations (eigen square root vs
    Cholesky solve); disagreement beyond 1e-10 relative raises
    NumericError, which would indicate a corrupted factorization.
    """
    if u.dim != cov.dim:
        raise ShapeError(f"direction dim {u.dim} != covariance dim {cov.dim}")
    via_sqrt = float(np.linalg.norm(cov.inv_sqrt @ u.entries))
    via_solve = float(np.sqrt(cov.quad_form_inv(u.entries)))
    scale = max(via_sqrt, via_solve)
    if scale > 0.0 and abs(via_sqrt - via_solve) > _CROSS_CHECK_RTOL * scale:
        raise NumericError(
            f"Mahalanobis cross-check failed: {via_sqrt!r} vs {via_solve!r}"
        )
    return via_sqrt
