"""Dense symmetric matrix core: covariance factorizations and directions.

Dimensions are small (hard cap MAX_DIM = 64), so everything is dense and
unblocked.  The eigensolver is a cyclic Jacobi iteration, swept on the
matrix scaled by a power of two to unit size so that its norms neither
over- nor underflow anywhere in the double range; the Cholesky is the
textbook unblocked algorithm with an explicit pivot floor.  Both are
deliberately simple enough to audit line by line, and the test suite
cross-checks them against numpy routines.

A `Covariance` computes its Cholesky factor and symmetric square root /
inverse square root at construction, and its inverse on first read (the
bounds need only solves).  All cached arrays are read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

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


def check_dim(dim: object, what: str) -> None:
    """Refuse a dim that is not an int (bools are not) in [1, MAX_DIM]."""
    if isinstance(dim, bool) or not isinstance(dim, int) or not 1 <= dim <= MAX_DIM:
        raise ShapeError(f"{what} dim must be an int in [1, {MAX_DIM}], got {dim!r}")


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
    # m is finite (see _as_square_matrix), but entries near the float limit
    # overflow m - m.T and m + m.T.  An inf asymmetry is refused as one;
    # where m + m.T overflows, the halves are added instead, which cannot
    # overflow, and every other entry keeps the bits of 0.5 * (m + m.T).
    with np.errstate(over="ignore"):
        scale = float(np.max(np.abs(m)))
        asym = float(np.max(np.abs(m - m.T)))
        if asym > SYMMETRY_RTOL * scale:
            raise ShapeError(
                f"{what} is not symmetric (max asymmetry {asym:.3e} "
                f"vs scale {scale:.3e})"
            )
        sym = 0.5 * (m + m.T)
    return np.where(np.isfinite(sym), sym, 0.5 * m + 0.5 * m.T)


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
    # Rotations are scale-free: sweep at unit scale, where the norms below
    # neither over- nor underflow, and scale the eigenvalues back.
    a, k = unit_scale(s)
    v = np.eye(n)
    frob = float(np.linalg.norm(a))
    if n == 1 or frob == 0.0:
        order = np.argsort(np.diag(s))
        return np.diag(s)[order].copy(), v[:, order].copy()
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
    with np.errstate(over="ignore"):  # an eigenvalue past the largest double is inf
        w = np.ldexp(np.diag(a), -k)
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


def unit_scale(x: np.ndarray) -> tuple[np.ndarray, int]:
    """(x * 2^k, k) with the largest |x_i| * 2^k in [1, 2); k = 0 for x = 0.

    Scaling by a power of two commutes with rounding, so a positively
    homogeneous computation on x * 2^k, scaled back by :func:`unscale`,
    keeps the bits it has on x wherever no step leaves the normal range,
    and tiny or huge x no longer under- or overflow on the way.
    """
    top = float(np.max(np.abs(x)))
    k = 1 - math.frexp(top)[1] if top > 0.0 else 0
    return np.ldexp(x, k), k


def unscale(value: float, k: int) -> float:
    """value * 2^-k, +-inf past the largest double."""
    try:
        return math.ldexp(value, -k)
    except OverflowError:
        return math.copysign(math.inf, value)


@dataclass(frozen=True)
class Covariance:
    """A validated SPD covariance with its factorizations.

    The Cholesky factor and the symmetric square roots are computed at
    construction; the inverse is built on first read.  Construct through
    :func:`build_covariance`; the raw constructor trusts its arguments.
    """

    matrix: np.ndarray
    chol: np.ndarray
    sqrt: np.ndarray
    inv_sqrt: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def _forward(self, vec: np.ndarray) -> np.ndarray:
        """L^{-1} @ vec for the Cholesky factor L, refusing a wrong length or inf/NaN.

        Row by row, one dot product and one division each: LAPACK's
        unblocked lower solve on a C-ordered factor, with its bits.  Past
        the largest double the entries turn inf or NaN without a warning.
        """
        b = np.asarray(vec, dtype=float)
        if b.shape != (self.dim,):
            raise ShapeError(f"expected a vector of length {self.dim}, got shape {b.shape}")
        if not np.all(np.isfinite(b)):
            raise DomainError("vector to solve against contains non-finite entries")
        low = self.chol
        y = np.empty_like(b)
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(b.size):
                y[i] = (b[i] - low[i, :i] @ y[:i]) / low[i, i]
        return y

    def solve(self, vec: np.ndarray) -> np.ndarray:
        """Sigma^{-1} @ vec via the Cholesky factor (two triangular solves).

        The back step is an LU solve of the upper-triangular L^T, which
        neither pivots nor changes it: its one-vector solve is LAPACK's
        upper triangular solve, bit for bit.  A vector whose forward
        step leaves the double range is refused.
        """
        y = self._forward(vec)
        if not np.all(np.isfinite(y)):
            raise DomainError("vector too large to solve against: L^{-1} vec overflowed")
        return np.linalg.solve(self.chol.T, y)

    def quad_form_inv(self, vec: np.ndarray) -> float:
        """<vec, Sigma^{-1} vec> as ||L^{-1} vec||^2: nonnegative, +inf past the largest double.

        A NaN in L^{-1} vec comes only from inf - inf or 0 * inf after an
        entry overflowed, so it reads +inf as well.
        """
        y = self._forward(vec)
        with np.errstate(over="ignore"):
            q = float(y @ y)
        return math.inf if math.isnan(q) else q

    @cached_property
    def inverse(self) -> np.ndarray:
        """Sigma^{-1}, one solve per column, symmetrized to drop solve roundoff."""
        cols = np.column_stack([self.solve(e) for e in np.eye(self.dim)])
        return readonly_copy(0.5 * (cols + cols.T))

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
    return Covariance(
        matrix=readonly_copy(s),
        chol=readonly_copy(chol),
        sqrt=readonly_copy(0.5 * (sqrt_s + sqrt_s.T)),
        inv_sqrt=readonly_copy(0.5 * (inv_sqrt_s + inv_sqrt_s.T)),
    )


def identity_covariance(dim: int) -> Covariance:
    """Covariance for the standard Gaussian; all factors exactly the identity."""
    check_dim(dim, "identity")
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
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(e))
        if e.any() and not 2.0**-1022 <= norm < np.inf:  # the squares under/overflowed
            e = e / np.max(np.abs(e))  # whose norm lies in [1, sqrt(dim)]
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
        check_dim(dim, "axis")
        if isinstance(index, bool) or not isinstance(index, int) or not 0 <= index < dim:
            raise ShapeError(f"axis index must be an int in [0, {dim}), got {index!r}")
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
