"""Dense tableau simplex for support-function LPs.

Solves   max c.x   subject to   A x <= b   with x free and b >= 0
(the origin is feasible; every polytope in this package contains 0 by
symmetry).  Free variables are split x = x+ - x-, slacks give the
starting basis, and Bland's rule picks pivots, so the iteration cannot
cycle.  Problems here have at most a few dozen rows, so a dense tableau
is the right tool; no sparse machinery.

An unbounded improving column corresponds exactly to a recession
direction of the polytope along which c increases, which is how the
support function reports +inf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, ShapeError
from .linalg import unit_scale, unscale

# Reduced costs below this are treated as nonpositive (optimality);
# pivots below it are treated as zero in the ratio test.  The objective
# and the right-hand side are scaled first, so the cost test and the
# ratio ties are relative to them.
_TOL = 1e-9

_ITER_FACTOR = 50


@dataclass(frozen=True)
class SimplexResult:
    """Outcome of a support LP: `status` is "optimal" or "unbounded"."""

    status: str
    value: float
    point: np.ndarray | None


def simplex_max(c: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray) -> SimplexResult:
    """Maximize c.x over {x : a_ub @ x <= b_ub} with all b_ub >= 0.

    Returns the optimal value and an attaining vertex, or status
    "unbounded" when an improving recession direction exists.  Raises
    NumericError if the Bland iteration somehow exceeds
    50 * (rows + dim) pivots (a safety cap, not an expected event).
    """
    c = np.asarray(c, dtype=float)
    a = np.asarray(a_ub, dtype=float)
    b = np.asarray(b_ub, dtype=float)
    if a.ndim != 2:
        raise ShapeError(f"constraint matrix must be 2-D, got shape {a.shape}")
    rows, dim = a.shape
    if c.shape != (dim,) or b.shape != (rows,):
        raise ShapeError(
            f"inconsistent LP shapes: A {a.shape}, c {c.shape}, b {b.shape}"
        )
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
        raise DomainError("LP data must be finite")
    if np.any(b < 0.0):
        raise DomainError("simplex_max requires b >= 0 (origin feasible)")
    if rows == 0:
        # No constraints: anything with c != 0 is unbounded.
        if np.all(c == 0.0):
            return SimplexResult("optimal", 0.0, np.zeros(dim))
        return SimplexResult("unbounded", np.inf, None)

    # Scale c and b by powers of two to put their largest entries in [1, 2).
    # Every tableau entry then scales exactly, and so do the value and x.
    c, kc = unit_scale(c)
    b, kb = unit_scale(b)

    # Standard form: y = [x+, x-] >= 0, G y + s = b.
    ncols = 2 * dim
    g = np.hstack([a, -a])
    obj = np.concatenate([c, -c])
    # Tableau: rows x (ncols + rows + 1); slack columns then RHS.
    tab = np.zeros((rows + 1, ncols + rows + 1))
    tab[:rows, :ncols] = g
    tab[:rows, ncols : ncols + rows] = np.eye(rows)
    tab[:rows, -1] = b
    tab[-1, :ncols] = -obj  # minimize -c.y convention in the bottom row
    basis = list(range(ncols, ncols + rows))

    max_iter = _ITER_FACTOR * (rows + dim)
    for _ in range(max_iter):
        # Bland: entering = lowest-index column with negative bottom-row cost.
        entering = -1
        for j in range(ncols + rows):
            if tab[-1, j] < -_TOL:
                entering = j
                break
        if entering < 0:
            break
        col = tab[:rows, entering]
        # Ratio test over strictly positive pivots; Bland tie-break on the
        # leaving basis variable index.
        best_ratio = np.inf
        leaving = -1
        for i in range(rows):
            if col[i] > _TOL:
                ratio = tab[i, -1] / col[i]
                if ratio < best_ratio - 1e-12 or (
                    abs(ratio - best_ratio) <= 1e-12
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            return SimplexResult("unbounded", np.inf, None)
        pivot = tab[leaving, entering]
        tab[leaving, :] /= pivot
        for i in range(rows + 1):
            if i != leaving and tab[i, entering] != 0.0:
                tab[i, :] -= tab[i, entering] * tab[leaving, :]
        basis[leaving] = entering
    else:
        raise NumericError(
            f"simplex exceeded {max_iter} Bland iterations "
            f"({rows} constraints, dim {dim})"
        )

    y = np.zeros(ncols + rows)
    for i, var in enumerate(basis):
        y[var] = tab[i, -1]
    x = y[:dim] - y[dim:ncols]
    with np.errstate(over="ignore"):
        return SimplexResult("optimal", unscale(float(c @ x), kc + kb), np.ldexp(x, -kb))
