"""Origin-symmetric convex bodies: membership, support functions, images.

Six variants share one small interface:

* ``contains_batch(points)``: vectorized membership (closed sets, <=).
* ``support(v)``: the support function sup_{x in A} <x, v> as a
  :class:`SupportValue`: one call gives the value, its exactness flag and
  a point attaining it, all from one evaluation (the Hoelder equality
  case, the ellipsoid solve, the LP vertex).  Slabs, p-balls, ellipsoids
  and H-polytopes are exact; intersections fall back to the min over
  parts, which is only an upper bound (flagged, with no point) unless the
  intersection is trivial.
* ``support_point(v)``: the point of ``support(v)``.

Support values may be +inf (slabs and degenerate polytopes are
unbounded); +inf is exact when the body really is unbounded along v.
Slabs, ellipsoids and H-polytopes evaluate at v scaled by a power of
two to unit size and scale the value back, so their support values are
exact at every finite scale: the value at 2^k v is 2^k times the value
at v, bit for bit, with the same flag and point.  p-balls keep their own
range handling (:func:`_lp_norm`), since pow does not scale exactly; they,
and linear images (L^T v may meet a p-ball), scale v only where the plain
evaluation overflows.

Linear images L(A) delegate everything through L: membership via
L^{-1} x, support via delta*(v | L A) = delta*(L^T v | A).

Every body the grammar builds is symmetric about the origin and convex
by construction, as the bound theory needs; a layered weight is any
positive mixture of such bodies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import lp
from .errors import ConfigError, DefinitenessError, DomainError, ShapeError
from .linalg import (
    MAX_DIM, Covariance, Direction, build_covariance, check_dim, readonly_copy, unit_scale,
    unscale,
)

# Orthogonal residual below this (relative) counts as "parallel to the
# slab normal" when deciding between a finite support value and +inf.
_PARALLEL_RTOL = 1e-10

# Random directions whose median support sets probe_scale.
_SCALE_DIRECTIONS = 16


def _as_points(pts: np.ndarray, dim: int) -> np.ndarray:
    p = np.asarray(pts, dtype=float)
    if p.ndim != 2 or p.shape[1] != dim:
        raise ShapeError(f"expected points of shape (m, {dim}), got {p.shape}")
    return p


def _as_direction_vector(v: np.ndarray, dim: int) -> np.ndarray:
    w = np.asarray(v, dtype=float)
    if w.shape != (dim,):
        raise ShapeError(f"expected a vector of length {dim}, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise DomainError("support direction contains non-finite entries")
    return w


@dataclass(frozen=True)
class SupportValue:
    """Support value, exactness flag and attaining point, from one call.

    `point` is a point of the body where <x, v> reaches `value` (a
    subgradient of the support function at v), or None when the value is
    +inf or the body is an intersection of two or more parts.  It takes no
    part in equality or hashing.
    """

    value: float
    exact: bool
    point: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def exactness(self) -> str:
        return "exact" if self.exact else "upper_bound"


class ConvexBody:
    """Interface shared by all body variants (see module docstring)."""

    dim: int

    def contains_batch(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def contains(self, x: np.ndarray) -> bool:
        return bool(self.contains_batch(np.asarray(x, dtype=float)[None, :])[0])

    def support(self, v: np.ndarray) -> SupportValue:
        raise NotImplementedError

    def support_point(self, v: np.ndarray) -> np.ndarray | None:
        return self.support(v).point


@dataclass(frozen=True)
class Slab(ConvexBody):
    """{x : |<x, normal>| <= halfwidth}, unbounded across the normal."""

    normal: Direction
    halfwidth: float

    def __post_init__(self) -> None:
        h = float(self.halfwidth)
        if not (math.isfinite(h) and h > 0.0):
            raise DomainError(f"slab halfwidth must be finite and > 0, got {h!r}")
        object.__setattr__(self, "halfwidth", h)

    @property
    def dim(self) -> int:
        return self.normal.dim

    def contains_batch(self, pts: np.ndarray) -> np.ndarray:
        p = _as_points(pts, self.dim)
        return np.abs(_inner_products(p, self.normal.entries)) <= self.halfwidth

    def support(self, v: np.ndarray) -> SupportValue:
        w, k = unit_scale(_as_direction_vector(v, self.dim))
        along = float(w @ self.normal.entries)
        residual = w - along * self.normal.entries
        if float(np.linalg.norm(residual)) > _PARALLEL_RTOL * float(np.linalg.norm(w)):
            return SupportValue(math.inf, True)
        sign = 1.0 if along >= 0.0 else -1.0
        return SupportValue(
            unscale(self.halfwidth * abs(along), k), True,
            sign * self.halfwidth * self.normal.entries,
        )


def _inner_products(p: np.ndarray, a: np.ndarray) -> np.ndarray:
    """p @ a, with the rows that overflow on finite coordinates redone.

    A sum that cancels may be in range where a term is not (x = 1.2e308
    (1, 1, 1) against (1, 1, -2) gives 0), so such a row is evaluated at
    unit scale (:func:`unit_scale`) and each entry scaled back through
    :func:`unscale`, which reads +-inf past the largest double.  Rows with
    an inf or NaN coordinate keep the plain product, as does every row in
    range, bit for bit.  The check is one sum over the product: it is
    finite only when every entry is.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = p @ a
        if math.isfinite(np.sum(out)):
            return out
    rows = out.reshape(out.shape[0], -1)
    redo = ~np.all(np.isfinite(rows), axis=1) & np.all(np.isfinite(p), axis=1)
    for i in np.flatnonzero(redo):
        w, k = unit_scale(p[i])
        rows[i] = [unscale(float(v), k) for v in np.atleast_1d(w @ a)]
    return out


def _all_columns(a: np.ndarray, bound: float | np.ndarray) -> np.ndarray:
    """Rows with |a[:, j]| <= bound_j in every column j: the verdict of
    np.all(np.abs(a) <= bound, axis=1), NaN rows failing, ANDed column by
    column.  `bound` is a scalar or holds one entry per column.
    """
    bounds = np.broadcast_to(bound, a.shape[1:])
    ok = np.abs(a[:, 0]) <= bounds[0]
    column = np.empty(a.shape[0])
    passed = np.empty(a.shape[0], dtype=bool)
    for j in range(1, a.shape[1]):
        ok &= np.less_equal(np.abs(a[:, j], out=column), bounds[j], out=passed)
    return ok


def _lp_norm(a: np.ndarray, p: float) -> np.ndarray:
    """The p-norm along the last axis of a nonnegative array, p in [1, inf].

    Above p = 2 the sum runs over (a_i / m)^p with m = max_i a_i, whose
    largest term is 1: a_i^p itself overflows at moderate a_i (1.5^2000,
    or 3^q for the dual q = 10001 of p = 1.0001).  p <= 2 keep the plain
    sums.  A row whose sum overflowed while all its entries are finite
    takes the scaled form; one whose sum fell below the normal range, so
    that its terms underflowed, is summed again scaled by 2^600, exactly.
    Only the row sums are checked, so the other rows pay almost nothing.
    """
    if math.isinf(p):
        return np.max(a, axis=-1)
    if p == 1.0:
        with np.errstate(over="ignore"):  # an overflowed sum is inf, as the norm is
            return np.sum(a, axis=-1)
    if p > 2.0:
        return _max_scaled_norm(a, p)
    with np.errstate(over="ignore"):
        sums = np.sum(a**p, axis=-1)
        norms = np.asarray(sums ** (1.0 / p))
        under = sums < 2.0**-1022
        if under.any():
            # Their entries are below 2^-511, so their scaled terms are finite.
            # Scaling every row keeps numpy's order of summation.
            norms[under] = (np.sum((a * 2.0**600) ** p, axis=-1) ** (1.0 / p))[under] * 2.0**-600
    over = np.isinf(norms)
    if over.any():
        over &= np.all(np.isfinite(a), axis=-1)
        norms[over] = _max_scaled_norm(a[over], p)
    return norms


def _max_scaled_norm(a: np.ndarray, p: float) -> np.ndarray:
    """_lp_norm as m * ||a / m||_p with m = max_i a_i, which cannot overflow."""
    m = np.max(a, axis=-1, keepdims=True)
    # Rows of zeros, or holding an inf or NaN, need no scaling.
    scale = np.where((m > 0.0) & (m < math.inf), m, 1.0)
    with np.errstate(over="ignore"):  # a norm past the largest double is inf
        return scale[..., 0] * np.sum((a / scale) ** p, axis=-1) ** (1.0 / p)


def _sum_band(p: float, radius: float, dim: int) -> tuple[float, float] | None:
    """Bounds (lo, hi) that decide ||x||_p <= radius from a row sum s.

    The reference verdict is s <= T, where s is numpy's sum of the terms
    |x_j| (p = 1) or x_j * x_j (p = 2) over the row.  For p = 1, T is the
    radius.  For p = 2 the reference takes the array power s ** 0.5,
    which numpy computes as sqrt, and fl(sqrt(s)) <= radius holds exactly
    when s <= T for the largest double T whose sqrt is <= radius, since
    sqrt is correctly rounded and monotone.  Summing n nonnegative terms
    in any order errs by at most (n - 1) u times the exact sum, u = 2^-53
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    section 4.2), so two orders differ by under 2 n u times it: a row
    that another order puts below lo = T - 4 n u T (above hi = T + 4 n u T)
    is inside (outside) by the reference too.  Rows in between take the
    reference.

    None (every row takes the reference) for other exponents and when T
    is outside [2^-960, 2^960].  Near the subnormal range a rounded
    square errs by more than u relative, and near overflow the band edge
    and the sums close to it could overflow; the range keeps wide margins
    from both.
    """
    if p not in (1.0, 2.0):
        return None
    bound = radius
    if p == 2.0:
        bound = radius * radius
        while math.sqrt(bound) > radius:
            bound = math.nextafter(bound, 0.0)
        while math.sqrt(math.nextafter(bound, math.inf)) <= radius:
            bound = math.nextafter(bound, math.inf)
    if not 2.0**-960 <= bound <= 2.0**960:
        return None
    half_width = bound * (4 * dim * 2.0**-53)
    return bound - half_width, bound + half_width


@dataclass(frozen=True)
class LpBall(ConvexBody):
    """{x : ||x||_p <= radius} for p in [1, inf]."""

    dim: int
    p: float
    radius: float
    _band: tuple[float, float] | None = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        check_dim(self.dim, "lp ball")
        p = float(self.p)
        if math.isnan(p) or p < 1.0:
            raise DomainError(f"lp ball exponent must satisfy p >= 1, got {p!r}")
        r = float(self.radius)
        if not (math.isfinite(r) and r > 0.0):
            raise DomainError(f"lp ball radius must be finite and > 0, got {r!r}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "radius", r)
        object.__setattr__(self, "_band", _sum_band(p, r, self.dim))

    def contains_batch(self, pts: np.ndarray) -> np.ndarray:
        x = _as_points(pts, self.dim)
        if math.isinf(self.p):
            # The predicate max_i |x_i| <= r (NaN rows fail both) without the max.
            return _all_columns(x, self.radius)
        if self._band is None:
            return _lp_norm(np.abs(x), self.p) <= self.radius
        # Running sum over columns of |x_j| or x_j * x_j (see _sum_band).
        # A sum that overflows is inf, outside the ball as its row is.
        term = np.abs if self.p == 1.0 else np.square
        with np.errstate(over="ignore"):
            sums = term(x[:, 0])
            column = np.empty_like(sums)
            for j in range(1, self.dim):
                sums += term(x[:, j], out=column)
        lo, hi = self._band
        inside = sums <= lo
        near = sums <= hi
        near ^= inside
        if near.any():
            inside[near] = (_lp_norm(np.abs(x), self.p) <= self.radius)[near]
        return inside

    def _dual_exponent(self) -> float:
        if self.p == 1.0:
            return math.inf
        if math.isinf(self.p):
            return 1.0
        return self.p / (self.p - 1.0)

    def support(self, v: np.ndarray) -> SupportValue:
        w = _as_direction_vector(v, self.dim)
        absw = np.abs(w)
        q = self._dual_exponent()
        dual = _lp_norm(absw, q)
        k = 0
        if math.isinf(dual):
            # The norm is past the largest double: evaluate at unit scale,
            # only here, since pow does not scale exactly.
            absw, k = unit_scale(absw)
            dual = _lp_norm(absw, q)
        value = unscale(self.radius * float(dual), k)
        if dual == 0.0:  # w = 0
            return SupportValue(value, True, np.zeros(self.dim))
        signs = np.where(w >= 0.0, 1.0, -1.0)
        if math.isinf(self.p):
            point = self.radius * signs
        elif self.p == 1.0:
            i = int(np.argmax(absw))
            point = np.zeros(self.dim)
            point[i] = self.radius * signs[i]
        else:
            # Hoelder equality case: |x_i| proportional to |v_i|^{q-1}.
            point = self.radius * signs * (absw / dual) ** (q - 1.0)
        return SupportValue(value, True, point)


@dataclass(frozen=True)
class Ellipsoid(ConvexBody):
    """{x : <x, M x> <= 1} for symmetric positive definite M."""

    quadratic: Covariance

    @property
    def dim(self) -> int:
        return self.quadratic.dim

    def contains_batch(self, pts: np.ndarray) -> np.ndarray:
        p = _as_points(pts, self.dim)
        # build_covariance keeps the eigenvalue ratio at EIGEN_RATIO_MIN
        # (1e-10) or more, so a row whose product or form overflows has a
        # form above ~1e298, and a NaN form comes only from an inf
        # coordinate or from inf - inf.  Both lie outside the bounded body,
        # where `forms <= 1.0` reads False, exactly.
        with np.errstate(over="ignore", invalid="ignore"):
            forms = np.einsum("ij,ij->i", p @ self.quadratic.matrix, p)
        return forms <= 1.0

    def support(self, v: np.ndarray) -> SupportValue:
        w, k = unit_scale(_as_direction_vector(v, self.dim))
        value = float(np.sqrt(self.quadratic.quad_form_inv(w)))
        if value == 0.0:
            return SupportValue(value, True, np.zeros(self.dim))
        return SupportValue(unscale(value, k), True, self.quadratic.solve(w) / value)


@dataclass(frozen=True)
class HPolytope(ConvexBody):
    """{x : |<a_i, x>| <= b_i for each row a_i}, all offsets b_i > 0.

    The symmetric H-form keeps the origin strictly inside, which the
    support LP relies on (b >= 0 makes the slack basis feasible).
    """

    normals: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        a = np.asarray(self.normals, dtype=float)
        b = np.asarray(self.offsets, dtype=float)
        if a.ndim != 2 or a.shape[0] < 1:
            raise ShapeError(f"polytope normals must be a (m, n) matrix, got {a.shape}")
        if a.shape[1] > MAX_DIM:
            raise ShapeError(f"polytope dim {a.shape[1]} exceeds MAX_DIM = {MAX_DIM}")
        if b.shape != (a.shape[0],):
            raise ShapeError(
                f"polytope offsets shape {b.shape} does not match {a.shape[0]} rows"
            )
        if not np.all(np.isfinite(a)):
            raise ShapeError("polytope normals contain non-finite entries")
        if not np.all(np.isfinite(b)) or np.any(b <= 0.0):
            raise DomainError("polytope offsets must all be finite and > 0")
        if np.any(np.all(a == 0.0, axis=1)):
            raise ShapeError("polytope has an all-zero normal row")
        object.__setattr__(self, "normals", readonly_copy(a))
        object.__setattr__(self, "offsets", readonly_copy(b))

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    def contains_batch(self, pts: np.ndarray) -> np.ndarray:
        p = _as_points(pts, self.dim)
        return _all_columns(_inner_products(p, self.normals.T), self.offsets)

    def support(self, v: np.ndarray) -> SupportValue:
        w = _as_direction_vector(v, self.dim)
        a = np.vstack([self.normals, -self.normals])
        b = np.concatenate([self.offsets, self.offsets])
        result = lp.simplex_max(w, a, b)
        return SupportValue(result.value, True, result.point)


@dataclass(frozen=True)
class Intersection(ConvexBody):
    """Intersection of same-dimension bodies; support is min over parts."""

    parts: tuple[ConvexBody, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ShapeError("intersection needs at least one part")
        dims = {part.dim for part in self.parts}
        if len(dims) != 1:
            raise ShapeError(f"intersection parts disagree on dimension: {sorted(dims)}")
        object.__setattr__(self, "parts", tuple(self.parts))

    @property
    def dim(self) -> int:
        return self.parts[0].dim

    def contains_batch(self, pts: np.ndarray) -> np.ndarray:
        p = _as_points(pts, self.dim)
        mask = np.ones(p.shape[0], dtype=bool)
        for part in self.parts:
            mask &= part.contains_batch(p)
        return mask

    def support(self, v: np.ndarray) -> SupportValue:
        if len(self.parts) == 1:
            return self.parts[0].support(v)
        # min over parts only bounds the true support from above.
        return SupportValue(min(part.support(v).value for part in self.parts), False)


@dataclass(frozen=True)
class LinearImage(ConvexBody):
    """L(A) for an invertible matrix L and a base body A."""

    base: ConvexBody
    matrix: np.ndarray = field(repr=False)
    inverse: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != self.base.dim:
            raise ShapeError(
                f"linear image matrix must be ({self.base.dim}, {self.base.dim}), "
                f"got {m.shape}"
            )
        if not np.all(np.isfinite(m)):
            raise ShapeError("linear image matrix contains non-finite entries")
        singular_values = np.linalg.svd(m, compute_uv=False)
        if singular_values[-1] < 1e-10 * max(singular_values[0], 1e-300):
            raise DefinitenessError(
                "linear image matrix is numerically singular "
                f"(singular values {singular_values[0]:.3e}..{singular_values[-1]:.3e})"
            )
        object.__setattr__(self, "matrix", readonly_copy(m))
        object.__setattr__(self, "inverse", readonly_copy(np.linalg.inv(m)))

    @property
    def dim(self) -> int:
        return self.base.dim

    def contains_batch(self, pts: np.ndarray) -> np.ndarray:
        p = _as_points(pts, self.dim)
        return self.base.contains_batch(p @ self.inverse.T)

    def support(self, v: np.ndarray) -> SupportValue:
        w = _as_direction_vector(v, self.dim)
        k = 0
        with np.errstate(over="ignore", invalid="ignore"):
            image = self.matrix.T @ w
            if not np.all(np.isfinite(image)):
                # Evaluate at unit scale only here: the value at 2^k v is
                # 2^k times the value at v only where no pow is involved.
                w, k = unit_scale(w)
                image = self.matrix.T @ w
        base = self.base.support(image)
        value = unscale(base.value, k)
        if base.point is None:
            return SupportValue(value, base.exact)
        return SupportValue(value, base.exact, self.matrix @ base.point)


# perfbench/tracing.py wraps support_point per variant, from each class dict.
for _variant in (Slab, LpBall, Ellipsoid, HPolytope, Intersection, LinearImage):
    _variant.support_point = ConvexBody.support_point


def transform(body: ConvexBody, matrix: np.ndarray) -> ConvexBody:
    """Image of `body` under an invertible matrix, flattening nested images."""
    if isinstance(body, LinearImage):
        return LinearImage(body.base, np.asarray(matrix, dtype=float) @ body.matrix)
    return LinearImage(body, matrix)


# The benchmark tracer (perfbench/tracing.py) wraps probe_scale by name and is its only reader.
def probe_scale(body: ConvexBody, rng: np.random.Generator) -> float:
    """A length scale for probing: median finite support over random directions."""
    finite: list[float] = []
    for _ in range(_SCALE_DIRECTIONS):
        v = rng.standard_normal(body.dim)
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            continue
        sv = body.support(v / norm)
        if math.isfinite(sv.value) and sv.value > 0.0:
            finite.append(sv.value)
    if not finite:
        return 1.0
    return float(min(max(np.median(finite), 1e-6), 1e6))


# The fields of each body kind in the JSON config grammar, besides "kind".
_BODY_FIELDS = {
    "slab": {"normal", "halfwidth"},
    "lp_ball": {"p", "dim", "radius"},
    "ellipsoid": {"matrix"},
    "h_polytope": {"normals", "offsets"},
    "intersection": {"parts"},
    "linear_image": {"base", "matrix"},
}


def body_from_dict(data: object, path: str = "body") -> ConvexBody:
    """Build a body from its dict form (the JSON config grammar).

    Raises ConfigError naming the offending field path, an unknown field
    included.  Every number must be a JSON number (booleans and strings
    are refused); the lp_ball exponent additionally accepts the string
    "inf".
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object, got {type(data).__name__}")
    kind = data.get("kind")
    if kind is None:
        raise ConfigError(f"{path}.kind: missing")
    if not isinstance(kind, str) or kind not in _BODY_FIELDS:
        raise ConfigError(f"{path}.kind: unknown body kind {kind!r}")
    refuse_unknown(data, {"kind", *_BODY_FIELDS[kind]}, f"{path}.")
    try:
        if kind == "slab":
            normal = json_array(data.get("normal"), f"{path}.normal", (None,))
            return Slab(
                normal=Direction.from_vector(normal),
                halfwidth=json_number(data.get("halfwidth"), f"{path}.halfwidth"),
            )
        if kind == "lp_ball":
            raw_p = data.get("p")
            if raw_p == "inf":
                p = math.inf
            elif isinstance(raw_p, (int, float)) and not isinstance(raw_p, bool):
                p = json_number(raw_p, f"{path}.p")
            else:
                raise ConfigError(f"{path}.p: expected a number or \"inf\", got {raw_p!r}")
            dim = json_int(data.get("dim"), f"{path}.dim", 1, MAX_DIM)
            radius = json_number(data.get("radius"), f"{path}.radius")
            return LpBall(dim=dim, p=p, radius=radius)
        if kind == "ellipsoid":
            matrix = json_array(data.get("matrix"), f"{path}.matrix", (None, None))
            return Ellipsoid(quadratic=build_covariance(matrix))
        if kind == "h_polytope":
            return HPolytope(
                normals=json_array(data.get("normals"), f"{path}.normals", (None, None)),
                offsets=json_array(data.get("offsets"), f"{path}.offsets", (None,)),
            )
        if kind == "intersection":
            raw_parts = data.get("parts")
            if not isinstance(raw_parts, list) or not raw_parts:
                raise ConfigError(f"{path}.parts: expected a nonempty list")
            parts = tuple(
                body_from_dict(part, f"{path}.parts[{i}]")
                for i, part in enumerate(raw_parts)
            )
            return Intersection(parts=parts)
        if kind == "linear_image":
            return LinearImage(
                base=body_from_dict(data.get("base"), f"{path}.base"),
                matrix=json_array(data.get("matrix"), f"{path}.matrix", (None, None)),
            )
    except (DomainError, ShapeError, DefinitenessError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def refuse_unknown(raw: dict, fields: set | frozenset, prefix: str) -> None:
    """ConfigError naming the first key of `raw` outside `fields`."""
    for key in raw:
        if key not in fields:
            raise ConfigError(f"{prefix}{key}: unknown field")


def json_number(raw: object, path: str) -> float:
    """A JSON number as a float; ConfigError naming `path` otherwise."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {raw!r}")
    try:
        return float(raw)
    except OverflowError:
        raise ConfigError(f"{path}: integer too large for a float") from None


def json_int(raw: object, path: str, lo: int, hi: int) -> int:
    """A JSON integer in [lo, hi]; ConfigError naming `path` otherwise."""
    if isinstance(raw, bool) or not isinstance(raw, int) or not lo <= raw <= hi:
        raise ConfigError(f"{path}: expected an integer in [{lo}, {hi}], got {raw!r}")
    return raw


def json_array(raw: object, path: str, shape: tuple[int | None, ...]) -> np.ndarray:
    """A nonempty nested JSON list of numbers as a float array.

    `shape` gives the length at each depth, None for any length; every
    row must have the length of the first.  Each entry must be what
    :func:`json_number` accepts.  ConfigError names `path`, then the index
    of the offending entry.
    """
    lengths = list(shape)

    def read(node: object, depth: int, index: str) -> list:
        n = lengths[depth]
        leaf = depth == len(lengths) - 1
        if not isinstance(node, list) or not node or (n is not None and len(node) != n):
            where = f"{path}: {index}" if index else path
            count = "a nonempty list of" if n is None else f"a list of {n}"
            raise ConfigError(f"{where}: expected {count} {'numbers' if leaf else 'rows'}")
        lengths[depth] = len(node)
        if leaf:  # a float is its own reading; only other entries need a path
            return [
                x if type(x) is float else json_number(x, f"{path}: {index}[{i}]")
                for i, x in enumerate(node)
            ]
        return [read(row, depth + 1, f"{index}[{i}]") for i, row in enumerate(node)]

    return np.array(read(raw, 0, ""), dtype=float)
