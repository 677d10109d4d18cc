"""Origin-symmetric convex bodies: membership, support functions, images.

Six variants share one small interface:

* ``contains_batch(points)``: vectorized membership (closed sets, <=).
* ``support(v)``: the support function sup_{x in A} <x, v> as a
  :class:`SupportValue` carrying an exactness flag.  Slabs, p-balls,
  ellipsoids and H-polytopes are exact; intersections fall back to the
  min over parts, which is only an upper bound (flagged) unless the
  intersection is trivial.
* ``support_point(v)``: an attaining point when one is cheaply available
  (None otherwise; never wrong, just absent).

Support values may be +inf (slabs and degenerate polytopes are
unbounded); +inf is exact when the body really is unbounded along v.

Linear images L(A) delegate everything through L: membership via
L^{-1} x, support via delta*(v | L A) = delta*(L^T v | A).

All bodies assume symmetry about the origin (the bound theory needs
it); :func:`validate_symmetry` spot-checks membership symmetry and
midpoint convexity with seeded random probes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import lp
from .errors import ConfigError, DefinitenessError, DomainError, ShapeError
from .linalg import MAX_DIM, Covariance, Direction, build_covariance

# Orthogonal residual below this (relative) counts as "parallel to the
# slab normal" when deciding between a finite support value and +inf.
_PARALLEL_RTOL = 1e-10


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=float)
    out.flags.writeable = False
    return out


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
    """Support function value with its exactness flag."""

    value: float
    exact: bool

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
        return None

    def to_dict(self) -> dict:
        raise NotImplementedError


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
        return np.abs(p @ self.normal.entries) <= self.halfwidth

    def support(self, v: np.ndarray) -> SupportValue:
        w = _as_direction_vector(v, self.dim)
        along = float(w @ self.normal.entries)
        residual = w - along * self.normal.entries
        if float(np.linalg.norm(residual)) > _PARALLEL_RTOL * max(
            float(np.linalg.norm(w)), 1e-300
        ):
            return SupportValue(math.inf, True)
        return SupportValue(self.halfwidth * abs(along), True)

    def support_point(self, v: np.ndarray) -> np.ndarray | None:
        sv = self.support(v)
        if math.isinf(sv.value):
            return None
        along = float(np.asarray(v, dtype=float) @ self.normal.entries)
        sign = 1.0 if along >= 0.0 else -1.0
        return sign * self.halfwidth * self.normal.entries

    def to_dict(self) -> dict:
        return {
            "kind": "slab",
            "normal": self.normal.entries.tolist(),
            "halfwidth": self.halfwidth,
        }


@dataclass(frozen=True)
class LpBall(ConvexBody):
    """{x : ||x||_p <= radius} for p in [1, inf]."""

    dim: int
    p: float
    radius: float

    def __post_init__(self) -> None:
        if not (isinstance(self.dim, int) and 1 <= self.dim <= MAX_DIM):
            raise ShapeError(f"lp ball dim must be an int in [1, {MAX_DIM}]")
        p = float(self.p)
        if math.isnan(p) or p < 1.0:
            raise DomainError(f"lp ball exponent must satisfy p >= 1, got {p!r}")
        r = float(self.radius)
        if not (math.isfinite(r) and r > 0.0):
            raise DomainError(f"lp ball radius must be finite and > 0, got {r!r}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "radius", r)

    def _norms(self, p: np.ndarray) -> np.ndarray:
        if math.isinf(self.p):
            return np.max(np.abs(p), axis=1)
        if self.p == 1.0:
            return np.sum(np.abs(p), axis=1)
        return np.sum(np.abs(p) ** self.p, axis=1) ** (1.0 / self.p)

    def contains_batch(self, pts: np.ndarray) -> np.ndarray:
        p = _as_points(pts, self.dim)
        return self._norms(p) <= self.radius

    def _dual_exponent(self) -> float:
        if self.p == 1.0:
            return math.inf
        if math.isinf(self.p):
            return 1.0
        return self.p / (self.p - 1.0)

    def support(self, v: np.ndarray) -> SupportValue:
        w = _as_direction_vector(v, self.dim)
        q = self._dual_exponent()
        if math.isinf(q):
            dual = float(np.max(np.abs(w))) if w.size else 0.0
        elif q == 1.0:
            dual = float(np.sum(np.abs(w)))
        else:
            dual = float(np.sum(np.abs(w) ** q) ** (1.0 / q))
        return SupportValue(self.radius * dual, True)

    def support_point(self, v: np.ndarray) -> np.ndarray | None:
        w = _as_direction_vector(v, self.dim)
        absw = np.abs(w)
        if float(np.max(absw)) == 0.0:
            return np.zeros(self.dim)
        signs = np.where(w >= 0.0, 1.0, -1.0)
        if math.isinf(self.p):
            return self.radius * signs
        if self.p == 1.0:
            i = int(np.argmax(absw))
            out = np.zeros(self.dim)
            out[i] = self.radius * signs[i]
            return out
        q = self._dual_exponent()
        dual = float(np.sum(absw**q) ** (1.0 / q))
        # Hoelder equality case: |x_i| proportional to |v_i|^{q-1}.
        return self.radius * signs * (absw / dual) ** (q - 1.0)

    def to_dict(self) -> dict:
        return {
            "kind": "lp_ball",
            "dim": self.dim,
            "p": "inf" if math.isinf(self.p) else self.p,
            "radius": self.radius,
        }


@dataclass(frozen=True)
class Ellipsoid(ConvexBody):
    """{x : <x, M x> <= 1} for symmetric positive definite M."""

    quadratic: Covariance

    @property
    def dim(self) -> int:
        return self.quadratic.dim

    def contains_batch(self, pts: np.ndarray) -> np.ndarray:
        p = _as_points(pts, self.dim)
        forms = np.einsum("ij,ij->i", p @ self.quadratic.matrix, p)
        return forms <= 1.0

    def support(self, v: np.ndarray) -> SupportValue:
        w = _as_direction_vector(v, self.dim)
        return SupportValue(float(np.sqrt(self.quadratic.quad_form_inv(w))), True)

    def support_point(self, v: np.ndarray) -> np.ndarray | None:
        w = _as_direction_vector(v, self.dim)
        value = float(np.sqrt(self.quadratic.quad_form_inv(w)))
        if value == 0.0:
            return np.zeros(self.dim)
        return self.quadratic.solve(w) / value

    def to_dict(self) -> dict:
        return {"kind": "ellipsoid", "matrix": self.quadratic.matrix.tolist()}


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
        object.__setattr__(self, "normals", _readonly(a))
        object.__setattr__(self, "offsets", _readonly(b))

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    def contains_batch(self, pts: np.ndarray) -> np.ndarray:
        p = _as_points(pts, self.dim)
        return np.all(np.abs(p @ self.normals.T) <= self.offsets, axis=1)

    def support(self, v: np.ndarray) -> SupportValue:
        w = _as_direction_vector(v, self.dim)
        result = self._support_lp(w)
        return SupportValue(result.value, True)

    def support_point(self, v: np.ndarray) -> np.ndarray | None:
        w = _as_direction_vector(v, self.dim)
        result = self._support_lp(w)
        return result.point

    def _support_lp(self, w: np.ndarray) -> lp.SimplexResult:
        a = np.vstack([self.normals, -self.normals])
        b = np.concatenate([self.offsets, self.offsets])
        return lp.simplex_max(w, a, b)

    def to_dict(self) -> dict:
        return {
            "kind": "h_polytope",
            "normals": self.normals.tolist(),
            "offsets": self.offsets.tolist(),
        }


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
            if not mask.any():
                break
        return mask

    def support(self, v: np.ndarray) -> SupportValue:
        values = [part.support(v) for part in self.parts]
        best = min(values, key=lambda sv: sv.value)
        if len(self.parts) == 1:
            return best
        # min over parts only bounds the true support from above.
        return SupportValue(best.value, False)

    def support_point(self, v: np.ndarray) -> np.ndarray | None:
        if len(self.parts) == 1:
            return self.parts[0].support_point(v)
        return None

    def to_dict(self) -> dict:
        return {"kind": "intersection", "parts": [p.to_dict() for p in self.parts]}


@dataclass(frozen=True)
class LinearImage(ConvexBody):
    """L(A) for an invertible matrix L and a base body A."""

    base: ConvexBody
    matrix: np.ndarray = field(repr=False)
    inverse: np.ndarray = field(repr=False, default=None)

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
        object.__setattr__(self, "matrix", _readonly(m))
        object.__setattr__(self, "inverse", _readonly(np.linalg.inv(m)))

    @property
    def dim(self) -> int:
        return self.base.dim

    def contains_batch(self, pts: np.ndarray) -> np.ndarray:
        p = _as_points(pts, self.dim)
        return self.base.contains_batch(p @ self.inverse.T)

    def support(self, v: np.ndarray) -> SupportValue:
        w = _as_direction_vector(v, self.dim)
        return self.base.support(self.matrix.T @ w)

    def support_point(self, v: np.ndarray) -> np.ndarray | None:
        w = _as_direction_vector(v, self.dim)
        base_point = self.base.support_point(self.matrix.T @ w)
        if base_point is None:
            return None
        return self.matrix @ base_point

    def to_dict(self) -> dict:
        return {
            "kind": "linear_image",
            "base": self.base.to_dict(),
            "matrix": self.matrix.tolist(),
        }


def transform(body: ConvexBody, matrix: np.ndarray) -> ConvexBody:
    """Image of `body` under an invertible matrix, flattening nested images."""
    if isinstance(body, LinearImage):
        return LinearImage(body.base, np.asarray(matrix, dtype=float) @ body.matrix)
    return LinearImage(body, matrix)


@dataclass(frozen=True)
class SymmetryReport:
    """Outcome of randomized symmetry/convexity probing."""

    probes: int
    members: int
    scale: float
    symmetry_violations: int
    convexity_violations: int

    @property
    def ok(self) -> bool:
        return self.symmetry_violations == 0 and self.convexity_violations == 0


def probe_scale(body: ConvexBody, rng: np.random.Generator, directions: int = 16) -> float:
    """A length scale for probing: median finite support over random directions."""
    finite: list[float] = []
    for _ in range(directions):
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


def validate_symmetry(body: ConvexBody, probes: int = 4096, seed: int = 0) -> SymmetryReport:
    """Probe membership symmetry (x in A iff -x in A) and midpoint convexity.

    Draws `probes` Gaussian points at the body's own scale; any violation
    indicates a body that breaks the origin-symmetry contract (the bound
    theory is only valid for symmetric convex sets).
    """
    if probes < 2:
        raise DomainError("validate_symmetry needs at least 2 probes")
    rng = np.random.default_rng(seed)
    scale = probe_scale(body, rng)
    pts = rng.standard_normal((probes, body.dim)) * scale
    inside = body.contains_batch(pts)
    inside_neg = body.contains_batch(-pts)
    symmetry_violations = int(np.sum(inside != inside_neg))
    members = pts[inside]
    half = members.shape[0] // 2
    if half > 0:
        mids = 0.5 * (members[:half] + members[half : 2 * half])
        convexity_violations = int(np.sum(~body.contains_batch(mids)))
    else:
        convexity_violations = 0
    return SymmetryReport(
        probes=probes,
        members=int(members.shape[0]),
        scale=scale,
        symmetry_violations=symmetry_violations,
        convexity_violations=convexity_violations,
    )


def body_from_dict(data: object, path: str = "body") -> ConvexBody:
    """Build a body from its dict form (the JSON config grammar).

    Raises ConfigError naming the offending field path.  Numbers may be
    ints or floats; the lp_ball exponent additionally accepts the string
    "inf" (as emitted by to_dict).
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object, got {type(data).__name__}")
    kind = data.get("kind")
    if kind is None:
        raise ConfigError(f"{path}.kind: missing")
    try:
        if kind == "slab":
            normal = _vector(data, "normal", path)
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
            dim = data.get("dim")
            if not isinstance(dim, int) or isinstance(dim, bool):
                raise ConfigError(f"{path}.dim: expected an integer, got {dim!r}")
            radius = json_number(data.get("radius"), f"{path}.radius")
            return LpBall(dim=dim, p=p, radius=radius)
        if kind == "ellipsoid":
            return Ellipsoid(quadratic=build_covariance(_matrix(data, "matrix", path)))
        if kind == "h_polytope":
            return HPolytope(
                normals=_matrix(data, "normals", path),
                offsets=_vector(data, "offsets", path),
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
                matrix=_matrix(data, "matrix", path),
            )
    except ConfigError:
        raise
    except (DomainError, ShapeError, DefinitenessError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}.kind: unknown body kind {kind!r}")


def json_number(raw: object, path: str) -> float:
    """A JSON number as a float; ConfigError naming `path` otherwise."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {raw!r}")
    try:
        return float(raw)
    except OverflowError:
        raise ConfigError(f"{path}: integer too large for a float") from None


def _vector(data: dict, key: str, path: str) -> np.ndarray:
    raw = data.get(key)
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{path}.{key}: expected a nonempty list of numbers")
    try:
        return np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}.{key}: not numeric: {exc}") from exc


def _matrix(data: dict, key: str, path: str) -> np.ndarray:
    raw = data.get(key)
    if not isinstance(raw, list) or not raw or not isinstance(raw[0], list):
        raise ConfigError(f"{path}.{key}: expected a list of rows")
    try:
        return np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}.{key}: not a numeric matrix: {exc}") from exc
