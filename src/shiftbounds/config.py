"""Run configuration parsing and report serialization.

A run config is one JSON document (see README for the grammar).  Every
validation failure raises ConfigError naming the offending field path,
before any computation starts.

Reports serialize with deterministic key order; nonfinite values appear
as the strings "inf"/"-inf" (exponents and support values live in
[0, inf]), and floats round-trip exactly (shortest-repr encoding).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .bodies import ConvexBody, body_from_dict, json_array, json_int, json_number
from .bounds import Layer, LayeredUnimodal, build_layered
from .errors import ConfigError, ShiftBoundsError
from .linalg import MAX_DIM, Covariance, Direction, build_covariance, identity_covariance
from .mc import STREAM_CAPACITY, Z_THRESHOLD
from .suites import MAX_SEED, SUITES

_NORMALIZE_WARN_TOL = 1e-6


@dataclass(frozen=True)
class McConfig:
    samples: int
    seed: int
    z_threshold: float = Z_THRESHOLD


@dataclass(frozen=True)
class RunConfig:
    """A parsed, validated run configuration (all commands share it)."""

    raw: dict
    cov: Covariance
    u: Direction | None
    body: ConvexBody | None
    layers: LayeredUnimodal | None
    t_grid: tuple[float, ...] | None
    theta_grid: tuple[float, ...] | None
    alpha: float | None
    mc: McConfig | None
    suite: str | None
    fault_upper_scale: float
    directions: tuple[np.ndarray, ...] | None
    warnings: tuple[str, ...] = field(default=())


def parse_run_config(raw: object) -> RunConfig:
    """Validate a config document; command-specific requirements are
    checked by the commands themselves (a config may serve several)."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config: expected a JSON object, got {type(raw).__name__}")
    warnings: list[str] = []

    dim = json_int(raw.get("dim"), "dim", 1, MAX_DIM)

    cov = _parse_sigma(raw.get("sigma"), dim)

    u = None
    if "u" in raw:
        vec = json_array(raw["u"], "u", (dim,))
        try:
            u = Direction.from_vector(vec)
        except ShiftBoundsError as exc:
            raise ConfigError(f"u: {exc}") from exc
        norm = float(vec @ u.entries)  # ||vec||, as u = vec / ||vec||, without squares
        if abs(norm - 1.0) > _NORMALIZE_WARN_TOL:
            warnings.append(f"u normalized on load (input norm was {norm!r})")

    body = None
    if "body" in raw:
        body = body_from_dict(raw["body"], "body")
        if body.dim != dim:
            raise ConfigError(f"body: dimension {body.dim} does not match dim {dim}")

    layers = None
    if "layers" in raw:
        layers = _parse_layers(raw["layers"], dim)

    if body is not None and layers is not None:
        raise ConfigError("body/layers: give one or the other, not both")

    t_grid = _parse_grid(raw, "t_grid")
    theta_grid = _parse_grid(raw, "theta_grid")

    alpha = None
    if "alpha" in raw:
        alpha = json_number(raw["alpha"], "alpha")
        if not 0.0 < alpha < 1.0:
            raise ConfigError(f"alpha: expected a number in (0, 1), got {raw['alpha']!r}")

    mc = _parse_mc(raw.get("mc"))

    suite = None
    if "suite" in raw:
        suite = raw["suite"]
        if suite not in SUITES:
            raise ConfigError(
                f"suite: unknown suite {suite!r}; choose from {sorted(SUITES)}"
            )
        # Suites derive one stream seed per check from the run seed.
        if mc is not None and mc.seed > MAX_SEED:
            raise ConfigError(
                f"mc.seed: a verify suite needs a seed in [0, {MAX_SEED}], "
                f"got {mc.seed!r}"
            )

    fault = _positive_finite(raw.get("fault_upper_scale", 1.0), "fault_upper_scale")
    if fault != 1.0 and suite != "sandwich":
        raise ConfigError(f"fault_upper_scale: only the sandwich suite reads it, got {fault!r}")

    directions = None
    if "directions" in raw:
        dirs_raw = raw["directions"]
        if not isinstance(dirs_raw, list) or not dirs_raw:
            raise ConfigError("directions: expected a nonempty list of vectors")
        collected = []
        for i, entry in enumerate(dirs_raw):
            v = json_array(entry, f"directions[{i}]", (dim,))
            if not np.all(np.isfinite(v)):
                raise ConfigError(f"directions[{i}]: entries must be finite")
            collected.append(v)
        directions = tuple(collected)

    return RunConfig(
        raw=raw,
        cov=cov,
        u=u,
        body=body,
        layers=layers,
        t_grid=t_grid,
        theta_grid=theta_grid,
        alpha=alpha,
        mc=mc,
        suite=suite,
        fault_upper_scale=fault,
        directions=directions,
        warnings=tuple(warnings),
    )


def _parse_sigma(raw: object, dim: int) -> Covariance:
    if raw is None:
        return identity_covariance(dim)
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ConfigError("sigma: expected an object with a \"kind\" field")
    kind = raw["kind"]
    if kind == "identity":
        return identity_covariance(dim)
    if kind == "diagonal":
        matrix = np.diag(json_array(raw.get("entries"), "sigma.entries", (dim,)))
    elif kind == "dense":
        matrix = json_array(raw.get("matrix"), "sigma.matrix", (dim, dim))
    else:
        raise ConfigError(f"sigma.kind: unknown kind {kind!r}")
    try:
        return build_covariance(matrix)
    except ShiftBoundsError as exc:
        raise ConfigError(f"sigma: {exc}") from exc


def _parse_layers(raw: object, dim: int) -> LayeredUnimodal:
    if not isinstance(raw, list) or not raw:
        raise ConfigError("layers: expected a nonempty list")
    parsed = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ConfigError(f"layers[{i}]: expected an object")
        weight = json_number(entry.get("weight"), f"layers[{i}].weight")
        body = body_from_dict(entry.get("body"), f"layers[{i}].body")
        if body.dim != dim:
            raise ConfigError(
                f"layers[{i}].body: dimension {body.dim} does not match dim {dim}"
            )
        try:
            parsed.append(Layer(weight, body))
        except ShiftBoundsError as exc:
            raise ConfigError(f"layers[{i}]: {exc}") from exc
    try:
        return build_layered(parsed)
    except ShiftBoundsError as exc:
        raise ConfigError(f"layers: {exc}") from exc


def _parse_grid(raw: dict, key: str) -> tuple[float, ...] | None:
    if key not in raw:
        return None
    grid = raw[key]
    if not isinstance(grid, list) or not grid:
        raise ConfigError(f"{key}: expected a nonempty list of numbers")
    out = []
    for i, entry in enumerate(grid):
        value = json_number(entry, f"{key}[{i}]")
        if math.isnan(value) or value < 0.0:
            raise ConfigError(f"{key}[{i}]: must be >= 0, got {entry!r}")
        out.append(value)
    return tuple(out)


def _parse_mc(raw: object) -> McConfig | None:
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ConfigError("mc: expected an object")
    samples = json_int(raw.get("samples"), "mc.samples", 1, STREAM_CAPACITY)
    seed = json_int(raw.get("seed", 0), "mc.seed", 0, (1 << 64) - 1)
    z = _positive_finite(raw.get("z_threshold", Z_THRESHOLD), "mc.z_threshold")
    return McConfig(samples=samples, seed=seed, z_threshold=z)


def _positive_finite(value: object, path: str) -> float:
    number = json_number(value, path)
    if not (math.isfinite(number) and number > 0.0):
        raise ConfigError(f"{path}: expected a finite number > 0, got {value!r}")
    return number


def jsonable(obj: object) -> object:
    """Make a report tree JSON-serializable: numpy -> builtin, inf -> "inf"."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float):
        if math.isnan(obj):
            raise ConfigError("report contains NaN; refusing to serialize")
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    return obj


def encode_report(envelope: dict) -> str:
    """Serialize an envelope deterministically (sorted keys, exact floats)."""
    return json.dumps(jsonable(envelope), sort_keys=True, indent=2, allow_nan=False)
