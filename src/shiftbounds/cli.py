"""Command-line front end: bounds, power, verify, support.

Each command reads one JSON config (--config), writes a JSON report
(--out, default stdout) and optionally a CSV extract (--csv).  Exit
codes: 0 success, 1 verification failure, 2 invalid config/usage.

Reports carry the config echo, per-record provenance (analytic,
quadrature, or monte_carlo with the full seed coordinates), and wall
timings, so a report is sufficient to reproduce its run.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time

from . import __version__
from .bounds import BoundReport, power_envelope, ratio_bounds_grid
from .config import RunConfig, encode_report, jsonable, parse_run_config
from .errors import ConfigError, ShiftBoundsError
from .mc import Z_THRESHOLD, power_envelope_plan, run_plans
from .suites import SUITES


def _bound_record(report: BoundReport) -> dict:
    return {
        "provenance": "analytic",
        "t": report.t,
        "lower": report.lower,
        "upper": report.upper,
        "exponent_a": report.exponent_a,
        "exactness": "exact" if report.exponent_exact else "upper_bound",
        "mahalanobis": report.mahalanobis,
    }


def _mc_record(est, kind: str) -> dict:
    return {
        "provenance": "monte_carlo",
        "kind": kind,
        "value": est.value,
        "stderr": est.stderr,
        "samples": est.samples,
        "hits": est.hits,
        "seed": est.seed.seed,
        "substream": est.seed.substream,
        "chunk_size": est.seed.chunk_size,
    }


def _require(cfg: RunConfig, command: str, *fields: str) -> None:
    """ConfigError naming the first of `fields` that `cfg` leaves out."""
    for name in fields:
        if getattr(cfg, name) is None:
            raise ConfigError(f"{name}: required for the {command} command")


def cmd_bounds(cfg: RunConfig) -> tuple[dict, int]:
    _require(cfg, "bounds", "u", "t_grid")
    if cfg.body is None and cfg.layers is None:
        raise ConfigError("body: bounds needs a body or layers")
    target = cfg.layers if cfg.layers is not None else cfg.body
    reports = ratio_bounds_grid(cfg.cov, target, cfg.u, cfg.t_grid)
    return _envelope("bounds", cfg, [_bound_record(r) for r in reports]), 0


def cmd_power(cfg: RunConfig) -> tuple[dict, int]:
    _require(cfg, "power", "u", "body", "theta_grid")
    if cfg.alpha is None and cfg.mc is None:
        raise ConfigError("alpha: give alpha or an mc block to estimate the size")
    # One support evaluation serves the size and every theta's envelope and verdict.
    zero, *bound_reports = ratio_bounds_grid(cfg.cov, cfg.body, cfg.u, (0.0, *cfg.theta_grid))
    # The power check walks theta 0 only when the size is estimated, and
    # each theta > 0 only when it is checked.
    walked = [zero] if cfg.alpha is None else []
    walked += [bound for bound in bound_reports if bound.t > 0.0] if cfg.mc else []
    verdicts = []
    if walked:
        plan = power_envelope_plan(
            cfg.cov, cfg.body, cfg.u, walked, cfg.mc.samples, cfg.mc.seed, cfg.mc.z_threshold
        )
        ((powers, verdicts),) = run_plans((plan,))
    records = []
    alpha = cfg.alpha
    if alpha is None:
        size = powers[0]
        alpha = size.value
        if not 0.0 < alpha < 1.0:
            raise ConfigError(
                f"alpha: estimated size {alpha!r} is degenerate; "
                "the body has all or none of the mass"
            )
        records.append(_mc_record(size, "alpha_estimate"))
    pending = iter(verdicts)
    for bound in bound_reports:
        report = power_envelope(bound, alpha)
        records.append(
            {
                "provenance": "analytic",
                "theta": report.theta,
                "alpha": report.alpha,
                "beta_lower": report.beta_lower,
                "beta_upper": report.beta_upper,
                "exponent_a": report.exponent_a,
                "exactness": "exact" if report.exponent_exact else "upper_bound",
            }
        )
        if cfg.mc is not None and bound.t > 0.0:
            verdict = next(pending)
            record = _mc_record(verdict.beta_estimate, "power_estimate")
            record.update(
                {
                    "theta": bound.t,
                    "alpha_estimate": verdict.alpha_estimate.value,
                    "beta_lower": verdict.beta_lower,
                    "beta_upper": verdict.beta_upper,
                    "lower_z": verdict.lower_z,
                    "upper_z": verdict.upper_z,
                    "passed": verdict.passed,
                }
            )
            records.append(record)
    return _envelope("power", cfg, records), 0


def cmd_verify(cfg: RunConfig) -> tuple[dict, int]:
    _require(cfg, "verify", "suite")
    suite_fn = SUITES[cfg.suite]
    samples = cfg.mc.samples if cfg.mc is not None else None
    seed = cfg.mc.seed if cfg.mc is not None else 0
    z_threshold = cfg.mc.z_threshold if cfg.mc is not None else Z_THRESHOLD
    # Only the sandwich suite takes a fault scale, and only when one is asked for.
    fault = {} if cfg.fault_upper_scale == 1.0 else {"upper_scale": cfg.fault_upper_scale}
    results = suite_fn(samples=samples, seed=seed, z_threshold=z_threshold, **fault)
    records = [
        {
            "provenance": r.provenance,
            "suite": cfg.suite,
            "check": r.name,
            "passed": r.passed,
            "statistic": r.statistic,
            "details": r.details,
        }
        for r in results
    ]
    all_passed = all(r.passed for r in results)
    return _envelope("verify", cfg, records), 0 if all_passed else 1


def cmd_support(cfg: RunConfig) -> tuple[dict, int]:
    _require(cfg, "support", "body", "directions")
    records = []
    for v in cfg.directions:
        sv = cfg.body.support(v)
        records.append(
            {
                "provenance": "analytic",
                "direction": v.tolist(),
                "value": sv.value,
                "exactness": sv.exactness,
                "point": None if sv.point is None else sv.point.tolist(),
            }
        )
    return _envelope("support", cfg, records), 0


_COMMANDS = {
    "bounds": cmd_bounds,
    "power": cmd_power,
    "verify": cmd_verify,
    "support": cmd_support,
}

_CSV_COLUMNS = {
    "bounds": ("t", "lower", "upper", "exponent_a", "exactness"),
    "power": ("theta", "alpha", "beta_lower", "beta_upper"),
    "verify": ("check", "passed", "statistic"),
    "support": ("direction", "value", "exactness"),
}


def _envelope(command: str, cfg: RunConfig, records: list[dict]) -> dict:
    return {
        "artifact": {"name": "shiftbounds", "version": __version__},
        "command": command,
        "config": cfg.raw,
        "warnings": list(cfg.warnings),
        "records": records,
    }


def _write_csv(path: str, command: str, records: list[dict]) -> None:
    columns = _CSV_COLUMNS[command]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for record in records:
            if not all(col in record for col in columns):
                continue  # e.g. MC verdict rows inside a power report
            row = []
            for col in columns:
                value = jsonable(record[col])
                row.append(json.dumps(value) if isinstance(value, list) else value)
            writer.writerow(row)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="shiftbounds",
        description=(
            "Exact lower/upper bounds for Gaussian measures of shifted "
            "symmetric convex sets, with Monte Carlo verification."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "bounds": "evaluate the two-sided bound over a t grid",
        "power": "evaluate the power envelope over a theta grid",
        "verify": "run a named verification suite (exit 1 on failure)",
        "support": "query a body's support function along directions",
    }
    for name, help_text in helps.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the JSON run config")
        cmd.add_argument("--out", help="write the JSON report here (default stdout)")
        cmd.add_argument("--csv", help="also write a CSV extract of the records")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2

    try:
        cfg = parse_run_config(raw)
        envelope, exit_code = _COMMANDS[args.command](cfg)
    except ShiftBoundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    envelope["timings"] = {
        "total_seconds": round(time.perf_counter() - started, 6)
    }
    for warning in envelope["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)

    text = encode_report(envelope)
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        else:
            print(text)
        if args.csv:
            _write_csv(args.csv, args.command, envelope["records"])
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
