#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the shiftbounds CLI.

Run from the repository root:

    python3 perfbench/run.py --workload verify-suites --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

One process, one closed-loop client: the requests of a workload (see
workloads.py) run one after another through ``shiftbounds.cli.main``
in this process, each reading its own JSON config file and writing its
own JSON report.  A pass is one round over every request; every report
is checked (see ``gate``) before the next request starts.

``--trace 0`` measures end to end: interpreter start-up (``setup_s``)
and untraced passes until ``--seconds`` have elapsed.  ``--trace 1``
alternates untraced and traced passes (tracing.py wraps each layer's
public calls) and ends with the microbenchmarks in micro.py.  The last
line of standard output is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when any
request failed the gate and 2 when the benchmark cannot run at all.

Records of the default seed are compared bit for bit against
perfbench/references/; ``--write-references`` regenerates those files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from tracing import BODY_KINDS, LayerStats, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCES = BENCH_DIR / "references"
DEFAULT_SEED = 0
SETUP_LAUNCHES = 7
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def _fail_setup(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


# --------------------------------------------------------------------- gate


def first_difference(expected, got, path: str = "records") -> str | None:
    """Path of the first field where `got` differs from `expected`.

    Floats must match bit for bit; keys missing from `expected` are
    ignored, so a later version may add fields to its records.
    """
    if isinstance(expected, dict):
        if not isinstance(got, dict):
            return path
        for key, value in expected.items():
            if key not in got:
                return f"{path}.{key}"
            found = first_difference(value, got[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(expected, list):
        if not isinstance(got, list) or len(got) != len(expected):
            return path
        for i, (a, b) in enumerate(zip(expected, got)):
            found = first_difference(a, b, f"{path}[{i}]")
            if found:
                return found
        return None
    if type(expected) is not type(got):
        return path
    if isinstance(expected, float):
        return None if expected.hex() == got.hex() else path
    return None if expected == got else path


def config_digest(config: dict) -> str:
    text = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Outcome:
    exit_code: int | None = None
    records: list | None = None
    error: str | None = None


def gate(request, outcome: Outcome, expected: list | None) -> str | None:
    """Why a request failed, or None when it passed.

    The exit code must be the expected one, every record carrying a
    `passed` verdict must pass (the fault probe must fail instead), and
    the records must equal `expected` when given.
    """
    if outcome.error:
        return outcome.error
    if outcome.exit_code != request.expect_exit:
        return f"exit code {outcome.exit_code}, expected {request.expect_exit}"
    if outcome.records is None:
        return "no report written"
    verdicts = [r["passed"] for r in outcome.records if "passed" in r]
    if request.fault:
        if all(verdicts):
            return "fault injection went undetected"
    elif not all(verdicts):
        failed = [r.get("check", r.get("theta"))
                  for r in outcome.records if r.get("passed") is False]
        return f"checks failed: {failed}"
    if expected is not None:
        where = first_difference(expected, outcome.records)
        if where:
            return f"records differ at {where}"
    return None


def stated_samples(records: list) -> int:
    """Monte Carlo sample counts the records state (times configurations)."""
    total = 0
    for record in records:
        if record.get("provenance") != "monte_carlo":
            continue
        fields = record.get("details", record)
        total += int(fields.get("samples", 0)) * int(fields.get("configurations", 1))
    return total


# ------------------------------------------------------------------ passes


@dataclass
class PassResult:
    wall_s: float
    request_wall_s: list[float]
    request_cpu_s: list[float]
    records: int
    samples: int
    outcomes: list[Outcome]


def best_pass(passes: list[PassResult]) -> tuple[float, float]:
    """Wall and CPU seconds of a pass with every request at its fastest.

    On a shared 2-vCPU Xeon virtual machine the host's speed swings by
    about 1.4x for spells of seconds (a fixed pure-Python loop alternates
    between 0.25 s and 0.36 s per call), so a median pass mostly reports
    which spell a run fell into.  Each request's minimum over the run's
    passes tracks the program instead.
    """
    wall = sum(min(times) for times in zip(*(p.request_wall_s for p in passes)))
    cpu = sum(min(times) for times in zip(*(p.request_cpu_s for p in passes)))
    return wall, cpu


@dataclass
class Runner:
    """Runs the requests of one workload, pass after pass, and gates them."""

    requests: list
    workdir: Path
    cli: object
    reference: dict | None
    first: list | None = None
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.paths = []
        for i, request in enumerate(self.requests):
            cfg = self.workdir / f"{i:02d}-{request.name}.json"
            cfg.write_text(json.dumps(request.config))
            self.paths.append((cfg, self.workdir / f"{i:02d}-{request.name}.report.json"))

    def _call(self, request, cfg: Path, out: Path) -> Outcome:
        out.unlink(missing_ok=True)
        outcome = Outcome()
        try:
            outcome.exit_code = self.cli.main(
                [request.command, "--config", str(cfg), "--out", str(out)]
            )
        except SystemExit as exc:
            outcome.exit_code = exc.code
        except Exception:
            outcome.error = traceback.format_exc(limit=3).strip().splitlines()[-1]
            traceback.print_exc(file=sys.stderr)
            return outcome
        if out.exists():
            outcome.records = json.loads(out.read_text())["records"]
        return outcome

    def run_pass(self, tracer=None) -> PassResult:
        outcomes, walls, cpus = [], [], []
        if tracer:
            tracer.request = -1
        t0 = time.perf_counter()
        with tracer.span("bench.pass") if tracer else nullcontext():
            for i, (request, (cfg, out)) in enumerate(zip(self.requests, self.paths)):
                if tracer:
                    tracer.request = i
                with tracer.span("bench.request") if tracer else nullcontext():
                    cpu0 = time.process_time()
                    start = time.perf_counter()
                    outcome = self._call(request, cfg, out)
                    walls.append(time.perf_counter() - start)
                    cpus.append(time.process_time() - cpu0)
                    self._check(i, request, outcome)
                outcomes.append(outcome)
        wall = time.perf_counter() - t0
        if self.first is None:
            self.first = [o.records for o in outcomes]
        records = [r for o in outcomes for r in (o.records or [])]
        return PassResult(wall, walls, cpus, len(records), stated_samples(records), outcomes)

    def _check(self, i: int, request, outcome: Outcome) -> None:
        self.attempted += 1
        expected = None
        if self.reference is not None:
            entry = self.reference.get(request.name)
            if entry is None or entry["config_sha256"] != config_digest(request.config):
                self._fail(request, "no reference made from this config")
                return
            expected = entry["records"]
        elif self.first is not None:
            expected = self.first[i]  # held-out seed: later passes repeat the first
        reason = gate(request, outcome, expected)
        if reason:
            self._fail(request, reason)

    def _fail(self, request, reason: str) -> None:
        self.failures.append(f"{request.name}: {reason}")
        print(f"gate: {request.name}: {reason}", file=sys.stderr)


def timed_passes(runner: Runner, seconds: float, tracer=None,
                 between=None) -> tuple[list, list, list]:
    """A warm-up pass, then timed passes until `seconds` have elapsed.

    Without a tracer every pass after the warm-up is an untraced
    measurement, followed by `between()` when given; with a tracer,
    untraced and traced passes alternate.  Returns (untraced results,
    traced results with their layer metrics, the count targets of the
    first traced pass).
    """
    runner.run_pass()
    plain, traced, targets = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(plain) < 2 or (tracer and not traced):
        plain.append(runner.run_pass())
        if between is not None:
            between()
        if tracer is not None:
            tracer.spans.clear()
            tracer.install()
            try:
                result = runner.run_pass(tracer)
            finally:
                tracer.uninstall()
            traced.append((result, layer_metrics(tracer, result)))
            if len(traced) == 1:
                targets = count_targets(tracer, runner.requests)
    return plain, traced, targets


# ----------------------------------------------------------------- metrics


# Spans that only analytic-cli enters (cmd_bounds, cmd_support,
# suite_kernels, ratio_bounds_layered) are traced but not reported:
# BENCHMARK.json leaves that workload out, so they would read 0 always.
SELF_TIME_SPANS = (
    "cli.main", "cli.cmd_power", "cli.cmd_verify",
    "config.parse_run_config", "config.encode_report",
    "suites.suite_oracles", "suites.suite_sandwich",
    "suites.suite_derivative", "suites.suite_conditional", "suites.suite_power",
    "mc.estimate_shift_prob", "mc.estimate_power", "mc.estimate_conditional_center",
    "mc.verify_derivative_identity",
    "bounds.ratio_bounds_set", "bounds.power_envelope", "bounds.build_layered",
    "lp.simplex_max", "linalg.build_covariance", "oracles.oracle_ball",
)
CALL_SPANS = ("lp.simplex_max", "linalg.build_covariance", "linalg.mahalanobis_norm",
              "kernels.shift_ratio")


def layer_metrics(tracer: Tracer, result: PassResult) -> dict:
    """Per-layer numbers of one traced pass, plus its consistency checks."""
    stats = tracer.stats()

    def get(name: str) -> LayerStats:
        return stats.get(name, LayerStats())

    metrics = {}
    for name in SELF_TIME_SPANS:
        metrics[f"{name}.self_s"] = (get(name).self_s, "s")
    for kind in BODY_KINDS:
        st = get(f"bodies.{kind}.contains_batch")
        metrics[f"bodies.{kind}.contains_batch.self_s"] = (st.self_s, "s")
        metrics[f"bodies.{kind}.contains_batch.rows"] = (st.top_rows, "count")
    metrics["bodies.contains_batch.rows"] = (
        sum(get(f"bodies.{k}.contains_batch").top_rows for k in BODY_KINDS), "count")
    metrics["bodies.support.calls"] = (
        sum(get(f"bodies.{k}.support").top_calls for k in BODY_KINDS), "count")
    for name in CALL_SPANS:
        metrics[f"{name}.calls"] = (get(name).calls, "count")

    checks = tracer.nesting_errors()
    own = sum(tracer.self_times())
    if abs(own - result.wall_s) > 0.01 * result.wall_s + 1e-3:
        checks.append(f"self times sum to {own!r} s, traced wall is {result.wall_s!r} s")
    return {"metrics": metrics, "checks": checks}


def count_targets(tracer: Tracer, requests) -> list[str]:
    """Today's exact-count expectations next to what the trace measured."""
    stats = tracer.stats(per_request=True)

    def get(i: int, name: str) -> LayerStats:
        return stats.get((i, name), LayerStats())

    lines = []
    for i, request in enumerate(requests):
        cfg = request.config
        if request.command == "power" and "mc" in cfg:
            points = sum(1 for theta in cfg["theta_grid"] if theta > 0)
            model = (1 + 2 * points) * cfg["mc"]["samples"]
            rows = sum(get(i, f"bodies.{k}.contains_batch").top_rows for k in BODY_KINDS)
            lines.append(f"{request.name}: contains_batch rows {rows}, "
                         f"(1 + 2 x {points}) x {cfg['mc']['samples']} = {model}")
        body = cfg.get("body") or (cfg.get("layers") or [{}])[0].get("body") or {}
        if body.get("kind") == "h_polytope":
            # A power grid point with an mc block solves again for its check.
            per_point = 2 if "mc" in cfg else 1
            grid = len(cfg.get("t_grid") or cfg.get("theta_grid") or ())
            directions = len(cfg.get("directions") or ())
            model = per_point * grid + 2 * directions
            calls = get(i, "lp.simplex_max").calls
            extra = f", {calls - model} nesting probes on top" if "layers" in cfg else ""
            lines.append(f"{request.name}: simplex_max calls {calls}, {per_point} x {grid} "
                         f"grid points + 2 x {directions} directions = {model}{extra}")
    return lines


def median_metrics(samples: list[dict]) -> tuple[dict, list[str]]:
    """Median time over traced passes; counts must repeat exactly."""
    out, checks = {}, []
    for name, (first, unit) in samples[0].items():
        values = [s[name][0] for s in samples]
        if unit == "count":
            if len(set(values)) != 1:
                checks.append(f"{name} differs between traced passes: {values}")
            out[name] = (first, unit)
        else:
            out[name] = (statistics.median(values), unit)
    return out, checks


# ---------------------------------------------------------------- set-up


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("SHIFTBOUNDS_THREADS", None)
    # Bytecode must be cacheable for the warm launch to mean anything.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def launch_cli(version: str) -> float:
    """Seconds for `python -m shiftbounds.cli --version` in a fresh interpreter."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "shiftbounds.cli", "--version"],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=120)
    elapsed = time.perf_counter() - start
    if done.returncode != 0 or done.stdout.strip() != version:
        raise RuntimeError(f"start-up launch failed: {done.returncode} {done.stderr[-500:]}")
    return elapsed


def provenance(threads_found: str | None) -> dict:
    import numpy
    import scipy

    git = None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=30)
        if sha.returncode == 0:
            git = {"sha": sha.stdout.strip(), "dirty": bool(status.stdout.strip())}
    except (OSError, subprocess.TimeoutExpired):
        pass
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git": git,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "shiftbounds_threads_removed": threads_found,
    }


# ------------------------------------------------------------------- main


@dataclass
class WorkloadResult:
    metrics: dict
    attempted: int
    failures: list[str]
    notes: list[str] = field(default_factory=list)
    trace_checks: list[str] = field(default_factory=list)


def load_reference(workload: str) -> dict:
    data = json.loads((REFERENCES / f"{workload}.json").read_text())
    return {entry["name"]: entry for entry in data["requests"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
                 sizes: dict | None = None) -> WorkloadResult:
    """Measure one workload; `sizes` shrinks it (no references apply then)."""
    import micro
    from shiftbounds import __version__, cli

    requests = workloads.WORKLOADS[name](seed, **(sizes or {}))
    reference = load_reference(name) if seed == DEFAULT_SEED and not sizes else None
    sub = workdir / f"{name}-{int(trace)}"
    sub.mkdir()
    runner = Runner(requests, sub, cli, reference)

    if not trace:
        # Start-up launches sit between the first passes, not in one burst.
        launch_cli(__version__)  # warm-up: caches bytecode
        launches = []

        def launch() -> None:
            if len(launches) < SETUP_LAUNCHES:
                launches.append(launch_cli(__version__))

        plain, _, _ = timed_passes(runner, seconds, between=launch)
        while len(launches) < SETUP_LAUNCHES:
            launches.append(launch_cli(__version__))
        wall, cpu = best_pass(plain)
        metrics = {
            "setup_s": (statistics.median(launches), "s"),
            "wall_s": (wall, "s"),
            "cpu_s": (cpu, "s"),
            "records_per_s": (plain[0].records / wall, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        notes = [f"{len(plain)} timed passes of {len(requests)} requests, "
                 f"{len(launches)} start-up launches",
                 "pass wall s: " + " ".join(f"{p.wall_s:.3f}" for p in plain)]
        return WorkloadResult(metrics, runner.attempted, runner.failures, notes)

    tracer = Tracer()
    plain, traced, targets = timed_passes(runner, seconds, tracer)
    plain_wall, _ = best_pass(plain)
    traced_wall, _ = best_pass([r for r, _ in traced])
    metrics, checks = median_metrics([layer["metrics"] for _, layer in traced])
    metrics["mc.samples_per_s"] = (plain[0].samples / plain_wall, "1/s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    metrics.update(micro.run(seed))
    for _, layer in traced:
        checks += layer["checks"]
    notes = [f"{len(plain)} untraced and {len(traced)} traced passes of {len(requests)} requests",
             f"untraced wall {plain_wall:.4f} s, traced wall {traced_wall:.4f} s",
             *(f"target {line}" for line in targets),
             *(f"trace check failed: {c}" for c in checks)]
    return WorkloadResult(metrics, runner.attempted, runner.failures, notes, checks)


def write_references(workload: str, workdir: Path) -> int:
    """Record the default seed's records after checking exit codes and verdicts."""
    from shiftbounds import cli

    requests = workloads.WORKLOADS[workload](DEFAULT_SEED)
    sub = workdir / workload
    sub.mkdir()
    runner = Runner(requests, sub, cli, None)
    result = runner.run_pass()
    runner.run_pass()  # a second pass must repeat the first bit for bit
    if runner.failures:
        return 1
    REFERENCES.mkdir(exist_ok=True)
    entries = [
        {"name": r.name, "config_sha256": config_digest(r.config), "records": o.records}
        for r, o in zip(requests, result.outcomes)
    ]
    path = REFERENCES / f"{workload}.json"
    path.write_text(json.dumps({"seed": DEFAULT_SEED, "requests": entries}) + "\n")
    print(f"wrote {path.relative_to(ROOT)} ({len(entries)} requests)")
    return 0


def format_metrics(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-references", action="store_true",
                        help="record the default seed's records as the new references")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "shiftbounds" / "__init__.py").is_file():
        return _fail_setup(f"no shiftbounds package under {SRC}; run from a full checkout")
    threads_found = os.environ.pop("SHIFTBOUNDS_THREADS", None)
    sys.path.insert(0, str(SRC))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.write_references:
            return max(write_references(name, workdir) for name in names)
        print("# provenance " + json.dumps(provenance(threads_found), sort_keys=True))
        modes = (False, True) if args.workload == "all" else (bool(args.trace),)
        metrics, attempted, failures = {}, 0, []
        for name in names:
            for trace in modes:
                try:
                    result = run_workload(name, args.seed, args.seconds, trace, workdir)
                except (OSError, RuntimeError, KeyError, ValueError,
                        subprocess.TimeoutExpired) as exc:
                    return _fail_setup(f"{name}: {exc}")
                prefix = f"{name}/" if len(names) > 1 else ""
                for note in result.notes:
                    print(f"# {name}: {note}")
                for metric, (value, unit) in result.metrics.items():
                    print(f"{name:14s} {metric:44s} {value:16.6f} {unit}")
                    metrics[prefix + metric] = (value, unit)
                attempted += result.attempted
                failures += result.failures
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in failures:
        print(f"# FAILED {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": format_metrics(metrics),
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
