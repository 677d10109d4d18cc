"""Config parsing, report serialization, and end-to-end CLI runs."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shiftbounds import (
    ConfigError, Direction, body_from_dict, build_covariance, lp, mahalanobis_norm, suites,
)
from shiftbounds.cli import main
from shiftbounds.config import encode_report, jsonable, parse_run_config
from shiftbounds.linalg import MAX_DIM
from shiftbounds.mc import STREAM_CAPACITY
from shiftbounds.suites import MAX_SEED, SUITES


def minimal(**extra) -> dict:
    cfg = {"dim": 2}
    cfg.update(extra)
    return cfg


SLAB_E1 = {"kind": "slab", "normal": [1.0, 0.0], "halfwidth": 1.0}
SLAB_E2 = {"kind": "slab", "normal": [0.0, 1.0], "halfwidth": 1.0}
BALL1 = {"kind": "lp_ball", "dim": 1, "p": 2.0, "radius": 1.0}

# Full `power` reports on a dense covariance, captured before the theta
# grid shared one sampling pass: one config estimates the size, the
# other gives alpha; both check an unsorted grid with 0.0 in it.
PINNED_POWER = json.loads(
    (Path(__file__).parent / "data" / "cli_power_records.json").read_text()
)

# Full `bounds` reports on the same dense covariance, captured before a
# grid shared one support evaluation: a layered weight with an
# H-polytope outer layer, and an H-polytope body.  Both grids are
# unsorted and hold 0.0, a repeat and 1e400 (parsed as inf).
PINNED_BOUNDS = json.loads(
    (Path(__file__).parent / "data" / "cli_bounds_records.json").read_text()
)

# Full `verify` records of the five Monte Carlo suites at 20,000 samples,
# captured before the suites shared one scorer; every stderr in them is
# above 0.
PINNED_VERIFY = json.loads(
    (Path(__file__).parent / "data" / "cli_verify_records.json").read_text()
)

# Full `support` reports captured before a support call returned its
# attaining point: every body kind, zero directions, unbounded values
# with a null point, and intersections of one and of two parts.
PINNED_SUPPORT = json.loads(
    (Path(__file__).parent / "data" / "cli_support_records.json").read_text()
)

# A JSON integer past the float range, which float() cannot convert, and
# the config fragment that places it in each numeric field.
HUGE_INT = 10**400
HUGE_FIELDS = {
    "alpha": '"alpha": HUGE',
    "t_grid[1]": '"t_grid": [1.0, HUGE]',
    "u": '"u": [1.0, HUGE]',
    "directions[0]": '"directions": [[1.0, HUGE]]',
    "fault_upper_scale": '"fault_upper_scale": HUGE',
    "mc.z_threshold": '"mc": {"samples": 10, "z_threshold": HUGE}',
    "body.halfwidth": '"body": {"kind": "slab", "normal": [1.0, 0.0], "halfwidth": HUGE}',
    "body.normal": '"body": {"kind": "slab", "normal": [1.0, HUGE], "halfwidth": 1.0}',
    "body.p": '"body": {"kind": "lp_ball", "dim": 2, "p": HUGE, "radius": 1.0}',
    "body.normals": '"body": {"kind": "h_polytope", "normals": [[1.0, HUGE]], "offsets": [1.0]}',
    "layers[0].weight": '"layers": [{"weight": HUGE, "body": %s}]' % json.dumps(SLAB_E1),
    "sigma.entries": '"sigma": {"kind": "diagonal", "entries": [1.0, HUGE]}',
    "sigma.matrix": '"sigma": {"kind": "dense", "matrix": [[1.0, 0.0], [0.0, HUGE]]}',
    "body.offsets": '"body": {"kind": "h_polytope", "normals": [[1.0, 0.0]], "offsets": [HUGE]}',
    "body.matrix": '"body": {"kind": "ellipsoid", "matrix": [[HUGE, 0.0], [0.0, 1.0]]}',
    "layers[0].body.matrix": '"layers": [{"weight": 1.0, "body": {"kind": "linear_image",'
    ' "base": %s, "matrix": [[1.0, HUGE], [0.0, 1.0]]}}]' % json.dumps(SLAB_E1),
}


class TestParseRunConfig:
    def test_minimal(self):
        cfg = parse_run_config(minimal())
        assert cfg.cov.dim == 2
        assert cfg.cov.is_identity
        assert cfg.u is None and cfg.body is None and cfg.layers is None
        assert cfg.fault_upper_scale == 1.0
        assert cfg.warnings == ()

    @pytest.mark.parametrize("raw", [[], "x", 3, None])
    def test_not_an_object(self, raw):
        with pytest.raises(ConfigError, match="expected a JSON object"):
            parse_run_config(raw)

    @pytest.mark.parametrize("dim", [None, 0, -1, 2.0, True, "2", 65, 10**12])
    def test_bad_dim(self, dim):
        with pytest.raises(ConfigError, match="dim"):
            parse_run_config({"dim": dim})

    def test_sigma_kinds(self):
        ident = parse_run_config(minimal(sigma={"kind": "identity"}))
        assert ident.cov.is_identity
        diag = parse_run_config(minimal(sigma={"kind": "diagonal", "entries": [4.0, 1.0]}))
        assert diag.cov.matrix[0, 0] == 4.0
        dense = parse_run_config(
            minimal(sigma={"kind": "dense", "matrix": [[2.0, 0.5], [0.5, 1.0]]})
        )
        assert dense.cov.matrix[0, 1] == 0.5

    @pytest.mark.parametrize(
        "sigma, message",
        [
            ({"kind": "spherical"}, "unknown kind"),
            ({"kind": "diagonal", "entries": [1.0]}, "entries"),
            ({"kind": "dense", "matrix": [[1.0, 0.5], [0.4, 1.0]]}, "sigma"),
            ({}, "kind"),
            ("identity", "kind"),
            ({"kind": "diagonal", "entries": [True, 1.0]}, r"^sigma\.entries: \[0\]: "),
            ({"kind": "diagonal", "entries": [1.0, "1"]}, r"^sigma\.entries: \[1\]: "),
            ({"kind": "dense", "matrix": [[1.0, False], [0.0, 1.0]]},
             r"^sigma\.matrix: \[0\]\[1\]: "),
            ({"kind": "dense", "matrix": [["1", 0.0], [0.0, 1.0]]},
             r"^sigma\.matrix: \[0\]\[0\]: "),
        ],
    )
    def test_bad_sigma(self, sigma, message):
        with pytest.raises(ConfigError, match=message):
            parse_run_config(minimal(sigma=sigma))

    def test_u_normalization_warning(self):
        cfg = parse_run_config(minimal(u=[3.0, 4.0]))
        assert cfg.u is not None
        np.testing.assert_allclose(cfg.u.entries, [0.6, 0.8], rtol=1e-15)
        assert any("normalized" in w for w in cfg.warnings)
        # A unit vector loads silently.
        assert parse_run_config(minimal(u=[0.0, 1.0])).warnings == ()

    @pytest.mark.parametrize(
        "u", [[1.0], [0.0, 0.0], [1.0, "x"], "e1", [True, 0.0], ["1", 0.0]]
    )
    def test_bad_u(self, u):
        with pytest.raises(ConfigError, match="^u: "):
            parse_run_config(minimal(u=u))

    def test_body_and_layers_are_exclusive(self):
        layers = [{"weight": 1.0, "body": SLAB_E1}]
        with pytest.raises(ConfigError, match="one or the other"):
            parse_run_config(minimal(body=SLAB_E1, layers=layers))

    def test_body_dimension_mismatch(self):
        slab3 = {"kind": "slab", "normal": [1.0, 0.0, 0.0], "halfwidth": 1.0}
        with pytest.raises(ConfigError, match="does not match dim"):
            parse_run_config(minimal(body=slab3))

    def test_layers_parse(self):
        cfg = parse_run_config(
            minimal(
                layers=[
                    {"weight": 1.0, "body": {"kind": "lp_ball", "dim": 2, "p": 2.0, "radius": 2.0}},
                    {"weight": 0.5, "body": {"kind": "lp_ball", "dim": 2, "p": 2.0, "radius": 1.0}},
                ]
            )
        )
        assert cfg.layers is not None and len(cfg.layers.layers) == 2

    @pytest.mark.parametrize(
        "layers, message",
        [
            ([], "nonempty"),
            ([{"weight": 1.0}], r"layers\[0\].body"),
            ([{"body": SLAB_E1}], r"layers\[0\].weight"),
            ([{"weight": -1.0, "body": SLAB_E1}], r"layers\[0\]"),
        ],
    )
    def test_bad_layers(self, layers, message):
        with pytest.raises(ConfigError, match=message):
            parse_run_config(minimal(layers=layers))

    def test_grids(self):
        cfg = parse_run_config(minimal(t_grid=[0, 1.5], theta_grid=[2]))
        assert cfg.t_grid == (0.0, 1.5)
        assert cfg.theta_grid == (2.0,)

    @pytest.mark.parametrize(
        "grid", [[], [-1.0], [float("nan")], ["1"], [True], [1.0, HUGE_INT]]
    )
    def test_bad_grid(self, grid):
        with pytest.raises(ConfigError, match="t_grid"):
            parse_run_config(minimal(t_grid=grid))

    @pytest.mark.parametrize(
        "alpha", [0.0, 1.0, -0.1, "0.05", True, pytest.param(HUGE_INT, id="huge_int")]
    )
    def test_bad_alpha(self, alpha):
        with pytest.raises(ConfigError, match="alpha"):
            parse_run_config(minimal(alpha=alpha))

    def test_mc_block(self):
        cfg = parse_run_config(minimal(mc={"samples": 1000}))
        assert cfg.mc.samples == 1000
        assert cfg.mc.seed == 0
        full = parse_run_config(minimal(mc={"samples": 10, "seed": 7}))
        assert (full.mc.samples, full.mc.seed) == (10, 7)
        # Every check compares at mc.Z_THRESHOLD; a threshold is no option.
        with pytest.raises(ConfigError, match=r"^mc\.z_threshold: unknown field$"):
            parse_run_config(minimal(mc={"samples": 10, "seed": 7, "z_threshold": 5.0}))

    @pytest.mark.parametrize(
        "extra, field",
        [({"sead": 3}, "sead"), ({"fault_upper_scal": 0.5}, "fault_upper_scal"),
         ({"mc": {"samples": 10, "sead": 3}}, "mc.sead")],
        ids=["top_level", "fault_scale_typo", "mc"],
    )
    def test_unknown_field_is_named(self, extra, field):
        with pytest.raises(ConfigError, match=rf"^{re.escape(field)}: unknown field$"):
            parse_run_config(minimal(**extra))

    @pytest.mark.parametrize(
        "extra, field",
        [
            ({"body": {**SLAB_E1, "halfwdith": 2.0}}, "body.halfwdith"),
            ({"body": {"kind": "intersection", "parts": [{**SLAB_E1, "radius": 1.0}]}},
             "body.parts[0].radius"),
            ({"body": {"kind": "linear_image", "base": {**SLAB_E1, "p": 2.0},
                       "matrix": [[1.0, 0.0], [0.0, 1.0]]}}, "body.base.p"),
            ({"body": {"kind": "lp_ball", "dim": 2, "p": 2.0, "radius": 1.0,
                       "normal": [1.0, 0.0]}}, "body.normal"),
            ({"sigma": {"kind": "identity", "entries": [4.0, 9.0]}}, "sigma.entries"),
            ({"sigma": {"kind": "diagonal", "entries": [4.0, 9.0], "matrix": [[4.0]]}},
             "sigma.matrix"),
            ({"layers": [{"weight": 1.0, "body": SLAB_E1},
                         {"weight": 1.0, "body": SLAB_E2, "wieght": 2.0}]}, "layers[1].wieght"),
            ({"layers": [{"weight": 1.0, "body": {**SLAB_E2, "halfwdith": 2.0}}]},
             "layers[0].body.halfwdith"),
        ],
        ids=["body", "part", "base", "lp_ball", "sigma_identity", "sigma_diagonal",
             "layer", "layer_body"],
    )
    def test_unknown_nested_field_is_named(self, extra, field):
        with pytest.raises(ConfigError, match=rf"^{re.escape(field)}: unknown field$"):
            parse_run_config(minimal(**extra))

    @pytest.mark.parametrize(
        "mc", [{}, {"samples": 0}, {"samples": 1.5}, {"samples": 10, "seed": -1},
               {"samples": 10, "z_threshold": 0.0}, {"samples": 10, "seed": 2**64},
               {"samples": 10, "z_threshold": math.inf},
               {"samples": 10, "z_threshold": HUGE_INT}, "fast",
               {"samples": STREAM_CAPACITY + 1}]
    )
    def test_bad_mc(self, mc):
        with pytest.raises(ConfigError, match="mc"):
            parse_run_config(minimal(mc=mc))

    def test_largest_seed(self):
        cfg = parse_run_config(minimal(mc={"samples": 10, "seed": 2**64 - 1}))
        assert cfg.mc.seed == 2**64 - 1

    def test_largest_sample_count(self):
        # One past it is a case of test_bad_mc.
        assert STREAM_CAPACITY == 2**64
        cfg = parse_run_config(minimal(mc={"samples": STREAM_CAPACITY}))
        assert cfg.mc.samples == STREAM_CAPACITY

    def test_largest_suite_seed(self):
        # seed * 1000003 + 1201 (the largest check offset) stays below 2^64.
        assert MAX_SEED == 18_446_688_733_643
        assert MAX_SEED * 1000003 + 1201 < 2**64 <= (MAX_SEED + 1) * 1000003 + 1201
        cfg = parse_run_config(minimal(suite="power", mc={"samples": 10, "seed": MAX_SEED}))
        assert cfg.mc.seed == MAX_SEED
        with pytest.raises(ConfigError, match="^mc.seed: "):
            parse_run_config(minimal(suite="power", mc={"samples": 10, "seed": MAX_SEED + 1}))
        # Without a suite the seed feeds one stream directly.
        assert parse_run_config(minimal(mc={"samples": 10, "seed": MAX_SEED + 1})).mc

    def test_every_suite_runs_at_the_largest_seed(self, monkeypatch):
        # MAX_SEED_OFFSET is kept by hand: it must be the largest offset a
        # check adds to seed * SEED_STRIDE, and every suite must run at
        # MAX_SEED without a stream seed past 2^64.
        seeds = []
        run_plans = suites.run_plans

        def recording(plans):
            seeds.extend(walk.seed for plan in plans for walk in plan.walks)
            return run_plans(plans)

        monkeypatch.setattr(suites, "run_plans", recording)
        for name in ("oracles", "sandwich", "derivative", "conditional", "power"):
            assert SUITES[name](samples=2000, seed=MAX_SEED), name
        assert max(seeds) == MAX_SEED * suites.SEED_STRIDE + suites.MAX_SEED_OFFSET

    def test_suite_membership(self):
        assert parse_run_config(minimal(suite="kernels")).suite == "kernels"
        with pytest.raises(ConfigError, match="unknown suite"):
            parse_run_config(minimal(suite="everything"))

    @pytest.mark.parametrize(
        "scale", [0.0, -0.5, "half", True, math.inf, pytest.param(HUGE_INT, id="huge_int")]
    )
    def test_bad_fault_scale(self, scale):
        with pytest.raises(ConfigError, match="fault_upper_scale"):
            parse_run_config(minimal(fault_upper_scale=scale))

    def test_fault_scale_only_with_the_sandwich_suite(self):
        assert parse_run_config(minimal(suite="sandwich", fault_upper_scale=0.5)).suite
        for suite in sorted(SUITES):
            cfg = parse_run_config(minimal(suite=suite, fault_upper_scale=1.0))
            assert cfg.fault_upper_scale == 1.0
        for extra in ({"suite": "power"}, {}):
            with pytest.raises(ConfigError, match="^fault_upper_scale: "):
                parse_run_config(minimal(fault_upper_scale=0.5, **extra))

    def test_directions(self):
        cfg = parse_run_config(minimal(directions=[[3.0, -4.0], [1.0, 0.0]]))
        assert len(cfg.directions) == 2
        with pytest.raises(ConfigError, match=r"directions\[0\]"):
            parse_run_config(minimal(directions=[[1.0]]))
        with pytest.raises(ConfigError, match="nonempty"):
            parse_run_config(minimal(directions=[]))
        with pytest.raises(ConfigError, match=r"^directions\[1\]: \[0\]: "):
            parse_run_config(minimal(directions=[[1.0, 0.0], [True, 0.0]]))
        with pytest.raises(ConfigError, match=r"^directions\[0\]: \[1\]: "):
            parse_run_config(minimal(directions=[[1.0, "0"]]))

    def test_direction_past_the_double_range_warns_inf(self):
        # Its norm overflows; numpy said so with a RuntimeWarning.
        cfg = parse_run_config({"dim": 4, "u": [1e308] * 4})
        assert cfg.warnings == ("u normalized on load (input norm was inf)",)
        np.testing.assert_array_equal(cfg.u.entries, np.full(4, 0.5))

    def test_readme_examples_load(self):
        # A tightened grammar must not leave a documented example behind.
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        configs, bodies = [], []
        for block in re.findall(r"```json\n(.*?)```", readme, re.S):
            try:
                configs.append(json.loads(block))
            except json.JSONDecodeError:  # one body per line
                bodies += [json.loads(line) for line in block.splitlines() if "..." not in line]
        assert (len(configs), len(bodies)) == (3, 4)
        for raw in configs:
            parse_run_config(raw)
        for raw in bodies:
            body_from_dict(raw)


class TestSerialization:
    def test_jsonable_nonfinite(self):
        assert jsonable(math.inf) == "inf"
        assert jsonable(-math.inf) == "-inf"
        with pytest.raises(ConfigError, match="NaN"):
            jsonable({"x": math.nan})

    def test_jsonable_numpy(self):
        out = jsonable(
            {
                "f": np.float64(0.5),
                "i": np.int32(3),
                "b": np.bool_(True),
                "arr": np.array([1.0, math.inf]),
            }
        )
        assert out == {"f": 0.5, "i": 3, "b": True, "arr": [1.0, "inf"]}
        assert isinstance(out["f"], float) and isinstance(out["i"], int)

    def test_floats_round_trip_exactly(self):
        values = [0.1 + 0.2, 1e-17, 0.6990731123718361, 2.0 ** -52]
        text = encode_report({"records": values})
        assert json.loads(text)["records"] == values

    def test_sorted_keys(self):
        text = encode_report({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')


def write_config(tmp_path, name: str, payload: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(tmp_path, command: str, payload: dict, csv: bool = False):
    cfg = write_config(tmp_path, f"{command}.json", payload)
    out = tmp_path / f"{command}_report.json"
    argv = [command, "--config", cfg, "--out", str(out)]
    csv_path = tmp_path / f"{command}.csv"
    if csv:
        argv += ["--csv", str(csv_path)]
    code = main(argv)
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report, (csv_path.read_text() if csv else None)


class TestCliMissingFields:
    """Each command names the first field it needs and the config lacks."""

    @pytest.mark.parametrize(
        "command, payload, message",
        [
            ("bounds", {}, "u: required for the bounds command"),
            ("bounds", {"u": [1.0, 0.0]}, "t_grid: required for the bounds command"),
            ("bounds", {"u": [1.0, 0.0], "t_grid": [1.0]}, "body: bounds needs a body or layers"),
            ("power", {}, "u: required for the power command"),
            ("power", {"u": [1.0, 0.0]}, "body: required for the power command"),
            ("power", {"u": [1.0, 0.0], "body": SLAB_E1},
             "theta_grid: required for the power command"),
            ("power", {"u": [1.0, 0.0], "body": SLAB_E1, "theta_grid": [1.0]},
             "alpha: give alpha or an mc block to estimate the size"),
            ("verify", {}, "suite: required for the verify command"),
            ("support", {}, "body: required for the support command"),
            ("support", {"body": SLAB_E1}, "directions: required for the support command"),
        ],
        ids=["bounds-u", "bounds-t_grid", "bounds-body", "power-u", "power-body",
             "power-theta_grid", "power-alpha", "verify-suite", "support-body",
             "support-directions"],
    )
    def test_every_missing_field_is_a_usage_error(
        self, tmp_path, capsys, command, payload, message
    ):
        code, report, _ = run_cli(tmp_path, command, minimal(**payload))
        assert code == 2 and report is None
        assert capsys.readouterr().err == f"error: {message}\n"


class TestCliBounds:
    def test_slab_grid(self, tmp_path):
        code, report, csv_text = run_cli(
            tmp_path,
            "bounds",
            {
                "dim": 2,
                "u": [1.0, 0.0],
                "body": SLAB_E1,
                "t_grid": [0.0, 1.0, 2.0],
            },
            csv=True,
        )
        assert code == 0
        assert report["command"] == "bounds"
        records = report["records"]
        uppers = [r["upper"] for r in records]
        assert uppers[0] == 1.0
        assert uppers[1] == pytest.approx(0.6990731123718361, rel=1e-12)
        assert uppers[2] == pytest.approx(0.23042006316429375, rel=1e-12)
        for r, t in zip(records, (0.0, 1.0, 2.0)):
            assert r["lower"] == pytest.approx(math.exp(-0.5 * t * t), rel=1e-12)
            assert r["exactness"] == "exact"
            assert r["exponent_a"] == 1.0
            assert r["provenance"] == "analytic"
        lines = csv_text.strip().splitlines()
        assert lines[0] == "t,lower,upper,exponent_a,exactness"
        assert len(lines) == 4 and lines[1].startswith("0.0,")

    def test_missing_field_is_usage_error(self, tmp_path, capsys):
        code, report, _ = run_cli(
            tmp_path, "bounds", {"dim": 2, "u": [1.0, 0.0], "body": SLAB_E1}
        )
        assert code == 2 and report is None
        assert "t_grid" in capsys.readouterr().err

    def test_normalization_warning_reaches_stderr(self, tmp_path, capsys):
        code, report, _ = run_cli(
            tmp_path,
            "bounds",
            {"dim": 2, "u": [2.0, 0.0], "body": SLAB_E1, "t_grid": [1.0]},
        )
        assert code == 0
        assert "normalized" in capsys.readouterr().err
        assert report["warnings"]
        assert report["records"][0]["upper"] == pytest.approx(0.6990731123718361, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_tiny_and_huge_directions_load(self, tmp_path, scale):
        # Their squares underflow or overflow; the direction does not.
        def payload(x):
            body = {"kind": "slab", "normal": [x, x], "halfwidth": 1.0}
            return {"dim": 2, "u": [x, -x], "body": body, "t_grid": [0.5]}

        code, report, _ = run_cli(tmp_path, "bounds", payload(scale))
        assert code == 0
        (warning,) = report["warnings"]
        norm = float(warning.removeprefix("u normalized on load (input norm was ")[:-1])
        assert norm == pytest.approx(scale * math.sqrt(2.0), rel=1e-15)
        _, unit, _ = run_cli(tmp_path, "bounds", payload(1.0))
        assert report["records"] == unit["records"]

    @pytest.mark.filterwarnings("error")
    def test_huge_sigma_box_matches_its_linf_ball(self, tmp_path):
        # Sigma^{-1} u = 1e-10 e1: an absolute LP tolerance read its
        # support as 0, so the exponent as 0 and the upper bound as the
        # lower one, flagged exact.
        sigma = {"kind": "diagonal", "entries": [1e10, 1e10]}
        box = {"kind": "h_polytope", "normals": [[1.0, 0.0], [0.0, 1.0]], "offsets": [1e5, 1e5]}
        ball = {"kind": "lp_ball", "dim": 2, "p": "inf", "radius": 1e5}
        records = []
        for body in (box, ball):
            cfg = {"dim": 2, "sigma": sigma, "u": [1.0, 0.0], "body": body, "t_grid": [1e5]}
            code, report, _ = run_cli(tmp_path, "bounds", cfg)
            assert code == 0
            records.append(report["records"])
        assert records[0] == records[1]
        (record,) = records[0]
        assert (record["exponent_a"], record["exactness"]) == (1.0, "exact")
        assert record["upper"] == 0.6990731123718362

    @pytest.mark.filterwarnings("error")
    def test_tiny_sigma_slab_is_unbounded_across_u(self, tmp_path):
        # Sigma^{-1} u is about 7e199 (1, 1), across the slab's normal: its
        # squares overflowed and the slab read as parallel to it.
        cfg = {
            "dim": 2, "sigma": {"kind": "diagonal", "entries": [1e-200, 1e-200]},
            "u": [1.0, 1.0], "body": {"kind": "slab", "normal": [1.0, 0.0], "halfwidth": 1e-100},
            "t_grid": [1e-100],
        }
        code, report, _ = run_cli(tmp_path, "bounds", cfg)
        assert code == 0
        (record,) = report["records"]
        assert (record["exponent_a"], record["upper"]) == ("inf", 1.0)

    @pytest.mark.filterwarnings("error")
    def test_tiny_dense_sigma_builds(self, tmp_path):
        # Its Frobenius norm underflowed, so the eigensolver returned the
        # diagonal and the Mahalanobis cross-check refused the covariance.
        cfg = {
            "dim": 2, "sigma": {"kind": "dense", "matrix": [[2e-170, 1e-170], [1e-170, 2e-170]]},
            "u": [1.0, 1.0], "body": {"kind": "slab", "normal": [1.0, 1.0], "halfwidth": 1e-85},
            "t_grid": [1e-85],
        }
        code, report, _ = run_cli(tmp_path, "bounds", cfg)
        assert code == 0
        (record,) = report["records"]
        # The slab's normal is u, an eigenvector: a = t m = sqrt(1/3).
        assert record["exponent_a"] == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-14)
        assert record["lower"] == pytest.approx(math.exp(-1.0 / 6.0), rel=1e-14)
        assert record["exactness"] == "exact"


def count_simplex_calls(monkeypatch) -> list:
    calls = []
    original = lp.simplex_max

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(lp, "simplex_max", counting)
    return calls


class TestCliBoundsGrid:
    @pytest.mark.parametrize("name", sorted(PINNED_BOUNDS))
    def test_records_are_pinned(self, tmp_path, name):
        # Shortest-repr floats round-trip, so list equality is bit-exact.
        code, report, _ = run_cli(tmp_path, "bounds", PINNED_BOUNDS[name]["config"])
        assert code == 0
        assert report["records"] == PINNED_BOUNDS[name]["records"]

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("bounds", PINNED_BOUNDS["h_polytope"]["config"]),
            ("power", PINNED_POWER["given"]["config"]),
        ],
        ids=["bounds", "power"],
    )
    def test_h_polytope_support_is_solved_once(self, tmp_path, monkeypatch, command, payload):
        # Every t (every theta, and every theta's Monte Carlo verdict)
        # shares the one exponent, so the support LP runs once per run.
        calls = count_simplex_calls(monkeypatch)
        code, report, _ = run_cli(tmp_path, command, payload)
        assert code == 0
        grid = payload.get("t_grid") or payload["theta_grid"]
        assert len(report["records"]) >= len(grid) > 1
        assert len(calls) == 1


class TestCliPower:
    def test_orthogonal_slab_envelope(self, tmp_path):
        code, report, _ = run_cli(
            tmp_path,
            "power",
            {
                "dim": 2,
                "u": [1.0, 0.0],
                "body": SLAB_E2,
                "alpha": 0.05,
                "theta_grid": [2.0],
            },
        )
        assert code == 0
        record = report["records"][0]
        # Shift orthogonal to the slab normal: no separation, so the
        # lower envelope stays at the size while the Gaussian-decay
        # upper envelope is all that remains.
        assert record["exponent_a"] == "inf"
        assert record["beta_lower"] == pytest.approx(0.05, rel=1e-12)
        assert record["beta_upper"] == pytest.approx(0.8714314809252179, rel=1e-12)

    def test_mc_verdict_rows(self, tmp_path):
        code, report, _ = run_cli(
            tmp_path,
            "power",
            {
                "dim": 2,
                "u": [1.0, 0.0],
                "body": {"kind": "lp_ball", "dim": 2, "p": 2.0, "radius": 2.0},
                "theta_grid": [1.0],
                "mc": {"samples": 100000, "seed": 3},
            },
        )
        assert code == 0
        kinds = [r.get("kind") for r in report["records"]]
        assert "alpha_estimate" in kinds and "power_estimate" in kinds
        verdict = next(r for r in report["records"] if r.get("kind") == "power_estimate")
        assert verdict["passed"] is True
        assert verdict["beta_lower"] <= verdict["value"] + 4.0 * verdict["stderr"]

    @pytest.mark.parametrize("name", sorted(PINNED_POWER))
    def test_records_are_pinned(self, tmp_path, name):
        # Shortest-repr floats round-trip, so list equality is bit-exact.
        code, report, _ = run_cli(tmp_path, "power", PINNED_POWER[name]["config"])
        assert code == 0
        assert report["records"] == PINNED_POWER[name]["records"]

    def test_infinite_theta_is_rejected_by_the_mc_check(self, tmp_path, capsys):
        # JSON 1e400 parses to inf; the analytic envelope has a limit there,
        # a Monte Carlo shift does not.
        base = '"dim": 2, "u": [1.0, 0.0], "body": %s, "theta_grid": [1.0, 1e400]' % (
            json.dumps(SLAB_E2)
        )
        analytic = tmp_path / "analytic.json"
        analytic.write_text('{%s, "alpha": 0.05}' % base)
        out = tmp_path / "analytic_report.json"
        assert main(["power", "--config", str(analytic), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["records"][1]["theta"] == "inf"
        sampled = tmp_path / "sampled.json"
        sampled.write_text('{%s, "mc": {"samples": 1000, "seed": 3}}' % base)
        assert main(["power", "--config", str(sampled), "--out", str(tmp_path / "x")]) == 2
        assert "finite" in capsys.readouterr().err


class TestCliSupport:
    @pytest.mark.parametrize("name", sorted(PINNED_SUPPORT))
    def test_records_are_pinned(self, tmp_path, name):
        # Shortest-repr floats round-trip, so list equality is bit-exact.
        code, report, _ = run_cli(tmp_path, "support", PINNED_SUPPORT[name]["config"])
        assert code == 0
        assert report["records"] == PINNED_SUPPORT[name]["records"]

    def test_h_polytope_direction_is_solved_once(self, tmp_path, monkeypatch):
        # One LP gives each direction's value and its vertex.
        payload = PINNED_SUPPORT["h_polytope"]["config"]
        calls = count_simplex_calls(monkeypatch)
        code, report, _ = run_cli(tmp_path, "support", payload)
        assert code == 0
        assert len(report["records"]) == len(payload["directions"]) > 1
        assert len(calls) == len(payload["directions"])

    def test_support_values(self, tmp_path):
        code, report, _ = run_cli(
            tmp_path,
            "support",
            {
                "dim": 2,
                "body": {"kind": "lp_ball", "dim": 2, "p": 1.0, "radius": 1.0},
                "directions": [[3.0, -4.0]],
            },
        )
        assert code == 0
        record = report["records"][0]
        assert record["value"] == pytest.approx(4.0, rel=1e-15)
        assert record["exactness"] == "exact"
        assert record["point"] == [0.0, -1.0]

    def test_unbounded_direction_serializes_as_inf(self, tmp_path):
        code, report, _ = run_cli(
            tmp_path,
            "support",
            {"dim": 2, "body": SLAB_E2, "directions": [[1.0, 0.0]]},
        )
        assert code == 0
        record = report["records"][0]
        assert record["value"] == "inf"
        assert record["point"] is None

    def test_ellipsoid_axis(self, tmp_path):
        code, report, _ = run_cli(
            tmp_path,
            "support",
            {
                "dim": 2,
                "body": {"kind": "ellipsoid", "matrix": [[0.25, 0.0], [0.0, 0.25]]},
                "directions": [[1.0, 0.0]],
            },
        )
        assert code == 0
        assert report["records"][0]["value"] == pytest.approx(2.0, rel=1e-12)


def _max_dim_case() -> tuple[dict, dict]:
    """A dense Sigma and a unit u at MAX_DIM, and one body of each kind.

    Each body holds about half to three quarters of the mass, so the
    estimated size of the power test is not degenerate.
    """
    rng = np.random.default_rng(MAX_DIM)
    n = MAX_DIM

    def spd():
        b = rng.standard_normal((n, n))
        return b @ b.T / n + 0.5 * np.eye(n)

    sigma = spd()
    u = Direction.from_vector(rng.standard_normal(n)).entries
    ellipsoid = spd()
    ellipsoid /= np.trace(ellipsoid @ sigma)
    normals = rng.standard_normal((2 * n, n))
    offsets = 3.0 * np.sqrt(np.einsum("ij,jk,ik->i", normals, sigma, normals))
    slab = {"kind": "slab", "normal": rng.standard_normal(n).tolist(), "halfwidth": 1.5}
    bodies = {
        "slab": slab,
        "lp_ball": {"kind": "lp_ball", "dim": n, "p": 2.0, "radius": 10.0},
        "ellipsoid": {"kind": "ellipsoid", "matrix": ellipsoid.tolist()},
        "h_polytope": {"kind": "h_polytope", "normals": normals.tolist(),
                       "offsets": offsets.tolist()},
        "intersection": {"kind": "intersection", "parts": [
            {"kind": "lp_ball", "dim": n, "p": "inf", "radius": 4.0}, slab,
        ]},
        "linear_image": {
            "kind": "linear_image",
            "base": {"kind": "lp_ball", "dim": n, "p": 1.0, "radius": 60.0},
            "matrix": (np.eye(n) + 0.1 * rng.standard_normal((n, n))).tolist(),
        },
    }
    return {"dim": n, "sigma": {"kind": "dense", "matrix": sigma.tolist()},
            "u": u.tolist()}, bodies


MAX_DIM_BASE, MAX_DIM_BODIES = _max_dim_case()


@pytest.fixture(scope="module")
def max_dim_exponent_direction():
    """(Sigma^{-1} u, ||Sigma^{-1/2} u||) as the CLI computes them."""
    cov = build_covariance(np.array(MAX_DIM_BASE["sigma"]["matrix"]))
    u = Direction.from_vector(np.array(MAX_DIM_BASE["u"]))
    return cov.solve(u.entries), mahalanobis_norm(cov, u)


class TestCliMaxDim:
    """Every command on every body kind at d = MAX_DIM, dense Sigma."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", sorted(MAX_DIM_BODIES))
    def test_bounds_power_and_support(
        self, tmp_path, monkeypatch, max_dim_exponent_direction, kind
    ):
        # The 128-row support LP takes seconds in the dense simplex; all
        # three commands ask it along Sigma^{-1} u, so it is solved once.
        solved = {}
        solve = lp.simplex_max

        def solve_once(c, a, b):
            key = (c.tobytes(), a.tobytes(), b.tobytes())
            if key not in solved:
                solved[key] = solve(c, a, b)
            return solved[key]

        monkeypatch.setattr(lp, "simplex_max", solve_once)
        body = MAX_DIM_BODIES[kind]
        exactness = "upper_bound" if kind == "intersection" else "exact"
        v, m = max_dim_exponent_direction

        code, report, _ = run_cli(
            tmp_path, "bounds", {**MAX_DIM_BASE, "body": body, "t_grid": [0.0, 0.5, 2.0]}
        )
        assert code == 0
        records = report["records"]
        assert records[0]["lower"] == records[0]["upper"] == 1.0
        for r in records:
            assert 0.0 < r["lower"] <= r["upper"] <= 1.0
            assert r["exactness"] == exactness
        exponent = records[0]["exponent_a"]

        code, report, _ = run_cli(tmp_path, "power", {
            **MAX_DIM_BASE, "body": body, "theta_grid": [0.5, 2.0],
            "mc": {"samples": 4000, "seed": 5},
        })
        assert code == 0
        analytic = [r for r in report["records"] if r["provenance"] == "analytic"]
        sampled = [r for r in report["records"] if r.get("kind") == "power_estimate"]
        assert len(analytic) == len(sampled) == 2
        for r in analytic:
            assert 0.0 <= r["beta_lower"] <= r["beta_upper"] <= 1.0
            assert (r["exponent_a"], r["exactness"]) == (exponent, exactness)
        assert all(r["passed"] for r in sampled)

        payload = {"dim": MAX_DIM, "body": body, "directions": [v.tolist()]}
        code, report, _ = run_cli(tmp_path, "support", payload)
        assert code == 0
        (record,) = report["records"]
        assert record["exactness"] == exactness
        assert float(record["value"]) / m == float(exponent)  # "inf" for the slab
        if kind == "h_polytope":
            assert len(solved) == 1


class TestCliVerify:
    def test_kernels_suite_passes(self, tmp_path):
        code, report, csv_text = run_cli(
            tmp_path, "verify", {"dim": 2, "suite": "kernels"}, csv=True
        )
        assert code == 0
        assert report["records"] and all(r["passed"] for r in report["records"])
        assert csv_text.splitlines()[0] == "check,passed,statistic"

    def test_sandwich_suite_passes(self, tmp_path):
        code, report, _ = run_cli(
            tmp_path,
            "verify",
            {"dim": 2, "suite": "sandwich", "mc": {"samples": 150000, "seed": 0}},
        )
        assert code == 0
        assert all(r["passed"] for r in report["records"])

    @pytest.mark.parametrize("suite", sorted(PINNED_VERIFY))
    def test_records_are_pinned(self, tmp_path, suite):
        code, report, _ = run_cli(tmp_path, "verify", PINNED_VERIFY[suite]["config"])
        assert report["records"] == PINNED_VERIFY[suite]["records"]
        assert code == (0 if all(r["passed"] for r in report["records"]) else 1)

    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_one_sample_gives_a_verdict_or_a_refusal(self, tmp_path, capsys, suite):
        # One sample has stderr 0: a check passes only if its estimate is
        # exact, and no check may crash on the division.
        code, _, _ = run_cli(
            tmp_path, "verify", {"dim": 1, "suite": suite, "mc": {"samples": 1, "seed": 0}}
        )
        assert "Traceback" not in capsys.readouterr().err
        if suite == "kernels":
            assert code == 0  # analytic: it draws no samples
        elif suite == "oracles":
            assert code == 1
        else:
            assert code in (1, 2)

    @pytest.mark.parametrize("suite", ["oracles", "sandwich", "power"])
    def test_indicator_records_do_not_depend_on_blas_threads(self, tmp_path, suite):
        # These suites make only small BLAS calls, which OpenBLAS keeps on
        # the calling thread: one gemm per piece, within m*n*k <= 262,144 at
        # every d <= 8.  Only the whole-chunk ddot square sums of the
        # conditional and derivative checks, not run here, are threaded.  A
        # record that came to depend on the thread count would differ from
        # the single-thread child's.
        payload = {"dim": 2, "suite": suite, "mc": {"samples": 20000, "seed": 3}}
        code, report, _ = run_cli(tmp_path, "verify", payload)
        out = tmp_path / "single_thread.json"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        child = subprocess.run(
            [sys.executable, "-m", "shiftbounds.cli", "verify",
             "--config", str(tmp_path / "verify.json"), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert child.returncode == code, child.stderr
        assert json.loads(out.read_text())["records"] == report["records"]

    def test_fault_injection_fails_the_run(self, tmp_path):
        code, report, _ = run_cli(
            tmp_path,
            "verify",
            {
                "dim": 2,
                "suite": "sandwich",
                "mc": {"samples": 100000, "seed": 0},
                "fault_upper_scale": 0.5,
            },
        )
        assert code == 1
        assert any(not r["passed"] for r in report["records"])


class TestCliErrors:
    @pytest.mark.parametrize(
        "field, text",
        [
            # A z threshold is no option: every check compares at
            # mc.Z_THRESHOLD, so the old field is refused by name.
            ("mc.z_threshold",
             '{"dim": 1, "suite": "sandwich", "fault_upper_scale": 0.5,'
             ' "mc": {"samples": 16384, "seed": 1, "z_threshold": 1e400}}'),
            # An infinite fault scale made a NaN z, refused only at encoding.
            ("fault_upper_scale",
             '{"dim": 1, "suite": "sandwich", "fault_upper_scale": 1e400,'
             ' "mc": {"samples": 16384, "seed": 1}}'),
            # A seed past 2^64 used to fail mid-suite, quoting a derived seed.
            ("mc.seed",
             '{"dim": 1, "suite": "power", "mc": {"samples": 16384, "seed": %d}}' % 2**64),
            # A derived check seed past 2^64 used to fail mid-suite too.
            ("mc.seed",
             '{"dim": 1, "suite": "power", "mc": {"samples": 16384, "seed": %d}}'
             % (MAX_SEED + 1)),
        ],
        ids=["z_threshold", "fault_upper_scale", "seed", "suite_seed"],
    )
    def test_verify_refuses_out_of_range_mc_fields(self, tmp_path, capsys, field, text):
        path = tmp_path / "verify.json"
        path.write_text(text)
        assert main(["verify", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: ")

    @pytest.mark.parametrize(
        "command, text",
        [
            ("verify", '{"dim": 1, "suite": "power", "fault_upper_scale": 0.5,'
                       ' "mc": {"samples": 16384, "seed": 1}}'),
            ("bounds", '{"dim": 1, "u": [1.0], "t_grid": [1.0], "fault_upper_scale": 0.5,'
                       ' "body": {"kind": "lp_ball", "dim": 1, "p": 2.0, "radius": 1.0}}'),
        ],
        ids=["power_suite", "no_suite"],
    )
    def test_fault_scale_without_the_sandwich_suite(self, tmp_path, capsys, command, text):
        # Only the sandwich verdicts read the scale, so every other use is refused.
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main([command, "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err.startswith("error: fault_upper_scale: ")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "command, config, field",
        [
            ("bounds", {"u": [1.0], "t_grid": [1.0], "body": BALL1, "suite": "sandwich",
                        "fault_upper_scale": 0.5}, "suite"),
            ("bounds", {"u": [1.0], "t_grid": [1.0], "body": BALL1, "fault_upper_scale": 1.0},
             "fault_upper_scale"),
            ("power", {"u": [1.0], "theta_grid": [1.0], "alpha": 0.05, "body": BALL1,
                       "suite": "power"}, "suite"),
            ("support", {"directions": [[1.0]], "body": BALL1, "suite": "kernels"}, "suite"),
        ],
        ids=["bounds_sandwich_fault", "bounds_unit_fault", "power", "support"],
    )
    def test_verify_fields_are_refused_elsewhere(self, tmp_path, capsys, command, config, field):
        # Only verify reads a suite and its fault scale.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"dim": 1, **config}))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: only the verify command reads it"), err
        assert not (tmp_path / "r").exists()

    def test_misspelled_body_field_is_refused(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        body = {"kind": "slab", "normal": [1.0], "halfwidth": 1.0, "halfwdith": 2.0}
        path.write_text(json.dumps({"dim": 1, "u": [1.0], "t_grid": [1.0], "body": body}))
        assert main(["bounds", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == "error: body.halfwdith: unknown field\n"

    @pytest.mark.parametrize("field", sorted(HUGE_FIELDS))
    def test_integer_past_float_range_is_a_config_error(self, tmp_path, capsys, field):
        # json parses an integer literal of any length; float() overflows on it.
        path = tmp_path / "huge.json"
        path.write_text('{"dim": 2, %s}' % HUGE_FIELDS[field].replace("HUGE", str(HUGE_INT)))
        assert main(["bounds", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: ")

    @pytest.mark.parametrize(
        "sigma, reason",
        [
            ({"kind": "diagonal", "entries": [1e308, 1.0]}, "not positive definite"),
            ({"kind": "dense", "matrix": [[1.0, 1e308], [-1e308, 1.0]]}, "not symmetric"),
        ],
        ids=["diagonal", "asymmetric"],
    )
    def test_sigma_near_float_limit_is_a_config_error(self, tmp_path, capsys, sigma, reason):
        # Symmetrizing overflowed here; that raised a RuntimeWarning, not a
        # ConfigError naming sigma.  It now halves before adding, so the
        # diagonal case reaches the definiteness check and is refused there.
        body = {"kind": "lp_ball", "dim": 2, "p": 2.0, "radius": 1.0}
        config = {"dim": 2, "sigma": sigma, "body": body, "u": [1.0, 0.0], "t_grid": [0.5]}
        code, _, _ = run_cli(tmp_path, "bounds", config)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sigma: ") and reason in err

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    def test_unwritable_output_is_a_usage_error(self, tmp_path, capsys, flag):
        # Exit 1 means a verification failed; a failed write is exit 2.
        payload = {"dim": 2, "u": [1.0, 0.0], "body": SLAB_E1, "t_grid": [1.0]}
        argv = ["bounds", "--config", write_config(tmp_path, "bounds.json", payload)]
        argv += ["--out", str(tmp_path / "report.json")]
        argv += [flag, str(tmp_path / "missing_dir" / "r.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output: ") and "missing_dir" in err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["bounds", "--config", str(tmp_path / "nope.json")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["bounds", "--config", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_invalid_config(self, tmp_path, capsys):
        code, _, _ = run_cli(tmp_path, "bounds", {"dim": -1})
        assert code == 2
        assert "dim" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


def test_cli_import_leaves_slow_scipy_modules_out():
    # scipy.optimize and scipy.stats each add a third of a second or more
    # to a cold start, past the benchmark's start-up bound, and scipy.linalg
    # loads its Fortran extensions for nothing numpy cannot do; a module
    # that needs one imports it where it is used.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "import shiftbounds, shiftbounds.cli\n"
        "slow = ('scipy.linalg', 'scipy.optimize', 'scipy.stats')\n"
        "print(sorted(m for m in slow if m in sys.modules))\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert (child.returncode, child.stdout) == (0, "[]\n"), child.stderr
