"""The README's library quick start and command-line configs run as
written, so the documented API and grammar cannot drift from the package;
every name the package exports resolves."""

import json
import re
from pathlib import Path

import shiftbounds
from shiftbounds import config, mc
from shiftbounds.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    return text.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_library_quick_start_runs(capsys):
    code = re.search(r"```python\n(.*?)```", _section("Library quick start"), re.S).group(1)
    exec(compile(code, f"{README.name} quick start", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # lower/upper, a, exact, the envelope, then the Monte Carlo verdict.
    assert len(lines) == 5
    assert lines[-1].split()[0] == "True"


def test_command_line_configs_run(tmp_path):
    # A bounds run, a power run and a fault-injected verify run, in order.
    blocks = re.findall(r"```json\n(.*?)```", _section("Command line"), re.S)
    commands = ["bounds", "power", "verify"]
    assert len(blocks) == len(commands)
    codes = []
    for command, block in zip(commands, blocks):
        path = tmp_path / f"{command}.json"
        path.write_text(block, encoding="utf-8")
        codes.append(main([command, "--config", str(path),
                           "--out", str(tmp_path / f"{command}_report.json")]))
    assert codes == [0, 0, 1]


def _grammar_rows() -> dict[str, str]:
    """Field name -> meaning cell, for each row of the config grammar table."""
    rows = {}
    for line in _section("Config grammar").splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 2:
            for name in re.findall(r"`(\w+)`", cells[0]):
                rows[name] = cells[1]
    return rows


def test_grammar_table_names_every_parsed_field():
    # The parser refuses every key outside this table, so the two must agree.
    rows = _grammar_rows()
    assert set(rows) == config._FIELDS
    mc_block = re.match(r"`(\{.*?\})`", rows["mc"]).group(1)
    assert set(re.findall(r'"(\w+)":', mc_block)) == config._MC_FIELDS == {"samples", "seed"}


def test_determinism_names_the_piece_window():
    # The piece size and the draw-ahead window, as mc defines them.
    text = " ".join(_section("Determinism").split())
    assert f"`mc.PIECE_VALUES` = {mc.PIECE_VALUES:,} values" in text
    assert f"`mc.PIECE_MIN_ROWS` = {mc.PIECE_MIN_ROWS:,} rows" in text
    geometry = f"{mc._piece_rows(2):,} rows at d = 2, {mc._piece_rows(6):,} at d = 6"
    assert geometry in text
    assert f"`mc.PIECES_PER_WORKER` = {mc.PIECES_PER_WORKER} pieces per worker" in text
    assert f"tiled over {mc.SHIFT_TILE_ROWS} rows (`mc.SHIFT_TILE_ROWS`)" in text
    assert f"`mc.DERIVATIVE_STEP` = {mc.DERIVATIVE_STEP}," in text


def test_every_named_attribute_resolves():
    # Each `mc.<name>` and `<Class>.<method>` the README names is an
    # attribute of the package; mc.samples and mc.seed are config fields.
    text = README.read_text(encoding="utf-8")
    named = set(re.findall(r"`(mc|[A-Z]\w*)\.(\w+)`", text)) - {("mc", "samples"), ("mc", "seed")}
    assert {("mc", "run_plans"), ("LayeredUnimodal", "weigh")} <= named
    missing = [
        f"{owner}.{name}" for owner, name in sorted(named)
        if not hasattr(getattr(shiftbounds, owner, None), name)
    ]
    assert missing == []


def test_module_map_names_every_module_once():
    modules = sorted(
        path.stem for path in Path(shiftbounds.__file__).parent.glob("*.py")
        if path.stem != "__init__"
    )
    named = [
        name
        for line in _section("Module map").splitlines() if line.startswith("| `")
        for name in re.findall(r"`(\w+)`", line.split("|")[1])
    ]
    assert sorted(named) == modules


def test_every_exported_name_resolves_once():
    names = shiftbounds.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(shiftbounds, n)] == []
