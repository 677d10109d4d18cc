"""The README's library quick start runs as written, so the documented
API cannot drift from the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README.name} quick start", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # lower/upper, a, exact, the envelope, then the Monte Carlo verdict.
    assert len(lines) == 5
    assert lines[-1].split()[0] == "True"
