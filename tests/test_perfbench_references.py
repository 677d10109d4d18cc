"""The benchmark's seed-0 records, gated against `perfbench/references/`.

One pass of each workload's seed-0 requests runs through
`perfbench/run.py`'s `Runner` with its `load_reference`, exactly as the
benchmark gates them: every exit code as expected, every verdict
passing (the fault probe failing) and every record equal to its
reference bit for bit.  These references alone cover the `kernels`
suite's verify records, the dense-Sigma power grids and the d = 12-64
bounds; the `tests/data` pins do not.

The check holds where the pins hold: the references were recorded with
OpenBLAS at 2 threads, on its SkylakeX kernels, and other BLAS kernels
or thread counts move the last bits of some records.

`run.py` imports `workloads` and `tracing` by their bare names, so the
three files are compiled from their source text (no bytecode is written
under `perfbench/`) and registered in `sys.modules` only while this
module's tests run.
"""

import sys
import types
from pathlib import Path

import pytest

from shiftbounds import cli

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str, path: Path, patch: pytest.MonkeyPatch) -> types.ModuleType:
    module = types.ModuleType(name)
    module.__file__ = str(path)
    patch.setitem(sys.modules, name, module)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(module))
    return module


@pytest.fixture(scope="module")
def run():
    with pytest.MonkeyPatch.context() as patch:
        _load("workloads", BENCH / "workloads.py", patch)
        _load("tracing", BENCH / "tracing.py", patch)
        yield _load("perfbench_run", BENCH / "run.py", patch)


@pytest.mark.parametrize(
    "workload", sorted(path.stem for path in (BENCH / "references").glob("*.json"))
)
def test_seed0_pass_matches_the_references(run, workload, tmp_path):
    requests = run.workloads.WORKLOADS[workload](run.DEFAULT_SEED)
    runner = run.Runner(requests, tmp_path, cli, run.load_reference(workload))
    runner.run_pass()
    assert runner.attempted == len(requests) > 0
    assert runner.failures == []


def test_gate_covers_every_workload(run):
    references = {path.stem for path in (BENCH / "references").glob("*.json")}
    assert references == set(run.workloads.WORKLOADS)
