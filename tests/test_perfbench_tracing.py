"""The benchmark's tracer wraps package names by string; each must resolve.

`perfbench/tracing.py` patches the functions in `FUNCTIONS` and the
methods in `METHODS` at run time, so a refactor that drops or renames
one of them would crash `perfbench/run.py --trace 1` with an
AttributeError.  These checks read the two tables and patch nothing.
The `--trace 1` microbenchmarks in `perfbench/micro.py` import package
names and reach into the `mc` and `lp` modules by attribute; those
names, and the arguments each call of them passes, are read from its
syntax tree, without importing it.  Every
request of the benchmark workloads must pass the config grammar, so a
tightened grammar cannot quietly turn a timed request into a refusal.
"""

import ast
import importlib
import inspect
import sys
import types
from pathlib import Path

import pytest

from shiftbounds.config import parse_run_config

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MICRO = TRACING.with_name("micro.py")
WORKLOADS = TRACING.with_name("workloads.py")


def _load(path: Path) -> types.ModuleType:
    # Compiled from the source text, so no bytecode cache is written
    # next to it; dataclasses need the module registered while it runs.
    module = types.ModuleType(f"perfbench_{path.stem}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(module))
    return module


tracing = _load(TRACING)
workloads = _load(WORKLOADS)


@pytest.mark.parametrize(
    "layer, name",
    [(layer, name) for layer, names in tracing.FUNCTIONS.items() for name in names],
)
def test_traced_function_resolves(layer, name):
    module = importlib.import_module(f"shiftbounds.{layer}")
    assert callable(getattr(module, name, None)), f"shiftbounds.{layer}.{name}"


@pytest.mark.parametrize(
    "layer, cls_name, method",
    [
        (layer, cls_name, method)
        for layer, classes in tracing.METHODS.items()
        for cls_name, methods in classes.items()
        for method in methods
    ],
)
def test_traced_method_is_defined_on_its_class(layer, cls_name, method):
    cls = getattr(importlib.import_module(f"shiftbounds.{layer}"), cls_name)
    # The tracer reads cls.__dict__, so an inherited method does not count.
    assert method in cls.__dict__, f"shiftbounds.{layer}.{cls_name}.{method}"


def _micro_names() -> list[tuple[str, str]]:
    """(module, name) for every `mc.<name>`, `lp.<name>` and package import in micro.py."""
    tree = ast.parse(MICRO.read_text(encoding="utf-8"), str(MICRO))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("shiftbounds"):
            names.update((node.module, alias.name) for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("mc", "lp")
        ):
            names.add((f"shiftbounds.{node.value.id}", node.attr))
    return sorted(names)


def test_micro_names_are_found():
    names = _micro_names()
    for name in ("sample_gaussian", "standard_normal_chunks", "CHUNK_SIZE"):
        assert ("shiftbounds.mc", name) in names
    assert ("shiftbounds.lp", "simplex_max") in names


@pytest.mark.parametrize("module, name", _micro_names())
def test_micro_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def _micro_calls() -> list[tuple[str, ast.Call]]:
    """(dotted callee, call) for every call in micro.py whose callee is a
    package name, or an attribute of one (`mc.<name>`, `Direction.from_vector`)."""
    tree = ast.parse(MICRO.read_text(encoding="utf-8"), str(MICRO))
    imported = {
        alias.asname or alias.name: f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("shiftbounds")
        for alias in node.names
    }
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        parts, callee = [], node.func
        while isinstance(callee, ast.Attribute):
            parts.insert(0, callee.attr)
            callee = callee.value
        if isinstance(callee, ast.Name) and callee.id in imported:
            calls.append((".".join([imported[callee.id], *parts]), node))
    return calls


def _resolve(dotted: str) -> object:
    """The object a dotted shiftbounds name names: a module's attribute,
    a submodule's, or a class's."""
    package, *names = dotted.split(".")
    found = importlib.import_module(package)
    for name in names:
        found = getattr(found, name)
    return found


def test_micro_calls_are_found():
    callees = {callee for callee, _ in _micro_calls()}
    for name in ("mc.sample_gaussian", "mc.standard_normal_chunks", "lp.simplex_max"):
        assert f"shiftbounds.{name}" in callees
    assert "shiftbounds.linalg.Direction.from_vector" in callees


@pytest.mark.parametrize(
    "callee, call",
    [pytest.param(callee, call, id=f"{callee}:{call.lineno}") for callee, call in _micro_calls()],
)
def test_micro_call_binds_to_its_signature(callee, call):
    # A placeholder per argument, as many and as named as the call passes:
    # a dropped or renamed parameter fails here, not at `--trace 1`.
    assert not any(isinstance(arg, ast.Starred) for arg in call.args)
    assert all(keyword.arg is not None for keyword in call.keywords)
    signature = inspect.signature(_resolve(callee))
    signature.bind(*[None] * len(call.args), **{kw.arg: None for kw in call.keywords})


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_requests_parse(workload):
    # Seed 0 at full size, as the benchmark runs them.
    requests = workloads.WORKLOADS[workload](0)
    assert requests
    for request in requests:
        parse_run_config(request.config)
        if request.command != "verify":
            assert not {"suite", "fault_upper_scale"} & request.config.keys(), request.name
