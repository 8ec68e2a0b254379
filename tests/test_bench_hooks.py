"""The benchmark under bench/ reaches into the library by name: traced.py
wraps module attributes and the validate registry, run.py imports a few
functions and constants.  These tests resolve every such name, so a
refactor that renames or removes one fails here instead of in the benchmark."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_traced():
    spec = importlib.util.spec_from_file_location("bench_traced", BENCH / "traced.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def wqed_imports() -> list[tuple[str, str, str]]:
    """(file, module, name) of every `from wqed... import name` in bench/*.py."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "wqed"):
                found += [(path.name, node.module, alias.name) for alias in node.names]
    return found


def test_traced_targets_resolve():
    traced = load_traced()
    assert traced.TARGETS
    for module, attr, _, _ in traced.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


def test_validation_checks_resolve():
    checks = importlib.import_module("wqed.cli").VALIDATION_CHECKS
    assert checks and all(callable(check) for check in checks.values())


@pytest.mark.parametrize("path, module, name", wqed_imports())
def test_bench_imports_resolve(path, module, name):
    assert hasattr(importlib.import_module(module), name), f"{path}: {module}.{name}"


def test_bench_imports_found():
    assert {(module, name) for _, module, name in wqed_imports()} >= {
        ("wqed.fields", "DEFAULT_ZERO_PAD"), ("wqed.dynamics", "default_grid")}
