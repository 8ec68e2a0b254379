"""The benchmark under bench/ reaches into the library by name: traced.py
wraps module attributes and the validate registry, run.py imports a few
functions and constants.  These tests resolve every such name, so a
refactor that renames or removes one fails here instead of in the benchmark."""

import ast
import importlib
import importlib.util
import math
import sys
from pathlib import Path

import pytest

from helpers import run_fresh
import wqed.sweep
from wqed.coupling import CouplingModel, evaluate_coupling
from wqed.dynamics import default_grid
from wqed.fields import spectrum

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up there
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
    traced = load_bench("traced")
    assert traced.TARGETS
    for module, attr, _, _ in traced.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


def test_cli_import_loads_every_traced_module():
    # install() wraps sys.modules[module] attributes and wqed.cli's
    # VALIDATION_CHECKS right after `import wqed.cli`; a module the CLI
    # imported lazily would be missing there, although
    # test_traced_targets_resolve, importing each itself, still passes
    modules = sorted({module for module, _, _, _ in load_bench("traced").TARGETS})
    done = run_fresh(["-c", "import sys, wqed.cli\n"
                      f"print([m for m in {modules!r} if m not in sys.modules])\n"
                      "print('VALIDATION_CHECKS' in vars(wqed.cli))\n"], entry=())
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "True"]


def test_validation_checks_resolve():
    checks = importlib.import_module("wqed.cli").VALIDATION_CHECKS
    assert checks and all(callable(check) for check in checks.values())


@pytest.mark.parametrize("path, module, name", wqed_imports())
def test_bench_imports_resolve(path, module, name):
    assert hasattr(importlib.import_module(module), name), f"{path}: {module}.{name}"


def test_bench_imports_found():
    assert {(module, name) for _, module, name in wqed_imports()} >= {
        ("wqed.fields", "DEFAULT_ZERO_PAD"), ("wqed.dynamics", "default_grid")}


def test_bench_full_model_label():
    # workloads.py writes `models = full` into its sweep spec and expects
    # `model=full` back on each cell line
    assert wqed.sweep.model_from_label("full") == CouplingModel.full()
    assert CouplingModel.full().label == "full"


def test_bench_grid_call_takes_the_span_second():
    # run.py counts each workload cell's grid as default_grid(params, span,
    # m_total=m): the span must stay the second positional parameter, or the
    # benchmark's span would silently bind to another one
    cells = {cell for workload in load_bench("workloads").WORKLOADS.values()
             for cell in workload.cells}
    assert cells
    for gamma, k0l, span in sorted(cells):
        params = wqed.sweep.cell_params(gamma, k0l)
        m = evaluate_coupling(params, CouplingModel.full()).m_total
        assert default_grid(params, span, m_total=m) == default_grid(
            params, span_factor=span, m_total=m)
        assert default_grid(params, 2.0, m_total=m).n > default_grid(params, 1.0, m_total=m).n


def test_cell_files_go_through_the_traced_writers(tmp_path, monkeypatch):
    # traced.py times `sweep.write` by wrapping these three module
    # attributes; a cell's six CSVs must all be written through them
    calls = []

    def counting(name, writer):
        def wrapper(*args):
            calls.append(name)
            return writer(*args)
        return wrapper

    for name in ("write_trajectory_csv", "write_envelope_csv", "write_spectrum_csv"):
        monkeypatch.setattr(wqed.sweep, name, counting(name, getattr(wqed.sweep, name)))
    params = wqed.sweep.cell_params(4.0, math.pi / 4)
    traj, envelopes = wqed.sweep.scatter(params, evaluate_coupling(params, CouplingModel.full()))
    spectra = {"incident": spectrum(envelopes[0]), "transmitted": spectrum(envelopes[1])}
    files = wqed.sweep._write_cell_files(tmp_path, "cell000_", traj, envelopes, spectra, 4)
    assert sorted(calls) == ["write_envelope_csv"] * 3 + ["write_spectrum_csv"] * 2 + [
        "write_trajectory_csv"]
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(files)
