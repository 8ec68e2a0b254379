"""Command-line surface: config round trips, the four subcommands, the
exit-code contract, and byte-level determinism of artifacts."""

import argparse
import ast
import contextlib
import io
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from helpers import read_csv, run_config_from_text, run_fresh, run_limited
import wqed.checks
import wqed.cli
import wqed.sweep
from wqed.cli import (
    COUPLING_ROW_BUDGET,
    EXIT_CHECK,
    EXIT_GUARD,
    EXIT_OK,
    EXIT_USAGE,
    VALIDATION_CHECKS,
    RunConfig,
    load_run_config,
    main,
    parse_k0l_range,
)
from wqed.errors import ConfigurationError, DomainError
from wqed.serialize import parse_config_text, read_config
from wqed.sweep import CONFIG_KEYS, SweepSpec

PI4 = math.pi / 4


def scipy_modules_loaded(argv):
    """The scipy modules a fresh interpreter has loaded after main(argv)
    returned 0."""
    script = ("import sys\n"
              "from wqed.cli import main\n"
              f"assert main({argv!r}) == 0\n"
              "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    src = str(Path(wqed.cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout.splitlines()[-1])


def invoke(argv):
    """Run the CLI in-process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:   # argparse usage failures
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def sim_run(tmp_path_factory):
    """One cheap simulate run (strong coupling) with plot scripts."""
    out = tmp_path_factory.mktemp("sim")
    code, stdout, stderr = invoke(
        ["simulate", "--gamma-over-delta", 4, "--k0l", PI4,
         "--out", out, "--plots"])
    return out, code, stdout, stderr


class TestRunConfig:
    """Structured-text run configuration."""

    def test_defaults_round_trip(self):
        cfg = RunConfig()
        assert run_config_from_text(cfg.text()) == cfg

    def test_custom_round_trip(self):
        cfg = RunConfig(gamma_over_delta=4.0, k0l=1.0 / 3.0,
                        model="rwa-cutoff", epsilon=1e-7,
                        span_factor=2.0, zero_pad=4, area_tol=1e-4)
        again = run_config_from_text(cfg.text())
        assert again == cfg
        assert again.k0l == 1.0 / 3.0  # bitwise through 17 digits

    def test_unknown_section_and_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown config section"):
            run_config_from_text("[atoms]\nn = 2\n")
        with pytest.raises(ConfigurationError, match="unknown key"):
            run_config_from_text("[run]\ncolor = red\n")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RunConfig(gamma_over_delta=-1.0)
        with pytest.raises(ConfigurationError):
            RunConfig(normalization="bogus")
        with pytest.raises(ConfigurationError):
            RunConfig(zero_pad=1.5)
        with pytest.raises(DomainError):
            RunConfig(model="rwa-cutoff")  # cutoff needs epsilon

    def test_readme_example_is_the_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```ini\n(.*?)```", readme, re.S)
        block, = [b for b in blocks if b.startswith("[run]")]
        assert run_config_from_text(block) == RunConfig()
        uncommented = "".join(line for line in block.splitlines(keepends=True)
                              if not line.startswith("#"))
        assert uncommented == RunConfig().text()

    def test_readme_key_table_is_the_schema(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = re.findall(r"^\| `(\w+)` \|", readme, re.M)
        assert sorted(rows) == sorted(CONFIG_KEYS)

    def test_flags_win_over_config_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(RunConfig(gamma_over_delta=0.25, span_factor=2.0).text())
        args = argparse.Namespace(config=str(path), gamma_over_delta=4.0)
        cfg = load_run_config(args)
        assert cfg.gamma_over_delta == 4.0   # flag
        assert cfg.span_factor == 2.0        # file

    def test_missing_config_file(self):
        args = argparse.Namespace(config="/nonexistent/run.ini")
        with pytest.raises(ConfigurationError, match="not found"):
            load_run_config(args)


class TestCouplingCommand:
    """Coupling tables and their usage errors."""

    def test_range_with_two_models(self):
        code, out, _ = invoke(["coupling", "--k0l-range", "0:6.2832:64",
                               "--models", "full,rwa-negfreq"])
        lines = out.strip().split("\n")
        assert code == EXIT_OK
        assert lines[0] == "k0l,model,re_m,im_m,abs_dev_from_full,diverged"
        assert len(lines) == 1 + 128
        deviations = [float(line.split(",")[4]) for line in lines[1:]]
        assert max(deviations) <= 1e-12

    def test_no_args_prints_usage_exit_2(self):
        code, _, err = invoke(["coupling"])
        assert code == EXIT_USAGE
        assert "usage" in err

    def test_cutoff_divergence_flags(self):
        code, out, _ = invoke(["coupling", "--k0l", 200.0,
                               "--models", "rwa-cutoff", "--epsilon", 1e-6])
        assert code == EXIT_OK
        assert out.strip().split("\n")[1].split(",")[5] == "true"
        code, out, _ = invoke(["coupling", "--k0l", 200.0,
                               "--models", "rwa-cutoff", "--epsilon", 50.0])
        assert out.strip().split("\n")[1].split(",")[5] == "false"

    def test_default_range_with_models_only(self):
        code, out, _ = invoke(["coupling", "--models", "full"])
        assert code == EXIT_OK
        assert len(out.strip().split("\n")) == 1 + 64

    @pytest.mark.parametrize("argv", [
        ["coupling", "--k0l-range", "0:1", "--models", "full"],
        ["coupling", "--k0l-range", "a:b:9", "--models", "full"],
        ["coupling", "--k0l-range", "2:1:9", "--models", "full"],
        ["coupling", "--k0l-range", "0:1:0", "--models", "full"],
        ["coupling", "--k0l", 1.0, "--k0l-range", "0:1:4", "--models", "full"],
        ["coupling", "--models", "nonsense"],
        ["coupling", "--models", "rwa-cutoff"],   # epsilon missing
    ])
    def test_bad_arguments_exit_2(self, argv):
        code, _, _ = invoke(argv)
        assert code == EXIT_USAGE

    def test_zero_carrier_ratio_exits_2(self):
        # 0 is rejected like simulate does, not replaced by the default
        code, out, err = invoke(["coupling", "--models", "full",
                                 "--omega0-over-gamma", 0])
        assert code == EXIT_USAGE
        assert "omega0_over_gamma must be finite and > 0, got 0.0" in err
        assert out == ""

    @pytest.mark.parametrize("value", ["nan", "0", "-1", "inf"])
    def test_bad_epsilon_exits_2(self, value):
        # the key table's rule and message, as simulate gives them
        code, out, err = invoke(["coupling", "--models", "rwa-cutoff",
                                 "--epsilon", value])
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: epsilon must be finite and > 0, got {float(value)}\n"

    def test_out_writes_csv_file(self, tmp_path):
        code, out, _ = invoke(["coupling", "--k0l-range", "0:3.1416:8",
                               "--models", "full", "--out", tmp_path])
        assert code == EXIT_OK
        header, rows = read_csv(tmp_path / "coupling.csv")
        assert header == ["k0l", "model", "re_m", "im_m",
                          "abs_dev_from_full", "diverged"]
        assert len(rows) == 8
        assert {row[1] for row in rows} == {"full"}

    def test_parse_k0l_range_values(self):
        values = parse_k0l_range("0:2:5")
        assert values.tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]

    @pytest.mark.parametrize("text, message", [
        ("0:inf:3", "needs finite 0 <= A <= B"),
        ("nan:1:3", "needs finite 0 <= A <= B"),
        ("0:nan:3", "needs finite 0 <= A <= B"),
        ("inf:inf:3", "needs finite 0 <= A <= B"),
        ("0:1:10000001", "needs 1 <= N <= 10,000,000, got 10,000,001"),
        ("0:1:100000000000", "needs 1 <= N <= 10,000,000, got 100,000,000,000"),
    ])
    def test_parse_k0l_range_bounds(self, text, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning first
            with pytest.raises(ConfigurationError, match=re.escape(message)) as info:
                parse_k0l_range(text)
        assert str(info.value).startswith("--k0l-range ")

    def test_non_finite_range_exits_2_without_warning(self):
        done = run_fresh(["coupling", "--k0l-range", "0:inf:3", "--models", "full"])
        assert done.returncode == EXIT_USAGE
        assert done.stderr == "error: --k0l-range needs finite 0 <= A <= B, got '0:inf:3'\n"

    def test_table_over_the_row_budget_exits_2_before_any_row(self):
        # 10,000,000 k0l values pass the point budget; two models make twice
        # as many rows, about 17 minutes and 10 GB of them
        code, err = run_limited(["coupling", "--k0l-range", "0:6:10000000",
                                 "--models", "full,rwa-negfreq"])
        assert code == EXIT_USAGE, err
        assert err == ("error: the coupling table needs 20,000,000 rows (k0l values "
                       f"x models), over the budget of {COUPLING_ROW_BUDGET:,}\n")

    def test_unused_epsilon_exits_2(self):
        code, out, err = invoke(["coupling", "--models", "full", "--epsilon", 1e-6])
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: epsilon = 1e-06 is unused")

    def test_huge_range_exits_2_before_allocating(self):
        code, err = run_limited(["coupling", "--k0l-range", "0:1:100000000000",
                                 "--models", "full"])
        assert code == EXIT_USAGE, err
        assert err == ("error: --k0l-range needs 1 <= N <= 10,000,000, "
                       "got 100,000,000,000\n")


class TestSimulateCommand:
    """Single-run artifacts, summary block, and guard behavior."""

    def test_artifacts_written(self, sim_run):
        out, code, _, _ = sim_run
        assert code == EXIT_OK
        names = {p.name for p in out.iterdir()}
        assert names == {
            "cell000_trajectory.csv", "cell000_incident.csv",
            "cell000_transmitted.csv", "cell000_reflected.csv",
            "cell000_spectrum_incident.csv", "cell000_spectrum_transmitted.csv",
            "manifest.txt", "run_config.txt",
            "plot_envelopes.gp", "plot_spectra.gp",
        }

    def test_summary_block_on_stdout(self, sim_run):
        _, _, stdout, _ = sim_run
        summary = parse_config_text(stdout)
        assert summary["summary"]["area_check"] == "pass"
        assert summary["summary"]["area_trans_ratio"] <= 1e-3
        assert summary["summary"]["markov_ok"] is True
        assert "dip_width" in summary["summary"]
        assert "residual1" in summary["summary"]

    def test_run_config_echo_round_trips(self, sim_run):
        out, _, _, _ = sim_run
        cfg = run_config_from_text((out / "run_config.txt").read_text())
        assert cfg.gamma_over_delta == 4.0
        assert cfg.k0l == PI4

    def test_plot_scripts_reference_artifacts(self, sim_run):
        out, _, _, _ = sim_run
        script = (out / "plot_envelopes.gp").read_text()
        assert '"cell000_transmitted.csv"' in script

    def test_byte_identical_reruns(self, sim_run, tmp_path):
        first, _, stdout1, _ = sim_run
        code, stdout2, _ = invoke(
            ["simulate", "--gamma-over-delta", 4, "--k0l", PI4,
             "--out", tmp_path, "--plots"])
        assert code == EXIT_OK
        for path in first.iterdir():
            assert (tmp_path / path.name).read_bytes() == path.read_bytes()
        assert stdout2 == stdout1

    def test_gamma_zero_transmitted_equals_incident(self, tmp_path):
        code, _, _ = invoke(["simulate", "--gamma-over-delta", 0,
                             "--out", tmp_path])
        assert code == EXIT_OK
        assert ((tmp_path / "cell000_incident.csv").read_bytes()
                == (tmp_path / "cell000_transmitted.csv").read_bytes())

    def test_guard_failure_exits_3_unless_forced(self, tmp_path):
        argv = ["simulate", "--gamma-over-delta", 0.25,
                "--omega0-over-gamma", 10, "--out", tmp_path / "g"]
        code, _, err = invoke(argv)
        assert code == EXIT_GUARD
        assert "delta_over_omega0" in err
        assert not (tmp_path / "g").exists()   # aborted before running
        code, _, _ = invoke(argv + ["--force"])
        assert code == EXIT_OK

    def test_rwa_model_fails_area_check(self, tmp_path):
        code, out, _ = invoke(["simulate", "--gamma-over-delta", 0.25,
                               "--model", "rwa-constg", "--out", tmp_path])
        assert code == EXIT_CHECK
        assert parse_config_text(out)["summary"]["area_check"] == "fail"
        assert (tmp_path / "cell000_transmitted.csv").is_file()

    def test_failing_cell_into_a_new_directory(self, tmp_path):
        out = tmp_path / "new" / "dir"
        done = run_fresh(["simulate", "--grid-dt", 10, "--out", out])
        assert done.returncode == EXIT_CHECK, done.stderr
        assert done.stderr.startswith("error: ConfigurationError: dt = ")
        summary = parse_config_text(done.stdout)["summary"]
        assert summary["ok"] is False
        assert summary["error"].startswith("ConfigurationError: dt = ")
        manifest = read_config(out / "manifest.txt")
        assert manifest["manifest"]["all_ok"] is False
        assert manifest["cell000"]["error"] == summary["error"]
        assert sorted(p.name for p in out.iterdir()) == ["manifest.txt", "run_config.txt"]

    def test_far_over_budget_prints_a_short_count(self, tmp_path):
        code, _, err = invoke(["simulate", "--gamma-over-delta", "1e300",
                               "--out", tmp_path])
        assert code == EXIT_USAGE
        assert "the time grid needs n = 1.600e+303 points, over the budget" in err
        assert len(err) < 200

    @pytest.mark.parametrize("flag, value, message", [
        ("--grid-span", "1e308", "the time grid needs n = Infinity points, over the budget"),
        ("--grid-span", "inf", "span_factor and dt_factor must be finite and > 0"),
        ("--grid-dt", "1e-320", "the time grid needs n = Infinity points, over the budget"),
        ("--grid-dt", "nan", "span_factor and dt_factor must be finite and > 0"),
    ])
    def test_bad_grid_factor_exits_2(self, tmp_path, flag, value, message):
        done = run_fresh(["simulate", flag, value, "--out", tmp_path / "d"])
        assert done.returncode == EXIT_USAGE, done.stderr
        assert done.stderr.startswith("error: ") and message in done.stderr
        assert "Traceback" not in done.stderr

    def test_missing_out_exits_2(self):
        code, _, err = invoke(["simulate", "--gamma-over-delta", 4])
        assert code == EXIT_USAGE
        assert "--out" in err


class TestValidateCommand:
    """Named checks, filtering, and the mutation hook."""

    def test_list_names(self):
        code, out, _ = invoke(["validate", "--list"])
        assert code == EXIT_OK
        assert out.split() == list(VALIDATION_CHECKS)

    def test_single_check_line_format(self):
        code, out, _ = invoke(["validate", "--only", "coupling-identity"])
        assert code == EXIT_OK
        line = out.strip().split("\n")[0]
        assert line.startswith("PASS coupling-identity")
        assert "measured=" in line and "tol=1e-12" in line
        assert out.strip().split("\n")[-1] == "1/1 checks passed"

    def test_only_pulse_area_runs_the_grid(self):
        code, out, _ = invoke(["validate", "--only", "pulse-area"])
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert "3x3" in lines[0]

    def test_unknown_check_exits_2(self):
        code, _, err = invoke(["validate", "--only", "no-such-check"])
        assert code == EXIT_USAGE
        assert "unknown check" in err

    def test_full_run_integrates_each_cell_once(self, monkeypatch):
        """Checks sharing a cell share one integration: the 3x3 pulse-area
        grid plus the three doubled-span pi/4 cells, 12 in all."""
        calls = []
        integrate = wqed.sweep.integrate_markovian

        def counting(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(wqed.sweep, "integrate_markovian", counting)
        wqed.checks._scatter_cached.cache_clear()
        try:
            code, _, _ = invoke(["validate"])
        finally:
            wqed.checks._scatter_cached.cache_clear()
        assert code == EXIT_OK
        assert len(calls) == 12

    def test_validate_imports_no_scipy_signal(self):
        """The mode oracle's recursions are evaluated in numpy alone."""
        loaded = scipy_modules_loaded(["validate", "--only", "mode-oracle"])
        assert not [m for m in loaded if m.startswith("scipy.signal")]

    def test_validate_imports_no_scipy(self):
        """Every reference integral of the 14 checks is numpy quadrature."""
        assert scipy_modules_loaded(["validate"]) == []

    def test_mutated_coupling_fails_pulse_area(self):
        code, out, _ = invoke(["validate", "--only", "pulse-area",
                               "--mutate-coupling-sign"])
        assert code == EXIT_CHECK
        assert out.startswith("FAIL pulse-area")


class TestSweepCommand:
    """Spec-file parsing, manifest results, exit codes."""

    def test_comparative_triple_spec(self, tmp_path):
        spec = tmp_path / "triple.ini"
        spec.write_text("[sweep]\n"
                        "gamma_over_delta = 4, 0.25, 0.02\n"
                        f"k0l = {PI4!r}\n"
                        "models = full\n"
                        "[output]\n"
                        f"dir = {tmp_path / 'out'}\n")
        code, out, _ = invoke(["sweep", "--spec", spec])
        assert code == EXIT_OK
        assert "3/3 cells passed" in out
        sections = read_config(tmp_path / "out" / "manifest.txt")
        widths = [sections[f"cell{i:03d}"]["dip_width"] for i in range(3)]
        assert widths[0] > widths[1] > widths[2]   # ordered by coupling

    def test_single_cell_matches_simulate(self, tmp_path, sim_run):
        sim_dir, _, _, _ = sim_run
        spec = tmp_path / "one.ini"
        spec.write_text(f"[sweep]\ngamma_over_delta = 4\nk0l = {PI4!r}\n")
        code, _, _ = invoke(["sweep", "--spec", spec, "--out", tmp_path / "s"])
        assert code == EXIT_OK
        for name in ("cell000_trajectory.csv", "cell000_incident.csv",
                     "cell000_transmitted.csv", "cell000_reflected.csv",
                     "cell000_spectrum_incident.csv",
                     "cell000_spectrum_transmitted.csv", "manifest.txt"):
            assert ((tmp_path / "s" / name).read_bytes()
                    == (sim_dir / name).read_bytes()), name

    def test_malformed_spec_exits_2_with_line(self, tmp_path):
        spec = tmp_path / "bad.ini"
        spec.write_text("[sweep]\ngamma_over_delta 4\nk0l = 1\n")
        code, _, err = invoke(["sweep", "--spec", spec])
        assert code == EXIT_USAGE
        assert "line" in err and "2" in err

    def test_unknown_key_exits_2(self, tmp_path):
        spec = tmp_path / "odd.ini"
        spec.write_text("[sweep]\ngamma_over_delta = 4\nk0l = 1\ncolor = red\n")
        code, _, err = invoke(["sweep", "--spec", spec])
        assert code == EXIT_USAGE
        assert "color" in err

    def test_missing_value_and_bad_number_exit_2(self, tmp_path):
        spec = tmp_path / "m.ini"
        spec.write_text("[sweep]\nk0l = 1\n")
        assert invoke(["sweep", "--spec", spec])[0] == EXIT_USAGE
        spec.write_text("[sweep]\ngamma_over_delta = 4, soup\nk0l = 1\n")
        code, _, err = invoke(["sweep", "--spec", spec])
        assert code == EXIT_USAGE and "soup" in err

    def test_bad_epsilon_exits_2(self, tmp_path):
        spec = tmp_path / "e.ini"
        spec.write_text("[sweep]\ngamma_over_delta = 4\nk0l = 1\n"
                        "models = rwa-cutoff\nepsilon = abc\n")
        code, _, err = invoke(["sweep", "--spec", spec])
        assert code == EXIT_USAGE
        assert "[sweep] epsilon: bad value 'abc'" in err

    def test_sweep_imports_no_scipy(self, tmp_path):
        """Spectra come from numpy alone: a sweep never loads scipy."""
        spec = tmp_path / "one.ini"
        spec.write_text(f"[sweep]\ngamma_over_delta = 4\nk0l = {PI4!r}\n")
        assert scipy_modules_loaded(["sweep", "--spec", str(spec)]) == []

    def test_runs_under_the_memory_cap(self, tmp_path):
        spec = tmp_path / "one.ini"
        spec.write_text(f"[sweep]\ngamma_over_delta = 4\nk0l = {PI4!r}\n")
        assert run_limited(["sweep", "--spec", spec]) == (EXIT_OK, "")

    @pytest.mark.parametrize("lines, what", [
        # gamma/delta = 1e-4 asks for a grid of ~4.1e7 points (~8 GB)
        ("gamma_over_delta = 1e-4\n", "the time grid needs n = 40,972,164 points"),
        # a modest grid whose padding pushes the chirp-z length past it
        ("gamma_over_delta = 4\nzero_pad = 1000000\n", "a spectrum FFT needs n = "),
    ])
    def test_over_budget_exits_2_before_allocating(self, tmp_path, lines, what):
        spec = tmp_path / "big.ini"
        spec.write_text(f"[sweep]\n{lines}k0l = {PI4!r}\n")
        code, err = run_limited(["sweep", "--spec", spec])
        assert code == EXIT_USAGE, err
        assert what in err and "over the budget of 10,000,000 points" in err

    @pytest.mark.parametrize("line, message", [
        ("span_factor = nan", "span_factor and dt_factor must be finite and > 0"),
        ("dt_factor = 1e-320", "the time grid needs n = Infinity points, over the budget"),
    ])
    def test_bad_grid_value_exits_2(self, tmp_path, line, message):
        spec = tmp_path / "grid.ini"
        spec.write_text(f"[sweep]\ngamma_over_delta = 4\nk0l = {PI4!r}\n{line}\n")
        done = run_fresh(["sweep", "--spec", spec])
        assert done.returncode == EXIT_USAGE, done.stderr
        assert done.stderr.startswith("error: ") and message in done.stderr

    def test_missing_spec_file_exits_2(self, tmp_path):
        code, _, err = invoke(["sweep", "--spec", tmp_path / "none.ini"])
        assert code == EXIT_USAGE
        assert "not found" in err

    def test_failing_cell_exits_1(self, tmp_path):
        spec = tmp_path / "rwa.ini"
        spec.write_text("[sweep]\ngamma_over_delta = 0.25\n"
                        f"k0l = {PI4!r}\nmodels = rwa-constg\n")
        code, out, _ = invoke(["sweep", "--spec", spec])
        assert code == EXIT_CHECK
        assert "-> fail" in out

    def test_every_cell_failing_into_a_new_directory(self, tmp_path):
        out = tmp_path / "new" / "dir"
        spec = tmp_path / "fail.ini"
        spec.write_text(f"[sweep]\ngamma_over_delta = 0.25, 4\nk0l = {PI4!r}\n"
                        f"dt_factor = 10\n[output]\ndir = {out}\n")
        done = run_fresh(["sweep", "--spec", spec])
        assert done.returncode == EXIT_CHECK, done.stderr
        assert done.stderr == ""
        assert done.stdout.count("-> error: ConfigurationError: dt = ") == 2
        assert done.stdout.endswith("\n0/2 cells passed\n")
        manifest = read_config(out / "manifest.txt")
        assert manifest["manifest"]["all_ok"] is False
        assert [manifest[f"cell00{i}"]["ok"] for i in range(2)] == [False, False]
        assert [p.name for p in out.iterdir()] == ["manifest.txt"]

    def test_out_flag_overrides_spec_dir(self, tmp_path):
        spec = tmp_path / "o.ini"
        spec.write_text("[sweep]\ngamma_over_delta = 4\nk0l = 0.5\n"
                        f"[output]\ndir = {tmp_path / 'ignored'}\n")
        code, _, _ = invoke(["sweep", "--spec", spec,
                             "--out", tmp_path / "chosen"])
        assert code == EXIT_OK
        assert (tmp_path / "chosen" / "manifest.txt").is_file()
        assert not (tmp_path / "ignored").exists()


class TestOneRulePerKey:
    """Each key is read by one rule in the run config, the sweep spec and
    the flags: a bad value exits 2 before any cell runs."""

    @staticmethod
    def run_both(tmp_path, run_lines, sweep_lines, argv=()):
        """(exit code, stdout, stderr) of `simulate --config` and of
        `sweep --spec` with these lines; neither may create its out dir."""
        results = []
        config = tmp_path / "run.ini"
        config.write_text(run_lines)
        results.append(invoke(["simulate", "--config", config, *argv,
                               "--out", tmp_path / "sim"]))
        if sweep_lines is not None:
            spec = tmp_path / "spec.ini"
            axes = "".join(f"{key} = 1\n" for key in ("gamma_over_delta", "k0l")
                           if f"{key} =" not in sweep_lines)
            spec.write_text(f"[sweep]\n{axes}{sweep_lines}")
            results.append(invoke(["sweep", "--spec", spec, "--out", tmp_path / "sweep"]))
        assert not (tmp_path / "sim").exists() and not (tmp_path / "sweep").exists()
        return results

    @pytest.mark.parametrize("run_lines, sweep_lines, message", [
        ("[run]\nnormalization = bogus\n", "normalization = bogus\n",
         "unknown normalization 'bogus'"),
        ("[grid]\nzero_pad = 8.5\n", "zero_pad = 8.5\n", "zero_pad must be an int >= 1"),
        ("[grid]\nzero_pad = 8.0\n", "zero_pad = 8.0\n", "zero_pad must be an int >= 1"),
        ("[run]\nk0l = true\n", "k0l = true\n", "k0l: bad value True"),
        ("[run]\nmodel = 5\n", "models = 5\n", "5"),
    ])
    def test_bad_value_exits_2_in_both_formats(self, tmp_path, run_lines, sweep_lines,
                                               message):
        for code, out, err in self.run_both(tmp_path, run_lines, sweep_lines):
            assert code == EXIT_USAGE and out == ""
            assert err.startswith("error: ") and message in err, err
            assert "Traceback" not in err

    @pytest.mark.parametrize("limit", ["nan", "inf", "0", "-1", "true"])
    def test_guard_limit_must_be_finite_and_positive(self, tmp_path, limit):
        argv = ["--gamma-over-delta", 4, "--omega0-over-gamma", 2]
        (code, _, err), = self.run_both(
            tmp_path, f"[checks]\nguard_limit = {limit}\n", None, argv)
        assert code == EXIT_USAGE and err.startswith("error: guard_limit")
        code, _, err = invoke(["simulate", *argv, "--out", tmp_path / "g"])
        assert code == EXIT_GUARD  # the default limit guards this cell

    @pytest.mark.parametrize("run_lines, sweep_lines", [
        ("[run]\nepsilon = 1e-6\n", "epsilon = 1e-6\n"),
        ("[run]\nmodel = rwa-negfreq\nepsilon = 1e-6\n",
         "models = full, rwa-negfreq\nepsilon = 1e-6\n"),
        ("[run]\nmodel = rwa-cutoff:1e-7\nepsilon = 1e-6\n",
         "models = full, rwa-cutoff:1e-7\nepsilon = 1e-6\n"),
    ])
    def test_unused_epsilon_exits_2(self, tmp_path, run_lines, sweep_lines):
        for code, out, err in self.run_both(tmp_path, run_lines, sweep_lines):
            assert code == EXIT_USAGE and out == ""
            assert err.startswith("error: ") and "epsilon = 1e-06 is unused" in err

    def test_unused_epsilon_flag_exits_2(self, tmp_path):
        code, out, err = invoke(["simulate", "--gamma-over-delta", 4, "--epsilon", 1e-6,
                                 "--out", tmp_path / "o"])
        assert code == EXIT_USAGE and out == "" and "epsilon = 1e-06 is unused" in err
        assert not (tmp_path / "o").exists()

    def test_epsilon_serves_the_bare_cutoff_labels(self):
        spec = SweepSpec.from_sections(parse_config_text(
            "[sweep]\ngamma_over_delta = 4\nk0l = 1\n"
            "models = full, rwa-cutoff, rwa-cutoff:1e-7\nepsilon = 1e-6\n"))
        assert [model.epsilon for model in spec.models] == [None, 1e-6, 1e-7]
        cfg = run_config_from_text("[run]\nmodel = rwa-cutoff\nepsilon = 1e-6\n")
        assert cfg.spec.models[0].epsilon == 1e-6
