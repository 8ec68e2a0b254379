"""Command-line surface: config round trips, the four subcommands, the
exit-code contract, and byte-level determinism of artifacts."""

import argparse
import contextlib
import io
import math
import re
from pathlib import Path

import pytest

import wqed.cli
from wqed.cli import (
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
from wqed.serialize import parse_config_text, read_config, read_csv

PI4 = math.pi / 4


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
        assert RunConfig.from_text(cfg.text()) == cfg

    def test_custom_round_trip(self):
        cfg = RunConfig(gamma_over_delta=4.0, k0l=1.0 / 3.0,
                        model="rwa-cutoff", epsilon=1e-7,
                        span_factor=2.0, zero_pad=4, area_tol=1e-4)
        again = RunConfig.from_text(cfg.text())
        assert again == cfg
        assert again.k0l == 1.0 / 3.0  # bitwise through 17 digits

    def test_unknown_section_and_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown config section"):
            RunConfig.from_text("[atoms]\nn = 2\n")
        with pytest.raises(ConfigurationError, match="unknown key"):
            RunConfig.from_text("[run]\ncolor = red\n")

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
        assert RunConfig.from_text(block) == RunConfig()

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
        cfg = RunConfig.from_text((out / "run_config.txt").read_text())
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
        integrate = wqed.cli.integrate_markovian

        def counting(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(wqed.cli, "integrate_markovian", counting)
        wqed.cli._scatter_cached.cache_clear()
        try:
            code, _, _ = invoke(["validate"])
        finally:
            wqed.cli._scatter_cached.cache_clear()
        assert code == EXIT_OK
        assert len(calls) == 12

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

    def test_out_flag_overrides_spec_dir(self, tmp_path):
        spec = tmp_path / "o.ini"
        spec.write_text("[sweep]\ngamma_over_delta = 4\nk0l = 0.5\n"
                        f"[output]\ndir = {tmp_path / 'ignored'}\n")
        code, _, _ = invoke(["sweep", "--spec", spec,
                             "--out", tmp_path / "chosen"])
        assert code == EXIT_OK
        assert (tmp_path / "chosen" / "manifest.txt").is_file()
        assert not (tmp_path / "ignored").exists()
