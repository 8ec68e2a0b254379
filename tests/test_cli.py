"""Command-line surface: config round trips, the four subcommands, the
exit-code contract, and byte-level determinism of artifacts."""

import ast
import contextlib
import dataclasses
import importlib
import io
import math
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from helpers import read_csv, run_config_from_text, run_fresh, run_limited, spec_text
import wqed
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
    build_parser,
    main,
    parse_k0l_range,
)
from wqed.errors import ConfigurationError, DomainError
from wqed.serialize import parse_config_text, read_config
from wqed.sweep import CONFIG_KEYS, SweepSpec, run_sweep

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


def no_cell(*args, **kwargs):
    """A run_cell that fails the test: no cell may run."""
    raise AssertionError("a cell ran")


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
    """A run config is a one-cell spec file: [sweep], as the manifest writes it."""

    def test_defaults_round_trip(self):
        spec = SweepSpec.from_sections({})
        assert spec == SweepSpec()
        assert run_config_from_text(spec_text(spec)) == spec
        # an axis left out takes its default
        assert run_config_from_text("[sweep]\nk0l = 1\n") == SweepSpec(k0l=1.0)

    def test_custom_round_trip(self):
        spec = SweepSpec.from_sections(
            {}, gamma_over_delta=4.0, k0l=1.0 / 3.0, models="rwa-cutoff:1e-7", dt_factor=0.5)
        again = run_config_from_text(spec_text(spec))
        assert again == spec
        assert again.k0l == (1.0 / 3.0,)  # bitwise through 17 digits

    @pytest.mark.parametrize("model", ["models = rwa-cutoff:1e-7",
                                       "models = rwa-cutoff:0.0000001"])
    def test_model_label_written_normalized(self, model):
        # the cutoff is written at 17 digits, which reads back to the same spec
        spec = run_config_from_text(f"[sweep]\n{model}\n")
        text = spec_text(spec)
        assert "\nmodels = rwa-cutoff:9.9999999999999995e-08\n" in text
        assert run_config_from_text(text) == spec

    def test_unknown_section_and_key_rejected(self):
        for text, message in [
                ("[atoms]\nn = 2\n", "unknown config section [atoms]"),
                ("[DEFAULT]\nk0l = 1.0\n", "unknown config section [DEFAULT]"),
                ("[sweep]\ncolor = red\n", "unknown key 'color' in [sweep]"),
                ("[sweep]\nK0L = 1.0\n", "unknown key 'K0L' in [sweep]")]:
            with pytest.raises(ConfigurationError, match=re.escape(message)):
                run_config_from_text(text)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SweepSpec.from_sections({}, gamma_over_delta=-1.0)
        with pytest.raises(ConfigurationError):
            SweepSpec.from_sections({}, dt_factor=-1.0)
        with pytest.raises(DomainError):
            SweepSpec.from_sections({}, models="rwa-cutoff")  # cutoff needs its :EPS

    def test_readme_example_is_the_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```ini\n(.*?)```", readme, re.S)
        block, = [b for b in blocks if b.startswith("[sweep]")]
        assert run_config_from_text(block) == SweepSpec()
        uncommented = "".join(line for line in block.splitlines(keepends=True)
                              if not line.startswith("#"))
        assert uncommented == spec_text(SweepSpec())

    def test_readme_key_table_is_the_schema(self):
        # the key column is CONFIG_KEYS, the default column reads as each
        # key's default, and each flag column lists the option strings that
        # the parser of that subcommand registers
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = re.findall(r"^\| `(\w+)` \|(.*)\|$", readme, re.M)
        assert sorted(name for name, _ in rows) == sorted(CONFIG_KEYS)
        parsers = {command: build_parser().parse_args(argv).subparser for command, argv in (
            ("simulate", ["simulate", "--out", "o"]), ("coupling", ["coupling", "--models", "full"]))}
        for name, cells in rows:
            _, default, *flag_cells = [cell.strip() for cell in cells.split("|")]
            parse, value = CONFIG_KEYS[name].parse, {"π/4": PI4}.get(default, default.strip("`"))
            assert parse(name, value) == parse(name, CONFIG_KEYS[name].default), (name, default)
            for parser, cell in zip(parsers.values(), flag_cells):
                registered = [f"`{option}`" for action in parser._actions
                              if action.dest == name for option in action.option_strings]
                assert cell == (", ".join(registered) or "—"), (name, cell)

    def test_readme_python_blocks_run(self, capsys):
        # the library-use blocks, in order and in one namespace
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
        assert len(blocks) >= 2
        namespace = {}
        for block in blocks:
            exec(compile(block, "README.md", "exec"), namespace)
        assert float(capsys.readouterr().out) < 1e-10   # the printed area ratio

    def test_flags_win_over_config_file(self, tmp_path):
        text = spec_text(SweepSpec(gamma_over_delta=0.25, dt_factor=0.5)) + "[output]\ndir = d\n"
        spec = SweepSpec.from_sections(parse_config_text(text), gamma_over_delta=4.0)
        assert spec.gamma_over_delta == (4.0,)   # flag
        assert spec.dt_factor == 0.5             # file
        assert spec.out_dir == "d"
        assert SweepSpec.from_sections(parse_config_text(text), out_dir="o").out_dir == "o"

    def test_missing_config_file(self, tmp_path):
        code, out, err = invoke(["simulate", "--config", "/nonexistent/run.ini",
                                 "--out", tmp_path / "o"])
        assert code == EXIT_USAGE and out == ""
        assert "not found" in err
        assert not (tmp_path / "o").exists()


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
        code, out, _ = invoke(["coupling", "--k0l", 200.0, "--models", "rwa-cutoff:1e-6"])
        assert code == EXIT_OK
        assert out.strip().split("\n")[1].split(",")[5] == "true"
        code, out, _ = invoke(["coupling", "--k0l", 200.0, "--models", "rwa-cutoff:50"])
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
        ["coupling", "--models", "rwa-cutoff"],   # no :EPS
        ["coupling", "--models", "full:1e-6"],    # only rwa-cutoff takes one
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
        # the rule and message of the key table's numbers, as simulate gives them
        code, out, err = invoke(["coupling", "--models", f"rwa-cutoff:{value}"])
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

    def test_constg_default_range_exits_2_naming_the_remedy(self):
        # rwa-constg is singular at k0l = 0, where the default range starts;
        # only that case blames the default range, not a 0 that was passed
        for flags, where in [
                ([], ", where the default --k0l-range starts; pass a --k0l,"),
                (["--k0l", 0], "; pass a --k0l above 0,"),
                (["--k0l-range", "0:1:3"], "; pass a --k0l above 0,")]:
            code, out, err = invoke(["coupling", "--models", "rwa-constg", *flags])
            assert code == EXIT_USAGE and out == ""
            assert err == (f"error: rwa-constg is singular at k0l = 0{where} "
                           "or a --k0l-range starting above 0\n")
        code, out, _ = invoke(["coupling", "--models", "rwa-constg", "--k0l-range", "0.1:6:3"])
        assert code == EXIT_OK and out.count(",rwa-constg,") == 3

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_k0l_exits_2_naming_k0l(self, value):
        # the key table's rule and message, as simulate gives them
        code, out, err = invoke(["coupling", "--models", "full", "--k0l", value])
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: k0l must list finite values >= 0, got {float(value)}\n"

    def test_unused_epsilon_exits_2(self):
        # the cutoff is written rwa-cutoff:EPS alone: --epsilon is no flag
        code, out, err = invoke(["coupling", "--models", "full", "--epsilon", 1e-6])
        assert code == EXIT_USAGE and out == ""
        assert "unrecognized arguments: --epsilon 1e-06" in err

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

    def test_run_config_echo_round_trips(self, sim_run, tmp_path):
        # run_config.txt is the manifest's [sweep] block, a spec file that
        # both commands read back to the same cell
        out, _, _, _ = sim_run
        config = out / "run_config.txt"
        spec = run_config_from_text(config.read_text())
        assert spec.gamma_over_delta == (4.0,)
        assert spec.k0l == (PI4,)
        assert config.read_text() == (out / "manifest.txt").read_text().split("\n\n")[1] + "\n"
        code, _, _ = invoke(["simulate", "--config", config, "--out", tmp_path / "sim", "--plots"])
        assert code == EXIT_OK
        assert sorted(path.name for path in (tmp_path / "sim").iterdir()) == sorted(
            path.name for path in out.iterdir())
        for path in out.iterdir():
            assert (tmp_path / "sim" / path.name).read_bytes() == path.read_bytes(), path.name
        code, _, _ = invoke(["sweep", "--spec", config, "--out", tmp_path / "sweep"])
        assert code == EXIT_OK
        assert ((tmp_path / "sweep" / "manifest.txt").read_bytes()
                == (out / "manifest.txt").read_bytes())

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
        # a coupling that raises fails its cell, not the run
        out = tmp_path / "new" / "dir"
        done = run_fresh(["simulate", "--model", "rwa-constg", "--k0l", 0, "--out", out])
        assert done.returncode == EXIT_CHECK, done.stderr
        assert done.stderr.startswith("error: DomainError: rwa-constg is singular")
        summary = parse_config_text(done.stdout)["summary"]
        assert summary["ok"] is False
        assert summary["error"].startswith("DomainError: rwa-constg is singular")
        manifest = read_config(out / "manifest.txt")
        assert manifest["manifest"]["all_ok"] is False
        assert manifest["cell000"]["error"] == summary["error"]
        assert sorted(p.name for p in out.iterdir()) == ["manifest.txt", "run_config.txt"]

    def test_far_over_budget_prints_a_short_count(self, tmp_path):
        code, _, err = invoke(["simulate", "--gamma-over-delta", "1e300",
                               "--out", tmp_path])
        assert code == EXIT_USAGE
        # 20/delta in steps of 0.01/gamma (16/delta + 12 decay lengths, 1.600e+303, before)
        assert "the time grid needs n = 2.000e+303 points, over the budget" in err
        assert len(err) < 200

    def test_weak_extreme_runs_under_the_memory_cap(self, tmp_path):
        # gamma/delta = 1e-3: a 2,001-point grid ending at the source's support
        # (the grid ran 12 decay lengths of the slow mode before, 19.6 s and
        # 797 MiB); within a 1 GiB address space
        code, err = run_limited(["simulate", "--gamma-over-delta", "1e-3", "--k0l", repr(PI4),
                                 "--out", tmp_path])
        assert code == EXIT_OK, err
        cell = read_config(tmp_path / "manifest.txt")["cell000"]
        assert cell["n"] == 2_001 and cell["area_check"] == "pass"
        assert cell["area_trans_ratio"] <= 1e-10 and cell["area_refl_ratio"] <= 1e-10

    @pytest.mark.parametrize("ratio", ["1e-4", "1e-5"])
    def test_forced_weak_end_spectra_stay_small(self, tmp_path, ratio):
        # past the Markov guard, forced: 1e-4 took 1,053 MiB and wrote 708 MB
        # of spectra when they resolved 12 decay lengths of its slow mode, and
        # 1e-5 exited 2 on the spectrum budget; each spectrum is its coarse
        # zone and its lines' zones now, within a 512 MiB address space
        code, err = run_limited(["simulate", "--gamma-over-delta", ratio, "--k0l", repr(PI4),
                                 "--force", "--out", tmp_path], limit=512 << 20)
        assert code == EXIT_OK, err
        for kind in ("incident", "transmitted"):
            header, rows = read_csv(tmp_path / f"cell000_spectrum_{kind}.csv")
            assert 977 <= len(rows) <= 2_000

    @pytest.mark.parametrize("flag, value, message", [
        ("--grid-dt", "1e-320", "the time grid needs n = Infinity points, over the budget"),
        ("--grid-dt", "nan", "dt_factor must be finite and > 0, got nan"),
    ])
    def test_bad_grid_factor_exits_2(self, tmp_path, flag, value, message):
        done = run_fresh(["simulate", flag, value, "--out", tmp_path / "d"])
        assert done.returncode == EXIT_USAGE, done.stderr
        assert done.stderr.startswith("error: ") and message in done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("flags, dt_factor, fits, rerun_code", [
        (["--grid-dt", 3], 3, "2", EXIT_OK),
    ])
    def test_step_over_the_limit_exits_2_before_any_cell(self, tmp_path, monkeypatch,
                                                         flags, dt_factor, fits, rerun_code):
        out = tmp_path / "d"
        with monkeypatch.context() as patch:
            patch.setattr(wqed.sweep, "run_cell", no_cell)
            code, stdout, err = invoke(["simulate", *flags, "--out", out])
        assert code == EXIT_USAGE and stdout == ""
        assert err == (f"error: dt_factor = {dt_factor} gives a step over the integrators' "
                       f"limit min(1/delta, 1/gamma, 1/|M|)/50; use dt_factor <= {fits}\n")
        assert not out.exists()
        code, _, err = invoke(["simulate", *flags, "--grid-dt", fits, "--out", out])
        assert code == rerun_code and err == ""

    def test_deep_cutoff_runs_at_the_default_step(self, tmp_path):
        # |M| ~ 25 gamma = 6.3 delta under a deep infrared cutoff: the grid
        # steps by 1/(100 |M|), so the cell runs and fails only the area check
        code, stdout, err = invoke(["simulate", "--model", "rwa-cutoff:1e-30",
                                    "--out", tmp_path / "d"])
        assert code == EXIT_CHECK and err == ""
        summary = parse_config_text(stdout)["summary"]
        assert summary["ok"] is True and summary["area_check"] == "fail"
        cell = read_config(tmp_path / "d" / "manifest.txt")["cell000"]
        params = wqed.sweep.cell_params(0.25, PI4)
        assert cell["n"] == 12_696
        abs_m = math.hypot(cell["re_m"], cell["im_m"])
        assert cell["dt"] == pytest.approx(0.01 / abs_m, rel=1e-3)
        assert cell["dt"] < 0.01 / max(params.delta, params.gamma)

    @pytest.mark.parametrize("argv, text, name", [
        (["--model", "full,rwa-negfreq"], None, "models lists 2 values"),
        ([], "[sweep]\nk0l = 0.5, 1\n", "k0l lists 2 values"),
        ([], "[sweep]\ngamma_over_delta = 0.1, 0.2, 0.3\n", "gamma_over_delta lists 3 values"),
    ])
    def test_more_than_one_cell_exits_2(self, tmp_path, monkeypatch, argv, text, name):
        # simulate runs one cell; a spec of more is sweep's
        if text is not None:
            (tmp_path / "in.ini").write_text(text)
            argv = [*argv, "--config", tmp_path / "in.ini"]
        monkeypatch.setattr(wqed.sweep, "run_cell", no_cell)
        code, out, err = invoke(["simulate", *argv, "--out", tmp_path / "o"])
        assert code == EXIT_USAGE and out == ""
        assert err == (f"error: {name}, but simulate runs one cell: "
                       "run this spec with sweep --spec\n")
        assert not (tmp_path / "o").exists()

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
        grid, 9 in all (12 before transfer-resonance read these cells)."""
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
        assert len(calls) == 9

    def test_cold_run_holds_only_the_shared_runs(self):
        """A cold validate allocates at most 3.0 MiB past its imports, and
        keeps only the three (r, pi/4) runs that several checks share."""
        script = ("import contextlib, io, tracemalloc\n"
                  "import wqed.checks\n"
                  "from wqed.cli import main\n"
                  "tracemalloc.start()\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  "    code = main(['validate'])\n"
                  "print(code, tracemalloc.get_traced_memory()[1],\n"
                  "      wqed.checks._scatter_cached.cache_info().currsize)\n")
        done = run_fresh(["-c", script], entry=())
        assert done.returncode == 0, done.stderr
        code, peak, held = map(int, done.stdout.split())
        assert code == EXIT_OK
        assert peak <= 3.0 * 2 ** 20
        assert held == 3

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

    def test_results_are_python_scalars(self):
        """Every check reports ok as a bool and measured and tol as floats,
        never as numpy scalars."""
        for name, check in VALIDATION_CHECKS.items():
            ok, measured, tol, _ = check()
            assert type(ok) is bool, name
            assert type(measured) is float and type(tol) is float, name


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_cli_process_runs_one_blas_thread(preset, expected):
    """Importing the CLI sets OPENBLAS_NUM_THREADS to 1 before numpy loads,
    so the process runs one thread; a value the user set is kept."""
    script = ("import os\n"
              "os.environ.pop('OPENBLAS_NUM_THREADS', None)\n"
              + (f"os.environ['OPENBLAS_NUM_THREADS'] = {preset!r}\n" if preset else "")
              + "import wqed.cli\n"
              "tasks = os.listdir('/proc/self/task') if os.path.isdir('/proc/self/task') else []\n"
              "print(os.environ['OPENBLAS_NUM_THREADS'], len(tasks))\n")
    done = run_fresh(["-c", script], entry=())
    assert done.returncode == 0, done.stderr
    value, tasks = done.stdout.split()
    assert value == expected
    if tasks == "0":
        pytest.skip("no /proc/self/task to count threads in")
    if preset is None:
        assert tasks == "1"


def test_cli_import_freezes_its_heap_once():
    """Importing the CLI freezes what import built, so that the collections
    at exit skip it; main() freezes nothing more, the collector stays on,
    and the cycles that building the parser leaves are freed before the
    command runs."""
    script = ("import gc, wqed.cli\n"
              "frozen, found, run = gc.get_freeze_count(), [], wqed.cli.cmd_validate\n"
              "def probe(args, parser):\n"
              "    found.append(gc.collect())\n"
              "    return run(args, parser)\n"
              "wqed.cli.cmd_validate = probe\n"
              "codes = [wqed.cli.main(['validate', '--list']) for _ in range(2)]\n"
              "print(frozen, gc.get_freeze_count(), gc.isenabled(), *codes, found[0])\n")
    done = run_fresh(["-c", script], entry=())
    assert done.returncode == 0, done.stderr
    frozen, after, enabled, *codes, garbage = done.stdout.splitlines()[-1].split()
    assert int(frozen) > 0 and after == frozen
    assert enabled == "True" and codes == ["0", "0"]
    assert garbage == "0"   # the first command found no unreachable object


def test_only_the_validated_records_are_dataclasses():
    """A record that checks or derives a field in its constructor stays a
    dataclass, since a NamedTuple's _replace would skip that; the other
    records are NamedTuples, which are cheaper to import."""
    classes = {cls.__name__: cls
               for info in pkgutil.iter_modules(wqed.__path__)
               for cls in vars(importlib.import_module(f"wqed.{info.name}")).values()
               if isinstance(cls, type) and cls.__module__ == f"wqed.{info.name}"}
    assert {name for name, cls in classes.items() if dataclasses.is_dataclass(cls)} == {
        "SimParams", "CouplingModel", "TimeGrid", "DetectorSpec", "FieldEnvelope", "SweepSpec"}
    assert {name for name, cls in classes.items() if issubclass(cls, tuple)} == {
        "CouplingResult", "CouplingRow", "SourceTerm", "AmplitudeTrajectory",
        "FieldPrefactors", "Spectrum", "CellResult", "RunManifest", "ConfigKey", "CheckResult"}


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
        assert [line.split(" model=")[0] for line in out.splitlines()[:3]] == [
            f"cell{i:03d} gamma_over_delta={g} k0l=0.785398"
            for i, g in enumerate(("4", "0.25", "0.02"))]  # distinct in {:g}
        sections = read_config(tmp_path / "out" / "manifest.txt")
        widths = [sections[f"cell{i:03d}"]["dip_width"] for i in range(3)]
        assert widths[0] > widths[1] > widths[2]   # ordered by coupling

    def test_full_against_a_cutoff_runs_every_cell(self, tmp_path):
        # the paper's comparison: each cell runs on its own grid, the full
        # coupling passes the area check and its RWA cutoff form fails it
        spec = tmp_path / "compare.ini"
        spec.write_text(f"[sweep]\ngamma_over_delta = 0.25, 4\nk0l = {PI4!r}\n"
                        f"models = full, rwa-cutoff:1e-3\n[output]\ndir = {tmp_path / 'out'}\n")
        code, out, err = invoke(["sweep", "--spec", spec])
        assert code == EXIT_CHECK and err == ""
        assert out.endswith("\n2/4 cells passed\n")
        manifest = read_config(tmp_path / "out" / "manifest.txt")
        cells = [manifest[f"cell00{i}"] for i in range(4)]
        assert all(cell["ok"] is True for cell in cells)
        assert [cell["area_check"] for cell in cells] == ["pass", "fail"] * 2
        assert cells[3]["n"] == 45_076

    def test_labels_tell_close_cells_apart(self, tmp_path):
        # both ratios print as 4 in {:g}: that axis alone takes 17 digits
        spec = tmp_path / "close.ini"
        spec.write_text("[sweep]\ngamma_over_delta = 4.0000001, 4.0000002\n"
                        f"k0l = {PI4!r}\n")
        code, out, _ = invoke(["sweep", "--spec", spec])
        assert code == EXIT_OK
        assert out.splitlines()[:2] == [
            "cell000 gamma_over_delta=4.0000001000000003 k0l=0.785398 model=full -> pass",
            "cell001 gamma_over_delta=4.0000001999999997 k0l=0.785398 model=full -> pass"]

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
        # a key left out takes its default; a key with no value is refused
        spec = tmp_path / "m.ini"
        spec.write_text("[sweep]\ngamma_over_delta =\n")
        code, _, err = invoke(["sweep", "--spec", spec])
        assert code == EXIT_USAGE and err == "error: gamma_over_delta: bad value ''\n"
        spec.write_text("[sweep]\ngamma_over_delta = 4, soup\nk0l = 1\n")
        code, _, err = invoke(["sweep", "--spec", spec])
        assert code == EXIT_USAGE and "soup" in err

    def test_bad_epsilon_exits_2(self, tmp_path):
        spec = tmp_path / "e.ini"
        spec.write_text("[sweep]\ngamma_over_delta = 4\nk0l = 1\n"
                        "models = full, rwa-cutoff:abc\n")
        code, _, err = invoke(["sweep", "--spec", spec])
        assert code == EXIT_USAGE
        assert err == "error: epsilon: bad value 'abc'\n"

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
        # gamma/delta = 1e4 asks for a grid of 2e7 points (~4 GB).  1e-4 asked
        # for 40,972,164 before; its grid ends at the source's support now
        # (2,002 points).  A spectrum has no budget of its own: its chirp-z
        # transforms follow the grid's n (1e-5 asked for 83,886,080 before)
        ("gamma_over_delta = 1e4\n", "the time grid needs n = 20,000,001 points, over "
         "the budget of 10,000,000 points; raise dt_factor"),
    ])
    def test_over_budget_exits_2_before_allocating(self, tmp_path, lines, what):
        spec = tmp_path / "big.ini"
        spec.write_text(f"[sweep]\n{lines}k0l = {PI4!r}\n")
        code, err = run_limited(["sweep", "--spec", spec])
        assert code == EXIT_USAGE, err
        assert what in err and "over the budget of 10,000,000 points" in err

    @pytest.mark.parametrize("line, message", [
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
        spec.write_text("[sweep]\ngamma_over_delta = 0.25, 4\nk0l = 0\n"
                        f"models = rwa-constg\n[output]\ndir = {out}\n")
        done = run_fresh(["sweep", "--spec", spec])
        assert done.returncode == EXIT_CHECK, done.stderr
        assert done.stderr == ""
        assert done.stdout.count("-> error: DomainError: rwa-constg is singular") == 2
        assert done.stdout.endswith("\n0/2 cells passed\n")
        manifest = read_config(out / "manifest.txt")
        assert manifest["manifest"]["all_ok"] is False
        assert [manifest[f"cell00{i}"]["ok"] for i in range(2)] == [False, False]
        assert [p.name for p in out.iterdir()] == ["manifest.txt"]

    def test_step_over_the_limit_exits_2_before_any_cell(self, tmp_path, monkeypatch):
        out = tmp_path / "d"
        spec = tmp_path / "coarse.ini"
        spec.write_text(f"[sweep]\ngamma_over_delta = 0.25, 4\nk0l = {PI4!r}\n"
                        f"dt_factor = 3\n[output]\ndir = {out}\n")
        monkeypatch.setattr(wqed.sweep, "run_cell", no_cell)
        code, stdout, err = invoke(["sweep", "--spec", spec])
        assert code == EXIT_USAGE and stdout == ""
        assert err.startswith("error: dt_factor = 3 gives a step over") and err.endswith(
            "use dt_factor <= 2\n")
        assert not out.exists()

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
    """Each key is read by one rule in the spec file of both commands and
    in the flags: a bad value exits 2 before any cell runs."""

    @staticmethod
    def run_both(tmp_path, text):
        """(exit code, stdout, stderr) of `simulate --config` and of
        `sweep --spec` with this file; neither may create its out dir."""
        spec = tmp_path / "spec.ini"
        spec.write_text(text)
        results = [invoke(["simulate", "--config", spec, "--out", tmp_path / "sim"]),
                   invoke(["sweep", "--spec", spec, "--out", tmp_path / "sweep"])]
        assert not (tmp_path / "sim").exists() and not (tmp_path / "sweep").exists()
        return results

    @pytest.mark.parametrize("text, message", [
        ("[sweep]\ndt_factor = 0\n", "dt_factor must be finite and > 0"),
        ("[sweep]\nk0l = true\n", "k0l: bad value True"),
        ("[sweep]\nmodels = 5\n", "5"),
        ("[sweep]\nmodels = full, rwa-cutoff\n",
         "model 'rwa-cutoff' needs its infrared cutoff: write rwa-cutoff:EPS, EPS > 0"),
        ("[DEFAULT]\nk0l = 1.0\ngamma_over_delta = 4\n", "unknown config section [DEFAULT]"),
        ("[sweep]\nk0l = 1\n[DEFAULT]\nk0l = 2\n", "unknown config section [DEFAULT]"),
        ("[sweep]\nK0L = 1.0\nGamma_Over_Delta = 4\n", "unknown key 'K0L' in [sweep]"),
    ])
    def test_bad_value_exits_2_in_both_commands(self, tmp_path, text, message):
        for code, out, err in self.run_both(tmp_path, text):
            assert code == EXIT_USAGE and out == ""
            assert err.startswith("error: ") and message in err, err
            assert "Traceback" not in err

    def test_axis_message_shows_the_values_given(self, tmp_path):
        # a list as its comma list, a flag's one value as a number
        for _, _, err in self.run_both(tmp_path, "[sweep]\nk0l = 0.1, nan\n"):
            assert err == "error: k0l must list finite values >= 0, got 0.1, nan\n"
        _, _, err = invoke(["simulate", "--k0l", "nan", "--out", tmp_path / "sim"])
        assert err == "error: k0l must list finite values >= 0, got nan\n"

    @pytest.mark.parametrize("argv, text, message", [
        (["simulate", "--grid-span", 2], None, "unrecognized arguments: --grid-span 2"),
        (["simulate", "--config"], "[grid]\nspan_factor = 2\n",
         "unknown config section [grid]"),
        (["sweep", "--spec"], "[sweep]\ngamma_over_delta = 4\nk0l = 1\nspan_factor = 2\n",
         "unknown key 'span_factor' in [sweep]"),
        (["simulate", "--config"], "[checks]\nguard_limit = 0.5\n",
         "unknown config section [checks]"),
        (["simulate", "--config"], "[checks]\narea_tol = 0.001\n",
         "unknown config section [checks]"),
        (["sweep", "--spec"], "[sweep]\ngamma_over_delta = 4\nk0l = 1\narea_tol = 0.001\n",
         "unknown key 'area_tol' in [sweep]"),
        (["coupling", "--models", "rwa-cutoff:1e-6", "--epsilon", 1e-6], None,
         "unrecognized arguments: --epsilon 1e-06"),
        (["simulate", "--config"], "[run]\nnormalization = unit_excitation\n",
         "unknown config section [run]"),
        (["sweep", "--spec"],
         "[sweep]\ngamma_over_delta = 4\nk0l = 1\nnormalization = unit_excitation\n",
         "unknown key 'normalization' in [sweep]"),
        (["simulate", "--normalization", "unit_excitation"], None,
         "unrecognized arguments: --normalization unit_excitation"),
        (["simulate", "--config"], "[run]\ngamma_over_delta = 4\n",
         "unknown config section [run]"),
        (["sweep", "--spec"], "[grid]\ndt_factor = 1\n", "unknown config section [grid]"),
        (["simulate", "--config"], "[sweep]\nmodel = full\n", "unknown key 'model' in [sweep]"),
        (["sweep", "--spec"], "[sweep]\nmodel = full\n", "unknown key 'model' in [sweep]"),
        (["simulate", "--model", "rwa_negfreq"], None, "unknown coupling model 'rwa_negfreq'"),
        (["sweep", "--spec"], "[sweep]\nmodels = rwa_cutoff:1e-7\n",
         "unknown coupling model 'rwa_cutoff:1e-7'"),
    ])
    def test_deleted_keys_exit_2(self, tmp_path, argv, text, message):
        # span_factor chose nothing once every grid ended at the source's
        # support, guard_limit was a second Markov threshold, area_tol a
        # second pulse-area tolerance beside AREA_TOL, epsilon a second
        # spelling of rwa-cutoff:EPS, normalization a choice of photon other
        # than the one excitation, [run] and [grid] with its one `model` a
        # second file format, and rwa_negfreq a second spelling of
        # rwa-negfreq: none is a key, and naming one exits 2
        if text is not None:
            (tmp_path / "in.ini").write_text(text)
            argv = [*argv, tmp_path / "in.ini"]
        code, out, err = invoke([*argv, "--out", tmp_path / "o"])
        assert code == EXIT_USAGE and out == "" and message in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("omega0_over_gamma, worst", [(1e4, 4e-4), (40, 0.1), (10, 0.4)])
    def test_markov_ok_is_simulate_running_unforced(self, tmp_path, omega0_over_gamma, worst):
        # one Markov rule: a sweep cell's markov_ok says whether simulate runs
        # the same cell without --force (worst ratio delta/omega0 here)
        cell = run_sweep(SweepSpec(gamma_over_delta=[0.25], k0l=[PI4],
                                   omega0_over_gamma=omega0_over_gamma)).cells[0]
        assert cell.markov_ratio_max == pytest.approx(worst)
        code, _, _ = invoke(["simulate", "--gamma-over-delta", 0.25, "--k0l", PI4,
                             "--omega0-over-gamma", omega0_over_gamma, "--out", tmp_path / "s"])
        assert code == (EXIT_OK if cell.markov_ok else EXIT_GUARD)
        assert cell.markov_ok == (worst <= 0.2)

    @pytest.mark.parametrize("text", [
        "[sweep]\nepsilon = 1e-6\n",
        "[sweep]\nmodels = rwa-negfreq\nepsilon = 1e-6\n",
        "[sweep]\nmodels = full, rwa-cutoff:1e-7\nepsilon = 1e-6\n",
    ])
    def test_unused_epsilon_exits_2(self, tmp_path, text):
        # the cutoff is written rwa-cutoff:EPS alone: epsilon is no key
        for code, out, err in self.run_both(tmp_path, text):
            assert code == EXIT_USAGE and out == ""
            assert err == "error: unknown key 'epsilon' in [sweep]\n"

    def test_unused_epsilon_flag_exits_2(self, tmp_path):
        code, out, err = invoke(["simulate", "--gamma-over-delta", 4, "--epsilon", 1e-6,
                                 "--out", tmp_path / "o"])
        assert code == EXIT_USAGE and out == ""
        assert "unrecognized arguments: --epsilon 1e-06" in err
        assert not (tmp_path / "o").exists()


class TestUnusableFiles:
    """An output directory that cannot be one, or a config file that is not
    UTF-8 text, exits 2 with one error line before any work: main returns,
    so no traceback, and nothing is written to the working directory."""

    @pytest.mark.parametrize("out", ["", "a_file", "a_file/x"])
    @pytest.mark.parametrize("argv", [
        ["simulate", "--gamma-over-delta", 4],
        ["sweep", "--spec", "s.ini"],
        ["coupling", "--models", "full"],
    ])
    def test_unusable_out_dir_exits_2_before_any_work(self, tmp_path, monkeypatch, argv, out):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a_file").write_text("kept\n")
        (tmp_path / "s.ini").write_text("[sweep]\ngamma_over_delta = 4\nk0l = 1\n")
        monkeypatch.setattr(wqed.sweep, "run_cell", no_cell)
        monkeypatch.setattr(wqed.cli, "compare_couplings", no_cell)
        code, stdout, err = invoke([*argv, "--out", out])
        assert code == EXIT_USAGE and stdout == ""
        assert err.startswith("error: the output directory is '': name one\n" if out == ""
                              else f"error: cannot use {out!r} as the output directory: ")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["a_file", "s.ini"]
        assert (tmp_path / "a_file").read_text() == "kept\n"

    @pytest.mark.parametrize("argv", [["simulate", "--config"], ["sweep", "--spec"]])
    def test_config_file_not_utf8_exits_2(self, tmp_path, argv):
        path = tmp_path / "bom.ini"
        path.write_bytes(b"\xff\xfe")
        code, out, err = invoke([*argv, path, "--out", tmp_path / "o"])
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: config file {path} is not UTF-8 text\n"
        assert not (tmp_path / "o").exists()


def test_readme_shell_examples_run(tmp_path, monkeypatch):
    # every `wqed ...` line of README's sh blocks exits 0, triple.ini being
    # its ini block of that name, so no example names a gone flag or key
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    triple, = [block for block in re.findall(r"```ini\n(.*?)```", readme, re.S)
               if block.startswith("# triple.ini\n")]
    commands = [words[1:] for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
                for line in block.replace("\\\n", " ").splitlines()
                if (words := shlex.split(line, comments=True))[:1] == ["wqed"]]
    assert len(commands) == 8
    monkeypatch.chdir(tmp_path)
    (tmp_path / "triple.ini").write_text(triple)
    for argv in commands:
        code, _, err = invoke(argv)
        assert code == EXIT_OK, (argv, err)
