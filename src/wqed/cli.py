"""Command-line front end: coupling tables, scattering runs, parameter
sweeps, and a self-contained validation suite.

Subcommands
    coupling   tabulate the inter-atomic coupling under selected models
    simulate   run one scattering event and write CSV artifacts
    validate   run the oracle/invariant checks, one pass/fail line each
    sweep      run a grid of scattering events from a spec file

Exit codes: 0 success; 1 failed check or failed sweep cell; 2 usage,
config, or spec-file error; 3 validity-guard failure (override with
--force).

All file outputs are deterministic: identical inputs give byte-identical
artifacts (manifests carry a version field, never timestamps).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .checks import VALIDATION_CHECKS, CheckResult
from .dynamics import POINT_BUDGET, markov_guard
from .errors import ConfigurationError, DomainError, WqedError
from .serialize import (
    config_text,
    csv_text,
    gnuplot_script,
    read_config,
    write_csv,
)
from .sweep import (
    CONFIG_KEYS,
    SweepSpec,
    cell_params,
    compare_couplings,
    model_label,
    parse_models,
    read_sections,
    run_sweep,
)

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2
EXIT_GUARD = 3

DEFAULT_K0L_RANGE = "0:6.2832:64"
COUPLING_HEADER = ("k0l", "model", "re_m", "im_m", "abs_dev_from_full", "diverged")
COUPLING_ROW_BUDGET = 500_000  # rows of <= 0.08 ms, 0.7 KB: under a minute and 1 GB


# ----------------------------------------------------------------------
# run configuration
# ----------------------------------------------------------------------

@dataclass(frozen=True, init=False)
class RunConfig:
    """One scattering run, from a config file and/or flags: the one-cell
    view of a sweep.  Takes each run-config key of CONFIG_KEYS by name (the
    table's default if left out), holds what a SweepSpec does not and reads
    the other keys through `spec`, the one-cell SweepSpec that checks them.
    Parse -> serialize -> parse is the identity."""

    gamma_over_delta: float
    k0l: float
    model: str
    epsilon: float | None
    guard_limit: float
    spec: SweepSpec

    def __init__(self, **values):
        values = {name: key.default for name, key in CONFIG_KEYS.items() if key.section} | values
        own = {name: CONFIG_KEYS[name].parse(name, values.pop(name))
               for name in ("model", "epsilon", "guard_limit")}
        spec = SweepSpec(gamma_over_delta=[values.pop("gamma_over_delta")],
                         k0l=[values.pop("k0l")],
                         models=parse_models("model", own["model"], own["epsilon"]), **values)
        own.update(gamma_over_delta=spec.gamma_over_delta[0], k0l=spec.k0l[0], spec=spec)
        for name, value in own.items():
            object.__setattr__(self, name, value)

    def __getattr__(self, name):  # a key that the one-cell spec holds
        if name not in CONFIG_KEYS:
            raise AttributeError(name)
        return getattr(self.spec, name)

    def text(self) -> str:
        """The [run], [grid] and [checks] sections, in table order."""
        sections: dict[str, dict[str, object]] = {}
        for name, key in CONFIG_KEYS.items():
            if key.section and getattr(self, name) is not None:
                sections.setdefault(key.section, {})[name] = getattr(self, name)
        return config_text(sections)

    @classmethod
    def from_sections(cls, sections: dict[str, dict[str, object]],
                      **overrides) -> "RunConfig":
        """The run config of parsed sections, any keyword overriding them."""
        return cls(**(read_sections(sections, lambda key: key.section) | overrides))


def load_run_config(args: argparse.Namespace) -> RunConfig:
    """Config file values, overridden by any flag that was passed."""
    flags = {name: getattr(args, name) for name, key in CONFIG_KEYS.items()
             if key.flag and getattr(args, name, None) is not None}
    return RunConfig.from_sections(read_config(args.config) if args.config else {}, **flags)


# ----------------------------------------------------------------------
# coupling subcommand
# ----------------------------------------------------------------------

def parse_k0l_range(text: str) -> np.ndarray:
    """A:B:N -> N evenly spaced k0l values from A to B inclusive."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigurationError(f"--k0l-range must be A:B:N, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigurationError(f"--k0l-range must be A:B:N, got {text!r}") from None
    if not 1 <= count <= POINT_BUDGET:
        raise ConfigurationError(
            f"--k0l-range needs 1 <= N <= {POINT_BUDGET:,}, got {count:,}")
    if not (0 <= lo <= hi < math.inf):
        raise ConfigurationError(
            f"--k0l-range needs finite 0 <= A <= B, got {text!r}")
    return np.linspace(lo, hi, count)


def cmd_coupling(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.k0l_range and args.k0l is not None:
        parser.error("pass either --k0l-range or --k0l, not both")
    if args.k0l is not None:
        k0l_values = np.array([args.k0l])
    else:
        k0l_values = parse_k0l_range(args.k0l_range or DEFAULT_K0L_RANGE)
    epsilon, omega0_over_gamma = (CONFIG_KEYS[name].parse(name, getattr(args, name))
                                  for name in ("epsilon", "omega0_over_gamma"))
    models = parse_models("models", args.models, epsilon)
    if (n_rows := len(k0l_values) * len(models)) > COUPLING_ROW_BUDGET:
        raise ConfigurationError(f"the coupling table needs {n_rows:,} rows (k0l values x "
                                 f"models), over the budget of {COUPLING_ROW_BUDGET:,}")
    rows = compare_couplings(k0l_values, models, omega0_over_gamma=omega0_over_gamma)
    table = [(row.k0l, model_label(row.model), row.m_total.real,
              row.m_total.imag, row.abs_dev_from_full, row.diverged)
             for row in rows]
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = write_csv(out / "coupling.csv", COUPLING_HEADER, table)
        print(f"wrote {len(table)} rows to {path}")
    else:
        sys.stdout.write(csv_text(COUPLING_HEADER, table))
    return EXIT_OK


# ----------------------------------------------------------------------
# simulate subcommand
# ----------------------------------------------------------------------

def _write_plot_scripts(out: Path, prefix: str) -> None:
    envelopes = gnuplot_script(
        "field envelopes",
        [(f"{prefix}incident.csv", 1, 4, "incident"),
         (f"{prefix}transmitted.csv", 1, 4, "transmitted"),
         (f"{prefix}reflected.csv", 1, 4, "reflected")],
        xlabel="tau", ylabel="|A|")
    spectra = gnuplot_script(
        "spectral intensity",
        [(f"{prefix}spectrum_incident.csv", 1, 2, "incident"),
         (f"{prefix}spectrum_transmitted.csv", 1, 2, "transmitted")],
        xlabel="(omega - omega0) / delta", ylabel="intensity")
    (out / "plot_envelopes.gp").write_text(envelopes, newline="\n")
    (out / "plot_spectra.gp").write_text(spectra, newline="\n")


def cmd_simulate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    cfg = load_run_config(args)
    out = Path(args.out)

    report = markov_guard(cell_params(cfg.gamma_over_delta, cfg.k0l, cfg.omega0_over_gamma))
    worst = max(report.ratios.values())
    if worst > cfg.guard_limit and not args.force:
        print(f"error: Markov validity ratios exceed {cfg.guard_limit:g} "
              f"(worst {worst:.3g}); rerun with --force to proceed anyway",
              file=sys.stderr)
        for name, value in report.ratios.items():
            print(f"  {name} = {value:.3g}", file=sys.stderr)
        return EXIT_GUARD

    manifest = run_sweep(replace(cfg.spec, out_dir=out))
    cell = manifest.cells[0]
    (out / "run_config.txt").write_text(cfg.text(), newline="\n")

    sys.stdout.write(config_text(
        {"summary": manifest.sections()["cell000"]}))
    if cell.error is not None:
        print(f"error: {cell.error}", file=sys.stderr)
        return EXIT_CHECK
    if args.plots:
        _write_plot_scripts(out, "cell000_")
    return EXIT_OK if cell.passed else EXIT_CHECK


# ----------------------------------------------------------------------
# validate subcommand
# ----------------------------------------------------------------------

def cmd_validate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.list:
        for name in VALIDATION_CHECKS:
            print(name)
        return EXIT_OK
    names = list(VALIDATION_CHECKS)
    if args.only:
        if args.only not in VALIDATION_CHECKS:
            parser.error(f"unknown check {args.only!r}; choose from "
                         f"{', '.join(VALIDATION_CHECKS)}")
        names = [args.only]
    failures = 0
    for name in names:
        try:
            result = VALIDATION_CHECKS[name](args.mutate_coupling_sign)
        except WqedError as exc:
            result = CheckResult(False, math.nan, math.nan,
                                 f"raised {type(exc).__name__}: {exc}")
        failures += not result.ok
        print(f"{'PASS' if result.ok else 'FAIL'} {name:<22} "
              f"measured={result.measured:.3e} tol={result.tol:.0e}  {result.note}")
    print(f"{len(names) - failures}/{len(names)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_CHECK


# ----------------------------------------------------------------------
# sweep subcommand
# ----------------------------------------------------------------------

def cmd_sweep(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    manifest = run_sweep(SweepSpec.from_sections(read_config(args.spec), out_dir=args.out))
    for cell in manifest.cells:
        status = cell.area_check if cell.ok else f"error: {cell.error}"
        print(f"cell{cell.index:03d} gamma_over_delta={cell.gamma_over_delta:g} "
              f"k0l={cell.k0l:g} model={model_label(cell.model)} -> {status}")
    passed = sum(cell.passed for cell in manifest.cells)
    print(f"{passed}/{len(manifest.cells)} cells passed")
    return EXIT_OK if manifest.all_ok else EXIT_CHECK


# ----------------------------------------------------------------------
# parser assembly
# ----------------------------------------------------------------------

def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH",
                        help="run-config file; explicit flags win")
    flags = sorted((key.flag, name) for name, key in CONFIG_KEYS.items() if key.flag)
    for (_, spelling, options), name in flags:
        parser.add_argument(spelling, dest=name, **options)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wqed",
        description="one-photon pulse scattering by two atoms in a "
                    "one-dimensional waveguide")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p_coupling = sub.add_parser(
        "coupling", help="tabulate the inter-atomic coupling constant")
    p_coupling.add_argument("--k0l-range", dest="k0l_range", metavar="A:B:N",
                            help=f"inclusive range (default {DEFAULT_K0L_RANGE})")
    p_coupling.add_argument("--k0l", type=float, metavar="F",
                            help="single k0l value instead of a range")
    p_coupling.add_argument("--models", required=True, metavar="LIST",
                            help="comma list: full,rwa-cutoff,rwa-constg,rwa-negfreq")
    p_coupling.add_argument("--epsilon", type=float, metavar="F",
                            help="infrared cutoff for rwa-cutoff")
    p_coupling.add_argument("--omega0-over-gamma", dest="omega0_over_gamma",
                            type=float, metavar="F",
                            default=CONFIG_KEYS["omega0_over_gamma"].default)
    p_coupling.add_argument("--out", metavar="DIR",
                            help="write coupling.csv here instead of stdout")
    p_coupling.set_defaults(handler=cmd_coupling, subparser=p_coupling)

    p_simulate = sub.add_parser(
        "simulate", help="run one scattering event and write CSV artifacts")
    _add_run_flags(p_simulate)
    p_simulate.add_argument("--out", metavar="DIR", required=True,
                            help="artifact directory")
    p_simulate.add_argument("--plots", action="store_true",
                            help="emit gnuplot scripts referencing the CSVs")
    p_simulate.add_argument("--force", action="store_true",
                            help="proceed despite validity-guard failures")
    p_simulate.set_defaults(handler=cmd_simulate, subparser=p_simulate)

    p_validate = sub.add_parser(
        "validate", help="run the oracle/invariant validation suite")
    p_validate.add_argument("--only", metavar="NAME",
                            help="run a single named check")
    p_validate.add_argument("--list", action="store_true",
                            help="list check names and exit")
    p_validate.add_argument("--mutate-coupling-sign", action="store_true",
                            help=argparse.SUPPRESS)
    p_validate.set_defaults(handler=cmd_validate, subparser=p_validate)

    p_sweep = sub.add_parser(
        "sweep", help="run a parameter sweep from a spec file")
    p_sweep.add_argument("--spec", metavar="PATH", required=True,
                         help="sweep spec file ([sweep] + optional [output])")
    p_sweep.add_argument("--out", metavar="DIR",
                         help="artifact directory (overrides [output] dir)")
    p_sweep.set_defaults(handler=cmd_sweep, subparser=p_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, args.subparser)
    except (ConfigurationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except WqedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
