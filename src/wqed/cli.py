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
import gc
import math
import os
import sys
from pathlib import Path

# wqed makes no BLAS call, but OpenBLAS starts its threads when numpy is
# imported, and they spin on the other cores while it loads: a CLI process
# runs one unless the user sets OPENBLAS_NUM_THREADS
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402  (after the thread default)

from .checks import VALIDATION_CHECKS, CheckResult
from .coupling import compare_couplings
from .dynamics import MARKOV_LIMIT, POINT_BUDGET, markov_guard
from .errors import ConfigurationError, DomainError, WqedError
from .serialize import (config_text, csv_text, gnuplot_script, output_directory, read_config,
                        write_csv)
from .sweep import (
    CONFIG_KEYS,
    SweepSpec,
    cell_params,
    parse_models,
    run_sweep,
)

# move the ~22,000 objects that import built out of the collector's reach:
# no collection, the final ones at exit included, walks them again.  Once,
# here, never per main(): a frozen object is never collected
gc.freeze()

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2
EXIT_GUARD = 3

DEFAULT_K0L_RANGE = "0:6.2832:64"
COUPLING_HEADER = ("k0l", "model", "re_m", "im_m", "abs_dev_from_full", "diverged")
COUPLING_ROW_BUDGET = 500_000  # rows of <= 0.08 ms, 0.7 KB: under a minute and 1 GB


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
        k0l_values = np.array(CONFIG_KEYS["k0l"].parse("k0l", args.k0l))
    else:
        k0l_values = parse_k0l_range(args.k0l_range or DEFAULT_K0L_RANGE)
    omega0_over_gamma = CONFIG_KEYS["omega0_over_gamma"].parse(
        "omega0_over_gamma", args.omega0_over_gamma)
    models = parse_models("models", args.models)
    if (n_rows := len(k0l_values) * len(models)) > COUPLING_ROW_BUDGET:
        raise ConfigurationError(f"the coupling table needs {n_rows:,} rows (k0l values x "
                                 f"models), over the budget of {COUPLING_ROW_BUDGET:,}")
    if k0l_values[0] == 0 and any(model.variant == "rwa-constg" for model in models):
        if args.k0l is None and not args.k0l_range:
            raise DomainError("rwa-constg is singular at k0l = 0, where the default --k0l-range "
                              "starts; pass a --k0l, or a --k0l-range starting above 0")
        raise DomainError("rwa-constg is singular at k0l = 0; pass a --k0l above 0, "
                          "or a --k0l-range starting above 0")
    out = None if args.out is None else output_directory(args.out)
    rows = compare_couplings(k0l_values, models, omega0_over_gamma=omega0_over_gamma)
    table = [(row.k0l, row.model.label, row.m_total.real,
              row.m_total.imag, row.abs_dev_from_full, row.diverged)
             for row in rows]
    if out is not None:
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
    flags = {name: getattr(args, name) for name in CONFIG_KEYS
             if getattr(args, name) is not None}   # explicit flags win
    spec = SweepSpec.from_sections(read_config(args.config) if args.config else {},
                                   out_dir=args.out, **flags)
    for name in ("gamma_over_delta", "k0l", "models"):
        if (count := len(getattr(spec, name))) > 1:
            raise ConfigurationError(f"{name} lists {count} values, but simulate runs "
                                     "one cell: run this spec with sweep --spec")
    out = Path(args.out)

    ratios = markov_guard(cell_params(*spec.gamma_over_delta, *spec.k0l, spec.omega0_over_gamma))
    worst = max(ratios.values())
    if not worst <= MARKOV_LIMIT and not args.force:  # the rule of run_cell's markov_ok
        print(f"error: Markov validity ratios exceed {MARKOV_LIMIT:g} "
              f"(worst {worst:.3g}); rerun with --force to proceed anyway",
              file=sys.stderr)
        for name, value in ratios.items():
            print(f"  {name} = {value:.3g}", file=sys.stderr)
        return EXIT_GUARD

    manifest = run_sweep(spec)
    cell = manifest.cells[0]
    sections = manifest.sections()
    (out / "run_config.txt").write_text(config_text({"sweep": sections["sweep"]}), newline="\n")

    sys.stdout.write(config_text({"summary": sections["cell000"]}))
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

def _axis_format(values) -> str:
    """The format of an axis's cell labels: "g", or ".17g" if two of its
    distinct values would print the same in "g"."""
    distinct = set(values)
    return "g" if len({format(v, "g") for v in distinct}) == len(distinct) else ".17g"


def cmd_sweep(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    manifest = run_sweep(SweepSpec.from_sections(read_config(args.spec), out_dir=args.out))
    g_format = _axis_format(manifest.spec.gamma_over_delta)
    k_format = _axis_format(manifest.spec.k0l)
    for cell in manifest.cells:
        status = cell.area_check if cell.ok else f"error: {cell.error}"
        print(f"cell{cell.index:03d} gamma_over_delta={cell.gamma_over_delta:{g_format}} "
              f"k0l={cell.k0l:{k_format}} model={cell.model.label} -> {status}")
    passed = sum(cell.passed for cell in manifest.cells)
    print(f"{passed}/{len(manifest.cells)} cells passed")
    return EXIT_OK if manifest.all_ok else EXIT_CHECK


# ----------------------------------------------------------------------
# parser assembly
# ----------------------------------------------------------------------

def _add_flags(parser: argparse.ArgumentParser, names) -> None:
    """The flags of these CONFIG_KEYS rows, in table order."""
    for name, key in CONFIG_KEYS.items():
        if name in names:
            spelling, options = key.flag
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
                            help=f"inclusive range (default {DEFAULT_K0L_RANGE}), or one --k0l")
    p_coupling.add_argument("--models", required=True, metavar="LIST",
                            help="comma list: full,rwa-cutoff:EPS,rwa-constg,rwa-negfreq")
    _add_flags(p_coupling, ("k0l", "omega0_over_gamma"))
    p_coupling.add_argument("--out", metavar="DIR",
                            help="write coupling.csv here instead of stdout")
    p_coupling.set_defaults(handler=cmd_coupling, subparser=p_coupling,
                            omega0_over_gamma=CONFIG_KEYS["omega0_over_gamma"].default)

    p_simulate = sub.add_parser(
        "simulate", help="run one scattering event and write CSV artifacts")
    p_simulate.add_argument("--config", metavar="PATH",
                            help="one-cell spec file ([sweep]); explicit flags win")
    _add_flags(p_simulate, CONFIG_KEYS)
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
    # argparse leaves a reference cycle per argument; after the freeze no
    # collection would free them before exit, so free the young ones now
    gc.collect(0)
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
