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
import cmath
import math
import sys
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .coupling import (
    CouplingModel,
    SimParams,
    coupling_full,
    coupling_rwa_cutoff,
    evaluate_coupling,
)
from .dynamics import (
    BARE_PREFACTOR,
    UNIT_EXCITATION,
    IncidentWavepacket,
    build_source,
    default_grid,
    integrate_markovian,
    markov_guard,
    oracle_modes,
)
from .errors import ConfigurationError, DomainError, WqedError
from .farfield import DetectorSpec, eval_f, i2_ratio, i3_bound, pv_band_integral
from .fields import (
    dip_width,
    reconstruct_fields,
    spectrum,
    transfer_oracle,
    transfer_spectrum,
)
from .serialize import (
    config_text,
    csv_text,
    gnuplot_script,
    parse_config_text,
    write_csv,
)
from .specfun import ci, si
from .sweep import (
    DEFAULT_AREA_TOL,
    SweepSpec,
    cell_params,
    compare_couplings,
    model_from_label,
    model_label,
    run_sweep,
)

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2
EXIT_GUARD = 3

HARD_GUARD_LIMIT = 0.2           # Markov ratios above this abort a run
DEFAULT_K0L_RANGE = "0:6.2832:64"
COUPLING_HEADER = ("k0l", "model", "re_m", "im_m", "abs_dev_from_full", "diverged")

MODEL_CHOICES = ("full", "rwa-cutoff", "rwa-constg", "rwa-negfreq")
PI4 = math.pi / 4


# ----------------------------------------------------------------------
# run configuration
# ----------------------------------------------------------------------

_RUN_KEYS = ("gamma_over_delta", "k0l", "omega0_over_gamma", "model",
             "epsilon", "normalization")
_GRID_KEYS = ("span_factor", "dt_factor", "zero_pad")
_CHECK_KEYS = ("area_tol", "guard_limit")


@dataclass(frozen=True)
class RunConfig:
    """One scattering run, as specified by config file and/or flags.

    Serializes to flat `key = value` sections; parse -> serialize ->
    parse is the identity.
    """

    gamma_over_delta: float = 0.25
    k0l: float = PI4
    omega0_over_gamma: float = 1e4
    model: str = "full"
    epsilon: float | None = None
    normalization: str = UNIT_EXCITATION
    span_factor: float = 1.0
    dt_factor: float = 1.0
    zero_pad: int = 8
    area_tol: float = DEFAULT_AREA_TOL
    guard_limit: float = HARD_GUARD_LIMIT

    def __post_init__(self):
        if self.normalization not in (UNIT_EXCITATION, BARE_PREFACTOR):
            raise ConfigurationError(
                f"unknown normalization {self.normalization!r}")
        if self.guard_limit <= 0:
            raise ConfigurationError("guard_limit must be > 0")
        self.sweep_spec()  # validates the values shared with SweepSpec

    def sweep_spec(self, out_dir=None) -> SweepSpec:
        """This run as a one-cell sweep."""
        return SweepSpec(
            gamma_over_delta=[self.gamma_over_delta], k0l=[self.k0l],
            models=[self.coupling_model()],
            omega0_over_gamma=self.omega0_over_gamma,
            normalization=self.normalization, span_factor=self.span_factor,
            dt_factor=self.dt_factor, zero_pad=self.zero_pad,
            area_tol=self.area_tol, out_dir=out_dir)

    def coupling_model(self) -> CouplingModel:
        return model_from_label(self.model, self.epsilon)

    def params(self) -> SimParams:
        return cell_params(self.gamma_over_delta, self.k0l, self.omega0_over_gamma)

    def sections(self) -> dict[str, dict[str, object]]:
        run: dict[str, object] = {
            "gamma_over_delta": self.gamma_over_delta,
            "k0l": self.k0l,
            "omega0_over_gamma": self.omega0_over_gamma,
            "model": self.model,
            "normalization": self.normalization,
        }
        if self.epsilon is not None:
            run["epsilon"] = self.epsilon
        return {
            "run": run,
            "grid": {"span_factor": self.span_factor,
                     "dt_factor": self.dt_factor,
                     "zero_pad": self.zero_pad},
            "checks": {"area_tol": self.area_tol,
                       "guard_limit": self.guard_limit},
        }

    def text(self) -> str:
        return config_text(self.sections())

    @classmethod
    def from_sections(cls, sections: dict[str, dict[str, object]]) -> "RunConfig":
        known = {"run": _RUN_KEYS, "grid": _GRID_KEYS, "checks": _CHECK_KEYS}
        kwargs: dict[str, object] = {}
        for section, entries in sections.items():
            if section not in known:
                raise ConfigurationError(f"unknown config section [{section}]")
            for key, value in entries.items():
                if key not in known[section]:
                    raise ConfigurationError(f"unknown key {key!r} in [{section}]")
                kwargs[key] = value
        for key in ("gamma_over_delta", "k0l", "omega0_over_gamma", "epsilon",
                    "span_factor", "dt_factor", "area_tol", "guard_limit"):
            if key in kwargs:
                try:
                    kwargs[key] = float(kwargs[key])
                except (TypeError, ValueError):
                    raise ConfigurationError(
                        f"{key} must be a number, got {kwargs[key]!r}") from None
        return cls(**kwargs)

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        return cls.from_sections(parse_config_text(text))


def load_run_config(args: argparse.Namespace) -> RunConfig:
    """Config file defaults, overridden by any flag that was passed."""
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigurationError(f"config file not found: {path}")
        cfg = RunConfig.from_text(path.read_text())
    else:
        cfg = RunConfig()
    overrides = {}
    for attr, field_name in (("gamma_over_delta", "gamma_over_delta"),
                             ("k0l", "k0l"),
                             ("omega0_over_gamma", "omega0_over_gamma"),
                             ("model", "model"),
                             ("epsilon", "epsilon"),
                             ("normalization", "normalization"),
                             ("grid_span", "span_factor"),
                             ("grid_dt", "dt_factor"),
                             ("zero_pad", "zero_pad")):
        value = getattr(args, attr, None)
        if value is not None:
            overrides[field_name] = value
    return replace(cfg, **overrides) if overrides else cfg


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
    if count < 1:
        raise ConfigurationError(f"--k0l-range needs N >= 1, got {count}")
    if not (0 <= lo <= hi):
        raise ConfigurationError(f"--k0l-range needs 0 <= A <= B, got {text!r}")
    return np.linspace(lo, hi, count)


def cmd_coupling(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.k0l_range and args.k0l is not None:
        parser.error("pass either --k0l-range or --k0l, not both")
    if args.k0l is not None:
        k0l_values = np.array([args.k0l])
    else:
        k0l_values = parse_k0l_range(args.k0l_range or DEFAULT_K0L_RANGE)
    models = [model_from_label(token, args.epsilon)
              for token in args.models.split(",")]
    rows = compare_couplings(k0l_values, models,
                             omega0_over_gamma=args.omega0_over_gamma or 1e4)
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

    report = markov_guard(cfg.params())
    worst = max(report.ratios.values())
    if worst > cfg.guard_limit and not args.force:
        print(f"error: Markov validity ratios exceed {cfg.guard_limit:g} "
              f"(worst {worst:.3g}); rerun with --force to proceed anyway",
              file=sys.stderr)
        for name, value in report.ratios.items():
            print(f"  {name} = {value:.3g}", file=sys.stderr)
        return EXIT_GUARD

    manifest = run_sweep(cfg.sweep_spec(out))
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

TRIPLE = (0.02, 0.25, 4.0)     # weak / moderate / strong coupling


def _scatter(gamma_over_delta: float, k0l: float, mutate: bool = False,
             span: float = 1.0):
    """One cached scattering run for the validation checks.

    Arguments are normalised before the cache lookup, so every spelling of
    the same cell (defaults omitted, passed by position or by keyword)
    shares one integration.
    """
    return _scatter_cached(float(gamma_over_delta), float(k0l), bool(mutate),
                           float(span))


@lru_cache(maxsize=None)
def _scatter_cached(gamma_over_delta: float, k0l: float, mutate: bool,
                    span: float):
    params = cell_params(gamma_over_delta, k0l)
    coupling = evaluate_coupling(params, CouplingModel.full())
    if mutate:
        coupling = replace(coupling, m_total=-coupling.m_total)
    grid = default_grid(params, span_factor=span, m_total=coupling.m_total)
    wavepacket = IncidentWavepacket(params.delta, params.omega0)
    source = build_source(wavepacket, params, grid)
    traj = integrate_markovian(source, coupling, params, grid)
    envelopes = reconstruct_fields(traj, wavepacket, params)
    return params, wavepacket, coupling, traj, envelopes


def _check_coupling_identity(mutate: bool):
    worst = 0.0
    for x in np.linspace(0.0, 8 * math.pi, 100):
        params = SimParams.from_ratios(1.0, x)
        m = coupling_full(params).m_total
        worst = max(worst, abs(m - cmath.exp(1j * x)))
    return worst <= 1e-12, worst, 1e-12, "max |M - e^{i k0l}| over 100 points"


def _check_coupling_oracle(mutate: bool):
    from .coupling import coupling_oracle
    worst = 0.0
    for x in (PI4, math.pi / 2, 3 * math.pi):
        params = SimParams.from_ratios(1.0, x)
        closed = coupling_full(params).m_total
        quadrature = sum(coupling_oracle(params, part) for part in (1, 2, 3, 4))
        worst = max(worst, abs(quadrature - closed))
    return worst <= 1e-6, worst, 1e-6, "quadrature vs closed form, 3 spot values"


def _check_rwa_divergence(mutate: bool):
    params = SimParams.from_ratios(1.0, PI4)
    log_eps, imags = [], []
    for exponent in range(2, 7):
        eps = params.omega0 * 10.0 ** (-exponent)
        log_eps.append(math.log(eps))
        imags.append(coupling_rwa_cutoff(params, eps).m_total.imag)
    slope = np.polyfit(log_eps, imags, 1)[0]
    target = -params.gamma / math.pi
    rel = abs(slope - target) / abs(target)
    return rel <= 0.01, rel, 0.01, "slope of Im M vs ln(eps), rel dev from -1/pi"


def _check_negfreq_equivalence(mutate: bool):
    rows = compare_couplings(np.linspace(0.0, 8 * math.pi, 100),
                             [CouplingModel.rwa_negfreq()])
    worst = max(row.abs_dev_from_full for row in rows)
    return worst <= 1e-12, worst, 1e-12, "max deviation over 100 points"


def _check_mode_oracle(mutate: bool):
    worst = 0.0
    for ratio in TRIPLE:
        params, wavepacket, coupling, traj, _ = _scatter(ratio, PI4)
        source = build_source(wavepacket, params, traj.grid)
        oracle = oracle_modes(source, coupling, params, traj.grid)
        scale = max(np.max(np.abs(oracle.beta1)), np.max(np.abs(oracle.beta2)))
        dev = max(np.max(np.abs(traj.beta1 - oracle.beta1)),
                  np.max(np.abs(traj.beta2 - oracle.beta2))) / scale
        worst = max(worst, dev)
    return worst <= 1e-8, worst, 1e-8, "RK4 vs mode-decomposition, sup norm"


def _check_pulse_area(mutate: bool):
    worst = 0.0
    decayed = True
    for ratio in TRIPLE:
        for k0l in (0.0, PI4, math.pi / 2):
            _, _, _, _, envelopes = _scatter(ratio, k0l, mutate)
            inc, trans, refl = envelopes
            worst = max(worst,
                        abs(trans.pulse_area) / abs(inc.pulse_area),
                        abs(refl.pulse_area + inc.pulse_area) / abs(inc.pulse_area))
            decayed = decayed and trans.ends_decayed() and refl.ends_decayed()
    ok = worst <= 1e-3 and decayed
    note = "max area ratio over the 3x3 grid"
    if not decayed:
        note += " (envelopes not decayed at grid ends)"
    return ok, worst, 1e-3, note


def _check_resonance_dip(mutate: bool):
    worst = 0.0
    widths = []
    peaks = {}
    for ratio in TRIPLE:
        _, _, _, _, envelopes = _scatter(ratio, PI4)
        inc, trans, _ = envelopes
        spec_inc = spectrum(inc)
        spec_trans = spectrum(trans)
        suppression = (abs(spec_trans.at_resonance()) ** 2
                       / abs(spec_inc.at_resonance()) ** 2)
        worst = max(worst, suppression)
        widths.append(dip_width(spec_trans))
        peaks[ratio] = trans.peak() / inc.peak()
    ordered = widths[0] < widths[1] < widths[2]
    ok = worst <= 1e-4 and ordered and peaks[4.0] < 0.3
    return ok, worst, 1e-4, "resonant intensity ratio; widths ordered; peak cut"


def _check_local_consistency(mutate: bool):
    from .fields import consistency_residuals
    worst = 0.0
    for ratio in TRIPLE:
        params, _, _, traj, envelopes = _scatter(ratio, PI4)
        worst = max(worst, *consistency_residuals(traj, envelopes, params))
    return worst <= 1e-3, worst, 1e-3, "normalized sup-norm of both residuals"


def _check_transfer_oracle(mutate: bool):
    worst = 0.0
    for ratio in TRIPLE:
        params, wavepacket, coupling, _, envelopes = _scatter(ratio, PI4)
        inc, trans, _ = envelopes
        spec_inc = spectrum(inc)
        t_vals, _ = transfer_oracle(params, coupling, wavepacket,
                                    spec_inc.detuning * spec_inc.delta)
        predicted = transfer_spectrum(spec_inc, t_vals).time_samples()
        dev = np.max(np.abs(predicted - trans.samples)) / trans.peak()
        worst = max(worst, dev)
    return worst <= 1e-4, worst, 1e-4, "frequency- vs time-domain envelope"


def _check_transfer_resonance(mutate: bool):
    # the doubled window pushes the truncation tail below the tolerance
    worst = 0.0
    for ratio in TRIPLE:
        _, _, _, _, envelopes = _scatter(ratio, PI4, span=2.0)
        inc, trans, _ = envelopes
        ratio_res = abs(spectrum(trans).at_resonance() / spectrum(inc).at_resonance())
        worst = max(worst, ratio_res)
    return worst <= 1e-6, worst, 1e-6, "resonant amplitude ratio, doubled window"


def _far_detector(params: SimParams, margin: float = 1e3,
                  band_factor: float = 40.0) -> DetectorSpec:
    delta0 = band_factor * max(params.gamma, params.delta)
    omega1 = params.omega0 - delta0 / 2
    return DetectorSpec.centered(params.omega0, delta0, z=-margin / omega1,
                                 omega_c=params.omega0 / 1e3)


def _check_farfield_suppression(mutate: bool):
    params, _, _, traj, _ = _scatter(0.25, PI4)
    measured = i2_ratio(traj, _far_detector(params), params)
    return measured <= 1e-4, measured, 1e-4, "out-of-band intensity ratio I2/I1"


def _check_farfield_bound(mutate: bool):
    params, _, _, _, _ = _scatter(0.25, PI4)
    measured = i3_bound(params, _far_detector(params))
    return measured <= 1e-2, measured, 1e-2, "virtual-channel intensity bound I3"


def _check_farfield_quadrature(mutate: bool):
    from scipy.integrate import quad

    def band_quadrature(w1, w2, w0, a):
        value, _ = quad(lambda w: 1.0 / (w * (w + w0)), w1, w2,
                        weight="cos", wvar=a, limit=400)
        return value

    def pv_quadrature(w1, w2, w0, a):
        # pole subtraction: smooth quotient + analytic log of the pole
        def g(w):
            return complex(math.cos(-w * a), math.sin(-w * a)) / w
        def quotient(w):
            return (g(w) - g(w0)) / (w - w0)
        re, _ = quad(lambda w: quotient(w).real, w1, w2, points=[w0], limit=400)
        im, _ = quad(lambda w: quotient(w).imag, w1, w2, points=[w0], limit=400)
        return complex(re, im) + g(w0) * math.log((w2 - w0) / (w0 - w1))

    w1, w2, w0, a = 0.9, 1.3, 1.0, 7.0
    dev_f = abs((eval_f(w2, w0, a) - eval_f(w1, w0, a))
                - band_quadrature(w1, w2, w0, a))
    dev_pv = abs(pv_band_integral(20.0, 60.0, 40.0, 1.0)
                 - pv_quadrature(20.0, 60.0, 40.0, 1.0))
    worst = max(dev_f, dev_pv)
    return worst <= 1e-6, worst, 1e-6, "detection integrals vs quadrature"


def _check_specfun(mutate: bool):
    from scipy.integrate import quad
    worst = 0.0
    for x in np.logspace(-3, 3, 12):
        si_ref, _ = quad(lambda t: np.sinc(t / np.pi), 0.0, x,
                         limit=max(200, int(20 * x)))
        if x <= 6.0:
            smooth, _ = quad(lambda t: (math.cos(t) - 1.0) / t, 0.0, x)
            ci_ref = np.euler_gamma + math.log(x) + smooth
        else:
            tail, _ = quad(lambda t: 1.0 / t, x, np.inf, weight="cos", wvar=1.0)
            ci_ref = -tail
        worst = max(worst, abs(si(x).value - si_ref), abs(ci(x).value - ci_ref))
    return worst <= 1e-10, worst, 1e-10, "si/ci vs defining integrals, log grid"


VALIDATION_CHECKS = {
    "coupling-identity": _check_coupling_identity,
    "coupling-oracle": _check_coupling_oracle,
    "rwa-divergence": _check_rwa_divergence,
    "negfreq-equivalence": _check_negfreq_equivalence,
    "mode-oracle": _check_mode_oracle,
    "pulse-area": _check_pulse_area,
    "resonance-dip": _check_resonance_dip,
    "local-consistency": _check_local_consistency,
    "transfer-oracle": _check_transfer_oracle,
    "transfer-resonance": _check_transfer_resonance,
    "farfield-suppression": _check_farfield_suppression,
    "farfield-bound": _check_farfield_bound,
    "farfield-quadrature": _check_farfield_quadrature,
    "specfun": _check_specfun,
}


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
            ok, measured, tol, note = VALIDATION_CHECKS[name](
                args.mutate_coupling_sign)
        except WqedError as exc:
            ok, measured, tol = False, math.nan, math.nan
            note = f"raised {type(exc).__name__}: {exc}"
        failures += not ok
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name:<22} measured={measured:.3e} tol={tol:.0e}  {note}")
    print(f"{len(names) - failures}/{len(names)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_CHECK


# ----------------------------------------------------------------------
# sweep subcommand
# ----------------------------------------------------------------------

_SWEEP_KEYS = ("gamma_over_delta", "k0l", "models", "epsilon",
               "omega0_over_gamma", "normalization", "span_factor",
               "dt_factor", "zero_pad", "area_tol")


def sweep_spec_from_sections(sections: dict[str, dict[str, object]],
                             out_dir=None) -> SweepSpec:
    """Build a SweepSpec from a parsed spec file ([sweep] + [output])."""
    unknown = set(sections) - {"sweep", "output"}
    if unknown:
        raise ConfigurationError(
            f"unknown section(s) {sorted(unknown)}; expected [sweep], [output]")
    if "sweep" not in sections:
        raise ConfigurationError("spec file needs a [sweep] section")
    entries = dict(sections["sweep"])
    bad = set(entries) - set(_SWEEP_KEYS)
    if bad:
        raise ConfigurationError(f"unknown key(s) {sorted(bad)} in [sweep]")
    for required in ("gamma_over_delta", "k0l"):
        if required not in entries:
            raise ConfigurationError(f"[sweep] must set {required}")

    def float_list(key: str) -> tuple[float, ...]:
        tokens = str(entries[key]).split(",")
        try:
            return tuple(float(token) for token in tokens)
        except ValueError:
            raise ConfigurationError(
                f"[sweep] {key}: not a number list: {entries[key]!r}") from None

    epsilon = entries.get("epsilon")
    if epsilon is not None:
        epsilon = float(epsilon)
    models = tuple(model_from_label(token, epsilon)
                   for token in str(entries.get("models", "full")).split(","))

    kwargs: dict[str, object] = {}
    for key, kind in (("omega0_over_gamma", float), ("span_factor", float),
                      ("dt_factor", float), ("area_tol", float),
                      ("zero_pad", int), ("normalization", str)):
        if key in entries:
            try:
                kwargs[key] = kind(entries[key])
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"[sweep] {key}: bad value {entries[key]!r}") from None

    output = dict(sections.get("output", {}))
    bad = set(output) - {"dir"}
    if bad:
        raise ConfigurationError(f"unknown key(s) {sorted(bad)} in [output]")
    destination = out_dir if out_dir is not None else output.get("dir")

    return SweepSpec(gamma_over_delta=float_list("gamma_over_delta"),
                     k0l=float_list("k0l"), models=models,
                     out_dir=destination, **kwargs)


def cmd_sweep(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    path = Path(args.spec)
    if not path.is_file():
        parser.error(f"spec file not found: {path}")
    spec = sweep_spec_from_sections(parse_config_text(path.read_text()),
                                    out_dir=args.out)
    manifest = run_sweep(spec)
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
    parser.add_argument("--gamma-over-delta", dest="gamma_over_delta",
                        type=float, metavar="F", help="coupling parameter")
    parser.add_argument("--k0l", type=float, metavar="F",
                        help="inter-atomic phase k0*l")
    parser.add_argument("--omega0-over-gamma", dest="omega0_over_gamma",
                        type=float, metavar="F", help="carrier-to-rate ratio")
    parser.add_argument("--model", choices=MODEL_CHOICES,
                        help="coupling model (default full)")
    parser.add_argument("--epsilon", type=float, metavar="F",
                        help="infrared cutoff for rwa-cutoff")
    parser.add_argument("--normalization",
                        choices=(UNIT_EXCITATION, BARE_PREFACTOR))
    parser.add_argument("--grid-dt", dest="grid_dt", type=float, metavar="F",
                        help="time-step scale factor")
    parser.add_argument("--grid-span", dest="grid_span", type=float, metavar="F",
                        help="post-pulse window scale factor")
    parser.add_argument("--zero-pad", dest="zero_pad", type=int, metavar="N",
                        help="minimum spectral zero-padding factor")


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
                            type=float, metavar="F")
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
