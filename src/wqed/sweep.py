"""Parameter sweeps over the (gamma/delta, k0l, coupling-model) grid.

run_sweep executes the full scattering pipeline once per grid cell —
coupling constant, amplitude dynamics, field reconstruction, pulse
areas, transmitted-spectrum dip metrics, local-field consistency
residuals, Markov health flags — records everything in a RunManifest,
and optionally writes per-cell CSV artifacts.  A cell that raises is
recorded as failed and the sweep continues.

A spec file is one format for both commands: [sweep], whose keys are
CONFIG_KEYS (a key left out takes its default), and an optional [output]
dir.  simulate runs a spec of one cell, and its run_config.txt is the
manifest's [sweep] block.

Determinism: identical specs produce bitwise-identical manifests.  The
manifest therefore records only relative file names, never directories,
timestamps, or host details.  Cells run one after another, in spec
order.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .coupling import (DEFAULT_OMEGA0_OVER_GAMMA, CouplingModel, CouplingResult, SimParams,
                       evaluate_coupling)
from .dynamics import (
    MARKOV_LIMIT,
    AmplitudeTrajectory,
    build_source,
    default_grid,
    integrate_markovian,
    markov_guard,
)
from .errors import ConfigurationError, DomainError, NumericalError, WqedError
from .fields import (
    FieldEnvelope,
    Spectrum,
    consistency_residuals,
    dip_width as measure_dip_width,
    reconstruct_fields,
    spectrum,
)
from .serialize import format_value, output_directory, write_config, write_table

MANIFEST_VERSION = 8

# pulse-area verdicts recorded per cell
AREA_PASS = "pass"
AREA_FAIL = "fail"
AREA_SKIPPED = "skipped"      # gamma = 0: no scatterers, theorem not applicable
AREA_TRUNCATED = "truncated"  # envelopes, less tails, not decayed at the grid ends
AREA_TOL = 1e-3               # a pass: both area ratios at most this

def model_from_label(label: str) -> CouplingModel:
    """The model a label names (CouplingModel.label); rwa-cutoff's carries its
    cutoff, `:EPS`."""
    label = label.strip()
    name, colon, eps_text = label.partition(":")
    name = name.strip()
    if name not in CouplingModel.VARIANTS:
        raise ConfigurationError(
            f"unknown coupling model {label!r}; expected one of {sorted(CouplingModel.VARIANTS)}")
    if name == "rwa-cutoff" and not colon:
        raise DomainError(f"coupling model {label!r} needs its infrared cutoff: "
                          "write rwa-cutoff:EPS, EPS > 0")
    return CouplingModel(name, _positive("epsilon", eps_text) if colon else None)


# ----------------------------------------------------------------------
# config schema: one table for the spec file and the flags
# ----------------------------------------------------------------------

def _number(name: str, value) -> float:
    if not isinstance(value, bool):  # `true` is not a number
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ConfigurationError(f"{name}: bad value {value!r}")


def _positive(name: str, value) -> float:
    x = _number(name, value)
    if not 0 < x < math.inf:
        raise ConfigurationError(f"{name} must be finite and > 0, got {x}")
    return x


def _axis(name: str, value) -> tuple[float, ...]:
    """A comma list, a number or a sequence of them, each finite and >= 0."""
    items = value.split(",") if isinstance(value, str) else value
    values = tuple(_number(name, v) for v in (items if np.iterable(items) else [items]))
    if not values or not all(0 <= v < math.inf for v in values):
        raise ConfigurationError(
            f"{name} must list finite values >= 0, got {', '.join(map(str, values))}")
    return values


def parse_models(name: str, value) -> tuple[CouplingModel, ...]:
    """Coupling models, or the comma list of their labels."""
    if isinstance(value, str):
        value = [model_from_label(token) for token in value.split(",")]
    models = tuple(value) if np.iterable(value) else ()
    if not models or not all(isinstance(model, CouplingModel) for model in models):
        raise ConfigurationError(f"{name} must list at least one coupling model, got {value!r}")
    return models


class ConfigKey(NamedTuple):
    """A key's parser (name, value from a file, flag or Python -> checked
    value, or ConfigurationError), default, and flag: (spelling,
    add_argument options)."""

    parse: Callable[[str, object], object]
    default: object
    flag: tuple[str, dict]


def _flag(spelling: str, help: str) -> tuple:
    return spelling, dict(type=float, metavar="F", help=help)


# Rows are in file order, and so are the flags in --help.
CONFIG_KEYS: dict[str, ConfigKey] = {
    "gamma_over_delta": ConfigKey(_axis, 0.25, _flag("--gamma-over-delta", "coupling parameter")),
    "k0l": ConfigKey(_axis, math.pi / 4, _flag("--k0l", "inter-atomic phase k0*l")),
    "models": ConfigKey(parse_models, "full", ("--model", dict(
        metavar="LABEL", help="coupling model: full, rwa-cutoff:EPS, rwa-constg or "
        "rwa-negfreq (default full)"))),
    "omega0_over_gamma": ConfigKey(_positive, DEFAULT_OMEGA0_OVER_GAMMA, _flag(
        "--omega0-over-gamma", "carrier-to-rate ratio")),
    "dt_factor": ConfigKey(_positive, 1.0, _flag("--grid-dt", "time-step scale factor")),
}


def _config_value(value):
    """A value as config text has it: a model as its label, a tuple as a comma list."""
    if isinstance(value, CouplingModel):
        return value.label
    if isinstance(value, tuple):
        return ",".join(format_value(_config_value(v)) for v in value)
    return value


# ----------------------------------------------------------------------
# sweep specification
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SweepSpec:
    """The experiment grid: every (gamma/delta, k0l, model) combination.

    gamma_over_delta = 0 selects the decoupled-atom limit (gamma = 0,
    pulse width as the rate unit), for which the pulse-area check is
    recorded as skipped and identity transmission is verified instead.
    Every field but out_dir is a key of CONFIG_KEYS, checked by its parser.
    """

    gamma_over_delta: tuple[float, ...] = CONFIG_KEYS["gamma_over_delta"].default
    k0l: tuple[float, ...] = CONFIG_KEYS["k0l"].default
    models: tuple[CouplingModel, ...] = CONFIG_KEYS["models"].default
    omega0_over_gamma: float = DEFAULT_OMEGA0_OVER_GAMMA
    dt_factor: float = CONFIG_KEYS["dt_factor"].default
    out_dir: str | os.PathLike | None = None

    def __post_init__(self):
        for f in fields(self):
            if f.name in CONFIG_KEYS:
                object.__setattr__(self, f.name, CONFIG_KEYS[f.name].parse(
                    f.name, getattr(self, f.name)))

    @property
    def n_cells(self) -> int:
        return len(self.gamma_over_delta) * len(self.k0l) * len(self.models)

    @classmethod
    def from_sections(cls, sections: dict[str, dict[str, object]], out_dir=None,
                      **flags) -> "SweepSpec":
        """The spec of a parsed spec file, [sweep] and an optional [output]
        dir: a key left out takes its default, a flag wins over the file,
        and out_dir over dir."""
        values = {}
        for section, entries in sections.items():
            keys = {"sweep": CONFIG_KEYS, "output": ("dir",)}.get(section)
            if keys is None:
                raise ConfigurationError(f"unknown config section [{section}]")
            for name, value in entries.items():
                if name not in keys:
                    raise ConfigurationError(f"unknown key {name!r} in [{section}]")
                values[name] = value
        values |= flags
        directory = values.pop("dir", None)
        return cls(**values, out_dir=directory if out_dir is None else out_dir)


def cell_params(gamma_over_delta: float, k0l: float,
                omega0_over_gamma: float = DEFAULT_OMEGA0_OVER_GAMMA,
                ) -> SimParams:
    """Physical parameters for one sweep cell.

    gamma_over_delta = 0 means decoupled atoms: gamma = 0 with the pulse
    width delta = 1 as the rate unit (the gamma-based ratio is degenerate).
    """
    if gamma_over_delta == 0.0:
        omega0 = omega0_over_gamma
        return SimParams(gamma=0.0, delta=1.0, omega0=omega0, l=k0l / omega0)
    return SimParams.from_ratios(gamma_over_delta, k0l, omega0_over_gamma)


# ----------------------------------------------------------------------
# per-cell record and manifest
# ----------------------------------------------------------------------

class CellResult(NamedTuple):
    """Everything the manifest records about one grid cell.

    ok means the pipeline ran to completion; passed additionally
    requires the pulse-area check not to have failed.
    """

    index: int
    gamma_over_delta: float
    k0l: float
    model: CouplingModel
    ok: bool
    error: str | None = None
    m_total: complex | None = None
    area_inc: complex | None = None
    area_trans: complex | None = None
    area_refl: complex | None = None
    area_trans_ratio: float | None = None
    area_refl_ratio: float | None = None
    tail_fraction: float | None = None
    area_check: str | None = None
    identity_transmission: bool | None = None
    n: int | None = None
    dt: float | None = None
    t_end: float | None = None
    stride: int | None = None  # time-domain CSV rows: 0, stride, 2 stride, ... and n - 1
    tail_transmitted: tuple[float, ...] | None = None  # (re c, im c, re lam, im lam) per mode
    tail_reflected: tuple[float, ...] | None = None
    fft_len: int | None = None
    dip_depth: float | None = None
    dip_width: float | None = None
    peak_ratio: float | None = None
    residual1: float | None = None
    residual2: float | None = None
    markov_ok: bool | None = None
    markov_ratio_max: float | None = None
    files: tuple[str, ...] | None = None

    @property
    def passed(self) -> bool:
        return self.ok and self.area_check in (AREA_PASS, AREA_SKIPPED)


class RunManifest(NamedTuple):
    """Aggregate sweep record; serializes to a flat config block."""

    version: int
    spec: SweepSpec
    cells: tuple[CellResult, ...]

    @property
    def all_ok(self) -> bool:
        return all(cell.passed for cell in self.cells)

    def sections(self) -> dict[str, dict[str, object]]:
        """Manifest as ordered config sections (no paths, no timestamps)."""
        out: dict[str, dict[str, object]] = {
            "manifest": {
                "version": self.version,
                "kind": "sweep",
                "n_cells": len(self.cells),
                "all_ok": self.all_ok,
            },
            "sweep": {f.name: _config_value(getattr(self.spec, f.name))
                      for f in fields(self.spec) if f.name in CONFIG_KEYS},
        }
        for cell in self.cells:
            entries: dict[str, object] = {}
            for name, value in zip(cell._fields[1:], cell[1:]):  # every field but the index
                if value is None:
                    continue
                if name == "m_total":
                    entries.update(re_m=value.real, im_m=value.imag)
                elif isinstance(value, complex):
                    entries[f"abs_{name}"] = abs(value)
                else:
                    entries[name] = _config_value(value)
                if name == "ok":
                    entries["passed"] = cell.passed
            out[f"cell{cell.index:03d}"] = entries
        return out


def write_manifest(manifest: RunManifest, path) -> Path:
    return write_config(path, manifest.sections())


# ----------------------------------------------------------------------
# CSV artifact schemas (shared with the command-line front end)
# ----------------------------------------------------------------------

TRAJECTORY_HEADER = ("t", "re_b1", "im_b1", "re_b2", "im_b2")
ENVELOPE_HEADER = ("tau", "re", "im", "abs")
SPECTRUM_HEADER = ("detuning", "intensity")


def write_trajectory_csv(path, traj: AmplitudeTrajectory, rows=slice(None)) -> Path:
    return write_table(path, TRAJECTORY_HEADER, [column[rows] for column in (
        traj.grid.times, traj.beta1.real, traj.beta1.imag, traj.beta2.real, traj.beta2.imag)])


def write_envelope_csv(path, env: FieldEnvelope, rows=slice(None)) -> Path:
    samples = env.samples[rows]
    return write_table(path, ENVELOPE_HEADER,
                       (env.tau[rows], samples.real, samples.imag, np.abs(samples)))


def write_spectrum_csv(path, spec: Spectrum) -> Path:
    return write_table(path, SPECTRUM_HEADER, (spec.detuning, spec.intensity))


def _write_cell_files(out_dir: Path, prefix: str, traj: AmplitudeTrajectory,
                      envelopes: tuple[FieldEnvelope, ...],
                      spectra: dict[str, Spectrum], stride: int) -> tuple[str, ...]:
    """Write one cell's artifacts, the time-domain ones every stride-th row
    and the last; returns the relative file names."""
    rows = np.r_[0:traj.grid.n - 1:stride, traj.grid.n - 1]
    paths = [write_trajectory_csv(out_dir / f"{prefix}trajectory.csv", traj, rows)]
    paths += [write_envelope_csv(out_dir / f"{prefix}{env.kind}.csv", env, rows)
              for env in envelopes]
    paths += [write_spectrum_csv(out_dir / f"{prefix}spectrum_{kind}.csv", spec)
              for kind, spec in spectra.items()]
    return tuple(path.name for path in paths)


# ----------------------------------------------------------------------
# sweep execution
# ----------------------------------------------------------------------

def scatter(params: SimParams, coupling: CouplingResult, *,
            span_factor: float = 1.0,
            dt_factor: float = CONFIG_KEYS["dt_factor"].default,
            ) -> tuple[AmplitudeTrajectory, tuple[FieldEnvelope, ...]]:
    """(traj, envelopes) of one scattering event, envelopes
    being (incident, transmitted, reflected): the one grid, source, RK4
    and fields pipeline behind run_cell and the validation checks.  The
    source is not kept, so its grid-length series die with the integration."""
    grid = default_grid(params, span_factor, dt_factor, coupling.m_total)
    traj = integrate_markovian(build_source(params, grid), coupling, params)
    return traj, reconstruct_fields(traj, params)


def area_verdict(envelopes: tuple[FieldEnvelope, ...], gamma: float) -> tuple[str, float, float]:
    """(area_check, trans_ratio, refl_ratio) of (incident, transmitted,
    reflected) envelopes: the ratios |S_trans|/|S_inc| and |S_refl + S_inc|/|S_inc|,
    and the verdict skipped (gamma = 0), truncated (an envelope's ends not
    decayed), pass (both ratios <= AREA_TOL) or fail."""
    s_inc, s_trans, s_refl = (env.pulse_area for env in envelopes)
    trans_ratio = abs(s_trans) / abs(s_inc)
    refl_ratio = abs(s_refl + s_inc) / abs(s_inc)
    if gamma == 0.0:
        check = AREA_SKIPPED
    elif not all(env.ends_decayed() for env in envelopes):
        check = AREA_TRUNCATED
    elif trans_ratio <= AREA_TOL and refl_ratio <= AREA_TOL:
        check = AREA_PASS
    else:
        check = AREA_FAIL
    return check, trans_ratio, refl_ratio


def run_cell(index: int, gamma_over_delta: float, k0l: float,
             model: CouplingModel, spec: SweepSpec) -> CellResult:
    """Run the full pipeline for one grid cell; never raises WqedError."""
    try:
        params = cell_params(gamma_over_delta, k0l, spec.omega0_over_gamma)
        coupling = evaluate_coupling(params, model)
        traj, envelopes = scatter(params, coupling, dt_factor=spec.dt_factor)
        inc, trans, refl = envelopes
        s_inc, s_trans, s_refl = (env.pulse_area for env in envelopes)
        check, trans_ratio, refl_ratio = area_verdict(envelopes, params.gamma)
        tail_fraction = max(abs(trans.tail_area), abs(refl.tail_area)) / abs(s_inc)

        spec_trans = spectrum(trans)
        try:
            width = measure_dip_width(spec_trans)
        except NumericalError:
            width = None  # flat or monotone spectrum: no dip to measure

        tail_transmitted, tail_reflected = (
            tuple(x for c, lam in env.tail for x in (c.real, c.imag, lam.real, lam.imag)) or None
            for env in (trans, refl))
        r1, r2 = consistency_residuals(traj, envelopes, params)
        worst = max(markov_guard(params).values())
        # the time-domain CSVs keep 100 rows a pulse width 1/delta; step_limit's
        # 1e-9 slack makes the step 1/(100 gamma) give gamma/delta, not one less
        stride = max(1, math.floor(0.01 / params.delta / traj.grid.dt * (1.0 + 1e-9)))

        files = None
        if spec.out_dir is not None:
            files = _write_cell_files(
                Path(spec.out_dir), f"cell{index:03d}_", traj, envelopes,
                {"incident": spectrum(inc), "transmitted": spec_trans}, stride)

        return CellResult(
            index=index, gamma_over_delta=gamma_over_delta, k0l=k0l,
            model=model, ok=True,
            m_total=coupling.m_total,
            area_inc=s_inc, area_trans=s_trans, area_refl=s_refl,
            area_trans_ratio=trans_ratio, area_refl_ratio=refl_ratio,
            tail_fraction=tail_fraction, area_check=check,
            identity_transmission=bool(np.array_equal(trans.samples, inc.samples)),
            n=traj.grid.n, dt=traj.grid.dt, t_end=traj.grid.t_end, stride=stride,
            fft_len=spec_trans.fft_len,
            tail_transmitted=tail_transmitted, tail_reflected=tail_reflected,
            dip_depth=1.0 - trans_ratio ** 2, dip_width=width,
            peak_ratio=trans.peak() / inc.peak(),
            residual1=r1, residual2=r2,
            markov_ok=worst <= MARKOV_LIMIT, markov_ratio_max=worst,
            files=files,
        )
    except WqedError as exc:
        return CellResult(index=index, gamma_over_delta=gamma_over_delta,
                          k0l=k0l, model=model, ok=False,
                          error=" ".join(f"{type(exc).__name__}: {exc}".split()))


def run_sweep(spec: SweepSpec) -> RunManifest:
    """Execute every cell (spec order), assemble and write the manifest;
    first, a dt_factor over 2 (a step over step_limit), a cell whose coupling
    evaluates but whose grid exceeds the point budget, or an out_dir that
    cannot be a directory, raises ConfigurationError."""
    if spec.dt_factor > 2:
        raise ConfigurationError(
            f"dt_factor = {spec.dt_factor:g} gives a step over the integrators' limit "
            "min(1/delta, 1/gamma, 1/|M|)/50; use dt_factor <= 2")
    cells = [(g, k, m) for g in spec.gamma_over_delta for k in spec.k0l for m in spec.models]
    for g, k, model in cells:
        params = cell_params(g, k, spec.omega0_over_gamma)
        try:  # a coupling that raises fails its cell before it allocates
            m_total = evaluate_coupling(params, model).m_total
        except WqedError:
            continue
        default_grid(params, dt_factor=spec.dt_factor, m_total=m_total)
    out_dir = None if spec.out_dir is None else output_directory(spec.out_dir)
    results = tuple(run_cell(index, *cell, spec) for index, cell in enumerate(cells))
    manifest = RunManifest(MANIFEST_VERSION, spec, results)
    if out_dir is not None:
        write_manifest(manifest, out_dir / "manifest.txt")
    return manifest
