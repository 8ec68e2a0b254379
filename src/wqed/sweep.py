"""Parameter sweeps over the (gamma/delta, k0l, coupling-model) grid.

run_sweep executes the full scattering pipeline once per grid cell —
coupling constant, amplitude dynamics, field reconstruction, pulse
areas, transmitted-spectrum dip metrics, local-field consistency
residuals, Markov health flags — records everything in a RunManifest,
and optionally writes per-cell CSV artifacts.  A cell that raises is
recorded as failed and the sweep continues.

compare_couplings tabulates the coupling constant under each requested
model against the exact closed form, with absolute deviations and
divergence flags, for side-by-side comparison of the approximations.

Determinism: identical specs produce bitwise-identical manifests.  The
manifest therefore records only relative file names, never directories,
timestamps, or host details.  Cells are independent; the env var
WQED_THREADS (default 1) caps how many run concurrently.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coupling import CouplingModel, CouplingResult, SimParams, coupling_full, evaluate_coupling
from .dynamics import (
    UNIT_EXCITATION,
    AmplitudeTrajectory,
    IncidentWavepacket,
    build_source,
    default_grid,
    integrate_markovian,
    markov_guard,
)
from .errors import ConfigurationError, NumericalError, WqedError
from .fields import (
    DEFAULT_ZERO_PAD,
    FieldEnvelope,
    Spectrum,
    consistency_residuals,
    dip_width as measure_dip_width,
    reconstruct_fields,
    spectrum,
)
from .serialize import format_value, write_config, write_table

MANIFEST_VERSION = 1
DEFAULT_AREA_TOL = 1e-3

# pulse-area verdicts recorded per cell
AREA_PASS = "pass"
AREA_FAIL = "fail"
AREA_SKIPPED = "skipped"      # gamma = 0: no scatterers, theorem not applicable
AREA_TRUNCATED = "truncated"  # envelopes not decayed at the grid ends

_VARIANT_TO_LABEL = {
    "full": "full",
    "rwa_cutoff": "rwa-cutoff",
    "rwa_const_g": "rwa-constg",
    "rwa_negfreq": "rwa-negfreq",
}
_LABEL_TO_VARIANT = {label: variant for variant, label in _VARIANT_TO_LABEL.items()}
_LABEL_TO_VARIANT.update({variant: variant for variant in _VARIANT_TO_LABEL})


def model_label(model: CouplingModel) -> str:
    """Surface spelling of a coupling model (epsilon appended when set)."""
    label = _VARIANT_TO_LABEL[model.variant]
    if model.epsilon is not None:
        label += ":" + format_value(model.epsilon)
    return label


def model_from_label(label: str, epsilon: float | None = None) -> CouplingModel:
    """Inverse of model_label; a trailing `:eps` overrides the epsilon arg."""
    text = label.strip()
    name, _, eps_text = text.partition(":")
    if eps_text:
        try:
            epsilon = float(eps_text)
        except ValueError:
            raise ConfigurationError(
                f"bad epsilon in model label {label!r}") from None
    try:
        variant = _LABEL_TO_VARIANT[name.strip()]
    except KeyError:
        raise ConfigurationError(
            f"unknown coupling model {label!r}; expected one of "
            f"{sorted(_VARIANT_TO_LABEL.values())}") from None
    if variant == "rwa_cutoff":
        return CouplingModel.rwa_cutoff(epsilon)
    return CouplingModel(variant)


# ----------------------------------------------------------------------
# sweep specification
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SweepSpec:
    """The experiment grid: every (gamma/delta, k0l, model) combination.

    gamma_over_delta = 0 selects the decoupled-atom limit (gamma = 0,
    pulse width as the rate unit), for which the pulse-area check is
    recorded as skipped and identity transmission is verified instead.
    """

    gamma_over_delta: tuple[float, ...]
    k0l: tuple[float, ...]
    models: tuple[CouplingModel, ...] = (CouplingModel.full(),)
    omega0_over_gamma: float = 1e4
    normalization: str = UNIT_EXCITATION
    span_factor: float = 1.0
    dt_factor: float = 1.0
    zero_pad: int = DEFAULT_ZERO_PAD
    area_tol: float = DEFAULT_AREA_TOL
    out_dir: str | os.PathLike | None = None

    def __post_init__(self):
        object.__setattr__(self, "gamma_over_delta",
                           tuple(float(v) for v in self.gamma_over_delta))
        object.__setattr__(self, "k0l", tuple(float(v) for v in self.k0l))
        object.__setattr__(self, "models", tuple(self.models))
        for name in ("gamma_over_delta", "k0l"):
            values = getattr(self, name)
            if not values:
                raise ConfigurationError(f"{name} must list at least one value")
            for v in values:
                if not (v >= 0 and math.isfinite(v)):
                    raise ConfigurationError(
                        f"{name} values must be finite and >= 0, got {v}")
        if not self.models:
            raise ConfigurationError("models must list at least one model")
        for model in self.models:
            if not isinstance(model, CouplingModel):
                raise ConfigurationError(f"not a coupling model: {model!r}")
        if not (self.omega0_over_gamma > 0 and math.isfinite(self.omega0_over_gamma)):
            raise ConfigurationError(
                f"omega0_over_gamma must be > 0, got {self.omega0_over_gamma}")
        if self.span_factor <= 0 or self.dt_factor <= 0:
            raise ConfigurationError("span_factor and dt_factor must be > 0")
        if not (isinstance(self.zero_pad, int) and self.zero_pad >= 1):
            raise ConfigurationError(f"zero_pad must be an int >= 1, got {self.zero_pad}")
        if not (self.area_tol > 0):
            raise ConfigurationError(f"area_tol must be > 0, got {self.area_tol}")

    @property
    def n_cells(self) -> int:
        return len(self.gamma_over_delta) * len(self.k0l) * len(self.models)


def cell_params(gamma_over_delta: float, k0l: float,
                omega0_over_gamma: float = 1e4) -> SimParams:
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

@dataclass(frozen=True)
class CellResult:
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
    area_check: str | None = None
    identity_transmission: bool | None = None
    fft_len: int | None = None
    dip_depth: float | None = None
    dip_width: float | None = None
    peak_ratio: float | None = None
    residual1: float | None = None
    residual2: float | None = None
    markov_ok: bool | None = None
    markov_ratio_max: float | None = None
    files: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.ok and self.area_check in (AREA_PASS, AREA_SKIPPED)


@dataclass(frozen=True)
class RunManifest:
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
            "sweep": {
                "gamma_over_delta": ",".join(
                    format_value(v) for v in self.spec.gamma_over_delta),
                "k0l": ",".join(format_value(v) for v in self.spec.k0l),
                "models": ",".join(model_label(m) for m in self.spec.models),
                "omega0_over_gamma": self.spec.omega0_over_gamma,
                "normalization": self.spec.normalization,
                "span_factor": self.spec.span_factor,
                "dt_factor": self.spec.dt_factor,
                "zero_pad": self.spec.zero_pad,
                "area_tol": self.spec.area_tol,
            },
        }
        for cell in self.cells:
            entries: dict[str, object] = {
                "gamma_over_delta": cell.gamma_over_delta,
                "k0l": cell.k0l,
                "model": model_label(cell.model),
                "ok": cell.ok,
                "passed": cell.passed,
            }
            if cell.error is not None:
                entries["error"] = " ".join(cell.error.split())
            if cell.m_total is not None:
                entries["re_m"] = cell.m_total.real
                entries["im_m"] = cell.m_total.imag
            for key, area in (("area_inc", cell.area_inc),
                              ("area_trans", cell.area_trans),
                              ("area_refl", cell.area_refl)):
                if area is not None:
                    entries[f"abs_{key}"] = abs(area)
            for key in ("area_trans_ratio", "area_refl_ratio", "area_check",
                        "identity_transmission", "fft_len", "dip_depth",
                        "dip_width", "peak_ratio", "residual1", "residual2",
                        "markov_ok", "markov_ratio_max"):
                value = getattr(cell, key)
                if value is not None:
                    entries[key] = value
            if cell.files:
                entries["files"] = ",".join(cell.files)
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

# spectra are tabulated over |detuning| <= this many pulse widths; the
# zero-padded DFT extends orders of magnitude beyond any signal
SPECTRUM_WINDOW = 8.0


def write_trajectory_csv(path, traj: AmplitudeTrajectory) -> Path:
    return write_table(path, TRAJECTORY_HEADER,
                       (traj.grid.times, traj.beta1.real, traj.beta1.imag,
                        traj.beta2.real, traj.beta2.imag))


def write_envelope_csv(path, env: FieldEnvelope) -> Path:
    return write_table(path, ENVELOPE_HEADER,
                       (env.tau, env.samples.real, env.samples.imag,
                        np.abs(env.samples)))


def write_spectrum_csv(path, spec: Spectrum,
                       window: float | None = SPECTRUM_WINDOW) -> Path:
    d = spec.detuning  # ascending: |d| <= window is one slice
    keep = (slice(None) if window is None
            else slice(np.searchsorted(d, -window, "left"),
                       np.searchsorted(d, window, "right")))
    return write_table(path, SPECTRUM_HEADER,
                       (d[keep], spec.intensity[keep]))


def _write_cell_files(out_dir: Path, prefix: str, traj: AmplitudeTrajectory,
                      envelopes: tuple[FieldEnvelope, ...],
                      spectra: dict[str, Spectrum]) -> tuple[str, ...]:
    """Write one cell's artifacts; returns the relative file names."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [write_trajectory_csv(out_dir / f"{prefix}trajectory.csv", traj)]
    paths += [write_envelope_csv(out_dir / f"{prefix}{env.kind}.csv", env)
              for env in envelopes]
    paths += [write_spectrum_csv(out_dir / f"{prefix}spectrum_{kind}.csv", spec)
              for kind, spec in spectra.items()]
    return tuple(path.name for path in paths)


# ----------------------------------------------------------------------
# sweep execution
# ----------------------------------------------------------------------

def thread_count() -> int:
    """Worker cap from WQED_THREADS (default 1 = sequential)."""
    raw = os.environ.get("WQED_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"WQED_THREADS must be an integer, got {raw!r}") from None
    return max(1, n)


def run_cell(index: int, gamma_over_delta: float, k0l: float,
             model: CouplingModel, spec: SweepSpec) -> CellResult:
    """Run the full pipeline for one grid cell; never raises WqedError."""
    try:
        params = cell_params(gamma_over_delta, k0l, spec.omega0_over_gamma)
        coupling = evaluate_coupling(params, model)
        grid = default_grid(params, spec.span_factor, spec.dt_factor,
                            m_total=coupling.m_total)
        wavepacket = IncidentWavepacket(params.delta, params.omega0,
                                        normalization=spec.normalization)
        source = build_source(wavepacket, params, grid)
        traj = integrate_markovian(source, coupling, params, grid)
        envelopes = reconstruct_fields(traj, wavepacket, params)
        inc, trans, refl = envelopes

        decayed = all(env.ends_decayed() for env in envelopes)
        s_inc, s_trans, s_refl = (env.pulse_area for env in envelopes)
        trans_ratio = abs(s_trans) / abs(s_inc)
        refl_ratio = abs(s_refl + s_inc) / abs(s_inc)
        if params.gamma == 0.0:
            check = AREA_SKIPPED
        elif not decayed:
            check = AREA_TRUNCATED
        elif trans_ratio <= spec.area_tol and refl_ratio <= spec.area_tol:
            check = AREA_PASS
        else:
            check = AREA_FAIL

        spec_inc = spectrum(inc, spec.zero_pad)
        spec_trans = spectrum(trans, spec.zero_pad)
        depth = 1.0 - (abs(spec_trans.at_resonance()) ** 2
                       / abs(spec_inc.at_resonance()) ** 2)
        try:
            width = measure_dip_width(spec_trans)
        except NumericalError:
            width = None  # flat or monotone spectrum: no dip to measure

        r1, r2 = consistency_residuals(traj, envelopes, params)
        report = markov_guard(params)

        files: tuple[str, ...] = ()
        if spec.out_dir is not None:
            files = _write_cell_files(
                Path(spec.out_dir), f"cell{index:03d}_", traj, envelopes,
                {"incident": spec_inc, "transmitted": spec_trans})

        return CellResult(
            index=index, gamma_over_delta=gamma_over_delta, k0l=k0l,
            model=model, ok=True,
            m_total=coupling.m_total,
            area_inc=s_inc, area_trans=s_trans, area_refl=s_refl,
            area_trans_ratio=trans_ratio, area_refl_ratio=refl_ratio,
            area_check=check,
            identity_transmission=bool(np.array_equal(trans.samples, inc.samples)),
            fft_len=spec_trans.amplitude.size,
            dip_depth=depth, dip_width=width,
            peak_ratio=trans.peak() / inc.peak(),
            residual1=r1, residual2=r2,
            markov_ok=report.ok,
            markov_ratio_max=max(report.ratios.values()),
            files=files,
        )
    except WqedError as exc:
        return CellResult(index=index, gamma_over_delta=gamma_over_delta,
                          k0l=k0l, model=model, ok=False,
                          error=f"{type(exc).__name__}: {exc}")


def run_sweep(spec: SweepSpec) -> RunManifest:
    """Execute every cell (spec order), assemble and write the manifest."""
    tasks = [(index, god, k0l, model)
             for index, (god, k0l, model) in enumerate(
                 (g, k, m)
                 for g in spec.gamma_over_delta
                 for k in spec.k0l
                 for m in spec.models)]
    workers = thread_count()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda t: run_cell(*t, spec), tasks))
    else:
        results = [run_cell(*t, spec) for t in tasks]
    manifest = RunManifest(MANIFEST_VERSION, spec, tuple(results))
    if spec.out_dir is not None:
        write_manifest(manifest, Path(spec.out_dir) / "manifest.txt")
    return manifest


# ----------------------------------------------------------------------
# coupling-model comparison table
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CouplingRow:
    """One (k0l, model) cell of the comparison table."""

    k0l: float
    model: CouplingModel
    m_total: complex
    abs_dev_from_full: float
    diverged: bool


def compare_couplings(k0l_values, models, *, gamma: float = 1.0,
                      omega0_over_gamma: float = 1e4) -> tuple[CouplingRow, ...]:
    """Coupling constant under each model vs the exact closed form.

    Rows are ordered k0l-major, models in the given order within each
    k0l.  Cutoff-regularized models carry their epsilon inside the
    CouplingModel, so a grid over epsilon is expressed as several
    rwa_cutoff models.
    """
    k0l_values = tuple(float(v) for v in k0l_values)
    models = tuple(models)
    if not k0l_values:
        raise ConfigurationError("need at least one k0l value")
    if not models:
        raise ConfigurationError("need at least one coupling model")
    rows = []
    for k0l in k0l_values:
        params = SimParams.from_ratios(1.0, k0l, omega0_over_gamma, gamma=gamma)
        exact = coupling_full(params).m_total
        for model in models:
            result: CouplingResult = evaluate_coupling(params, model)
            rows.append(CouplingRow(
                k0l=k0l, model=model, m_total=result.m_total,
                abs_dev_from_full=abs(result.m_total - exact),
                diverged=result.diverged))
    return tuple(rows)
