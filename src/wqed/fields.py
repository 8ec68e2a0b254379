"""Propagating-field reconstruction, pulse areas, spectra, and a
frequency-domain transfer oracle.

Outside the inter-atomic region the single-photon field splits into
three causal envelopes on the retarded-time grid tau = t - z1/c:

    A_inc(tau)   = N * sqrt(delta/2) * exp(-delta^2 tau^2 / 4)
    A_trans(tau) = A_inc(tau) - i*kappa * sum_j e^{-i k0 z_j} beta_j(tau)
    A_refl(tau)  =           - i*kappa * sum_j e^{+i k0 z_j} beta_j(tau)

with the radiated-envelope constant kappa and the local-field constants
G0_j fixed, in the chosen units, by requiring the field-amplitude
identities

    i dbeta1/dt = G01 * (A_inc + A_refl)
    i dbeta2/dt = G02 * A_trans

to reproduce the amplitude equation of motion exactly when the coupling
takes its full (non-RWA) value gamma * e^{i k0 l}.  That pins the only
combination that matters: kappa = sqrt(2 pi gamma) and
G0_j = sqrt(gamma / 2 pi) e^{i k0 z_j}, so kappa * |G0_j| = gamma.

The algebraic pulse area of each envelope (trapezoid over the grid) obeys
the area theorem: the transmitted area vanishes and the reflected area
cancels the incident one, for every coupling strength, pulse width, and
atom separation.  The resonant Fourier component is therefore never
transmitted.

The transfer oracle solves the same dynamics per detuning in the
frequency domain,

    (gamma - i*d) b1 + M b2 = Si,    M b1 + (gamma - i*d) b2 = e^{i k0 l} Si,

and forms the transmission/reflection amplitudes t(d), r(d) from the
same reconstruction formulas.  Its inverse transform is an independent
check on the time-domain integrator.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .coupling import CouplingModel, CouplingResult, SimParams, evaluate_coupling
from .dynamics import AmplitudeTrajectory, IncidentWavepacket, check_alignment
from .errors import ConfigurationError, GridMismatch, NumericalError, TruncationError

INCIDENT = "incident"
TRANSMITTED = "transmitted"
REFLECTED = "reflected"
_KINDS = (INCIDENT, TRANSMITTED, REFLECTED)

# envelopes whose end samples exceed this fraction of the peak are too
# truncated for a trustworthy area
END_DECAY_FRACTION = 1e-3
# default zero-padding of spectra: resolves the transmission dip down to
# gamma/delta ~ 0.02
DEFAULT_ZERO_PAD = 8
# transfer grids must cover the pulse spectrum out to this many bandwidths
_MIN_TRANSFER_SPAN = 8.0


# ----------------------------------------------------------------------
# radiated-field constants
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FieldPrefactors:
    """Radiated-envelope constant kappa and local-field constants G0_j.

    kappa scales the amplitude radiated per unit excited-state amplitude;
    g01/g02 convert the local field at an atom into the rate of change of
    its amplitude.  kappa * |g0j| = gamma ties the two together.
    """

    kappa: float
    g01: complex
    g02: complex


def radiation_prefactors(params: SimParams) -> FieldPrefactors:
    """Field constants for the given parameter set (kappa = sqrt(2 pi gamma))."""
    kappa = math.sqrt(2.0 * math.pi * params.gamma)
    root = math.sqrt(params.gamma / (2.0 * math.pi))
    k0 = params.omega0 / params.c
    return FieldPrefactors(
        kappa=kappa,
        g01=root * complex(math.cos(k0 * params.z1), math.sin(k0 * params.z1)),
        g02=root * complex(math.cos(k0 * params.z2), math.sin(k0 * params.z2)),
    )


# ----------------------------------------------------------------------
# field envelopes
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FieldEnvelope:
    """One propagating envelope sampled on a uniform retarded-time grid.

    The stored pulse_area is the trapezoid integral of the samples; it is
    recomputed, never passed in, so it always matches the samples.
    """

    kind: str
    tau: np.ndarray
    samples: np.ndarray
    prefactors: FieldPrefactors
    delta: float                  # spectral width of the driving pulse
    pulse_area: complex = field(init=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigurationError(f"unknown envelope kind {self.kind!r}")
        if self.tau.ndim != 1 or self.tau.shape != self.samples.shape:
            raise ConfigurationError("tau and samples must be 1-d and congruent")
        if self.tau.size < 3:
            raise ConfigurationError("need at least 3 samples")
        if not (self.delta > 0 and math.isfinite(self.delta)):
            raise ConfigurationError(f"delta must be > 0, got {self.delta}")
        object.__setattr__(self, "pulse_area",
                           complex(np.trapezoid(self.samples, self.tau)))

    @property
    def dtau(self) -> float:
        return (float(self.tau[-1]) - float(self.tau[0])) / (self.tau.size - 1)

    def peak(self) -> float:
        """Largest sample magnitude."""
        return float(np.max(np.abs(self.samples)))

    def end_fraction(self) -> float:
        """Larger end-sample magnitude relative to the peak (0 for a null field)."""
        peak = self.peak()
        if peak == 0.0:
            return 0.0
        ends = max(abs(complex(self.samples[0])), abs(complex(self.samples[-1])))
        return ends / peak

    def ends_decayed(self, fraction: float = END_DECAY_FRACTION) -> bool:
        """True when both grid ends are below `fraction` of the peak."""
        return self.end_fraction() <= fraction


def reconstruct_fields(traj: AmplitudeTrajectory, wavepacket: IncidentWavepacket,
                       params: SimParams) -> tuple[FieldEnvelope, FieldEnvelope,
                                                   FieldEnvelope]:
    """Incident, transmitted, and reflected envelopes from a trajectory.

    All three live on the trajectory grid shifted to retarded time
    tau = t - z1/c; the flight-time offsets between the atoms are dropped
    at the same (Markovian) order as in the dynamics.
    """
    check_alignment(wavepacket, params)
    times = traj.grid.times
    center = params.z1 / params.c
    if not (times[0] <= center <= times[-1]):
        raise GridMismatch(
            f"trajectory grid [{times[0]}, {times[-1]}] does not contain "
            f"the pulse arrival at t = {center}")
    tau = times - center

    pref = radiation_prefactors(params)
    scale = wavepacket.amplitude_scale * math.sqrt(wavepacket.delta / 2.0)
    inc = scale * np.exp(-0.25 * (wavepacket.delta * tau) ** 2) + 0.0j

    k0 = params.omega0 / params.c
    ph1 = complex(math.cos(k0 * params.z1), math.sin(k0 * params.z1))
    ph2 = complex(math.cos(k0 * params.z2), math.sin(k0 * params.z2))
    radiated_fw = -1j * pref.kappa * (traj.beta1 * ph1.conjugate()
                                      + traj.beta2 * ph2.conjugate())
    radiated_bw = -1j * pref.kappa * (traj.beta1 * ph1 + traj.beta2 * ph2)

    def make(kind: str, samples: np.ndarray) -> FieldEnvelope:
        return FieldEnvelope(kind=kind, tau=tau, samples=samples,
                             prefactors=pref, delta=wavepacket.delta)

    return (make(INCIDENT, inc),
            make(TRANSMITTED, inc + radiated_fw),
            make(REFLECTED, radiated_bw))


def pulse_areas(fields: tuple[FieldEnvelope, FieldEnvelope, FieldEnvelope],
                decay_fraction: float = END_DECAY_FRACTION,
                ) -> tuple[complex, complex, complex]:
    """(S_inc, S_trans, S_refl) trapezoid areas of the three envelopes.

    Refuses to report areas from envelopes that have not decayed at the
    grid ends -- a truncated tail silently biases the integral.
    """
    inc, trans, refl = fields
    if (inc.kind, trans.kind, refl.kind) != _KINDS:
        raise ConfigurationError(
            "expected (incident, transmitted, reflected) envelopes, got "
            f"({inc.kind}, {trans.kind}, {refl.kind})")
    for env in (inc, trans, refl):
        if not env.ends_decayed(decay_fraction):
            raise TruncationError(
                f"{env.kind} envelope has not decayed at the grid ends "
                f"(end/peak = {env.end_fraction():.3e} > {decay_fraction:g}); "
                "extend the grid before trusting areas")
    return inc.pulse_area, trans.pulse_area, refl.pulse_area


# ----------------------------------------------------------------------
# spectra
# ----------------------------------------------------------------------

def fft_length(n: int) -> int:
    """Smallest 5-smooth length 2^a 3^b 5^c that is >= n.

    Such lengths keep the FFT on its fast mixed-radix path; a length with
    a large prime factor is several times slower.
    """
    if n < 1:
        raise ConfigurationError(f"FFT length must be >= 1, got {n}")
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # fewest factors of two that lift p35 to at least n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _detuning_axis(n: int, dtau: float) -> np.ndarray:
    """Angular detunings of an n-point DFT on step dtau, ascending, with
    exactly zero at index n // 2."""
    omega = np.arange(-(n // 2), n - n // 2, dtype=float)
    omega *= 2.0 * math.pi / (n * dtau)
    return omega


def _alternate(samples: np.ndarray) -> None:
    """Multiply by (-1)^j in place.  For an even DFT length this moves bin
    n/2 to index 0, i.e. it does the work of fftshift on the input side."""
    samples[1::2] *= -1.0


def _phase_ramp(values: np.ndarray, omega: np.ndarray, tau0: float,
                scale: float) -> None:
    """values *= scale * e^{i omega tau0}, in place."""
    ramp = np.empty_like(values)
    np.multiply(omega, tau0, out=ramp.real)
    np.sin(ramp.real, out=ramp.imag)
    np.cos(ramp.real, out=ramp.real)
    ramp *= scale
    values *= ramp


@dataclass(frozen=True)
class Spectrum:
    """Discrete spectrum A~(omega) of one envelope.

    Convention: A~(omega) = int A(tau) e^{+i (omega - omega0) tau} d tau,
    evaluated by a zero-padded rectangle-rule DFT whose length is the
    5-smooth fft_length(n_time * zero_pad_factor).  The detuning axis is
    stored ascending in units of the pulse width delta, with zero detuning
    at index size // 2.  tau0/dtau/n_time record the originating grid so
    the transform can be inverted exactly.
    """

    detuning: np.ndarray          # (omega - omega0) / delta, ascending
    amplitude: np.ndarray
    delta: float
    tau0: float
    dtau: float
    n_time: int

    @property
    def intensity(self) -> np.ndarray:
        """|A~|^2, the spectral energy density."""
        return np.abs(self.amplitude) ** 2

    def at_resonance(self) -> complex:
        """A~ at zero detuning (a grid point of the DFT by construction)."""
        return complex(self.amplitude[int(np.argmin(np.abs(self.detuning)))])

    def time_samples(self) -> np.ndarray:
        """Invert the DFT back to the original n_time envelope samples."""
        n = self.amplitude.size
        buf = self.amplitude.astype(complex)
        _phase_ramp(buf, _detuning_axis(n, self.dtau), -self.tau0,
                    1.0 / (n * self.dtau))
        if n % 2:
            buf = np.fft.ifftshift(buf)
        np.fft.fft(buf, out=buf)
        samples = buf[:self.n_time].copy()
        if n % 2 == 0:
            _alternate(samples)
        return samples


def spectrum(env: FieldEnvelope, zero_pad_factor: int = DEFAULT_ZERO_PAD) -> Spectrum:
    """Zero-padded DFT spectrum of an envelope, detuning in units of delta.

    The envelope is padded with zeros to fft_length(n_time *
    zero_pad_factor) points: at least zero_pad_factor times its length,
    rounded up to a 5-smooth FFT length.
    """
    if not isinstance(zero_pad_factor, int) or zero_pad_factor < 1:
        raise ConfigurationError(
            f"zero_pad_factor must be an integer >= 1, got {zero_pad_factor!r}")
    n_time = env.samples.size
    n = fft_length(n_time * zero_pad_factor)
    dtau = env.dtau
    tau0 = float(env.tau[0])
    amplitude = np.zeros(n, dtype=complex)
    amplitude[:n_time] = env.samples
    if n % 2 == 0:
        _alternate(amplitude[:n_time])
    np.fft.ifft(amplitude, norm="forward", out=amplitude)
    if n % 2:
        amplitude = np.fft.fftshift(amplitude)
    omega = _detuning_axis(n, dtau)
    _phase_ramp(amplitude, omega, tau0, dtau)
    omega /= env.delta
    return Spectrum(detuning=omega, amplitude=amplitude,
                    delta=env.delta, tau0=tau0, dtau=dtau, n_time=n_time)


def dip_width(spec: Spectrum) -> float:
    """Full width (units of delta) of the resonance dip at half depth.

    Depth is measured from the lower of the two side shoulders down to
    the on-resonance intensity; the width is between the half-depth
    crossings nearest to resonance on either side.
    """
    inten = spec.intensity
    i0 = int(np.argmin(np.abs(spec.detuning)))
    left, right = inten[:i0], inten[i0 + 1:]
    if left.size == 0 or right.size == 0:
        raise ConfigurationError("spectrum has no samples on one side of resonance")
    shoulder = min(float(left.max()), float(right.max()))
    bottom = float(inten[i0])
    if shoulder <= bottom:
        raise NumericalError("no dip: shoulders do not rise above resonance")
    half = bottom + 0.5 * (shoulder - bottom)

    def crossing(direction: int) -> float:
        k = i0
        while 0 < k < inten.size - 1:
            k += direction
            if inten[k] >= half:
                # linear interpolation between k-direction and k
                f = (half - inten[k - direction]) / (inten[k] - inten[k - direction])
                return float(spec.detuning[k - direction]
                             + f * (spec.detuning[k] - spec.detuning[k - direction]))
        raise NumericalError("dip half-depth level never reached; grid too short")

    return crossing(+1) - crossing(-1)


# ----------------------------------------------------------------------
# consistency of dynamics with the local fields
# ----------------------------------------------------------------------

def consistency_residuals(traj: AmplitudeTrajectory,
                          fields: tuple[FieldEnvelope, FieldEnvelope, FieldEnvelope],
                          params: SimParams) -> tuple[float, float]:
    """Sup-norm residuals of the local-field identities.

        residual1 = sup |i dbeta1/dt - G01 (A_inc + A_refl)| / sup |dbeta/dt|
        residual2 = sup |i dbeta2/dt - G02 A_trans|          / sup |dbeta/dt|

    Derivatives use centered differences on interior points, so with the
    full coupling the residuals measure pure discretization error and
    shrink ~4x per halving of the step.
    """
    inc, trans, refl = fields
    times = traj.grid.times
    for env in (inc, trans, refl):
        if env.samples.size != times.size:
            raise GridMismatch(
                f"{env.kind} envelope has {env.samples.size} samples, "
                f"trajectory has {times.size}")
        if not math.isclose(env.dtau, traj.grid.dt, rel_tol=1e-12):
            raise GridMismatch(
                f"{env.kind} envelope step {env.dtau} != trajectory step "
                f"{traj.grid.dt}")

    h = traj.grid.dt
    db1 = (traj.beta1[2:] - traj.beta1[:-2]) / (2.0 * h)
    db2 = (traj.beta2[2:] - traj.beta2[:-2]) / (2.0 * h)
    denom = max(float(np.max(np.abs(db1))), float(np.max(np.abs(db2))))
    if denom == 0.0:
        return (0.0, 0.0)

    pref = radiation_prefactors(params)
    res1 = np.max(np.abs(1j * db1
                         - pref.g01 * (inc.samples + refl.samples)[1:-1]))
    res2 = np.max(np.abs(1j * db2 - pref.g02 * trans.samples[1:-1]))
    return float(res1) / denom, float(res2) / denom


# ----------------------------------------------------------------------
# frequency-domain transfer oracle
# ----------------------------------------------------------------------

def transfer_oracle(params: SimParams, coupling: CouplingModel | CouplingResult | complex,
                    wavepacket: IncidentWavepacket,
                    freq_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Transmission and reflection amplitudes t(d), r(d) on a detuning grid.

    Solves the steady linear response per detuning d = omega - omega0
    (same units as gamma) and forms the envelope ratios

        t(d) = 1 - 2 gamma [(gamma - i d) - M cos(k0 l)] / D
        r(d) = - gamma [(1 + f^2)(gamma - i d) - 2 M f] / D

    with f = e^{i k0 l} and D = (gamma - i d)^2 - M^2.  For the full
    coupling M = gamma f these give t(0) = 0, r(0) = -1 identically: the
    resonant component is always fully reflected.  The removable 0/0 at
    D = 0 (gamma > 0) is filled with that limit; with gamma = 0 the
    response at zero detuning is genuinely singular.
    """
    check_alignment(wavepacket, params)
    detuning = np.asarray(freq_grid, dtype=float)
    if detuning.ndim != 1 or detuning.size < 2:
        raise ConfigurationError("freq_grid must be a 1-d array of detunings")
    span = _MIN_TRANSFER_SPAN * wavepacket.delta
    if detuning.min() > -span or detuning.max() < span:
        raise ConfigurationError(
            f"freq_grid must cover +-{_MIN_TRANSFER_SPAN:g} pulse widths "
            f"(+-{span:g}); got [{detuning.min():g}, {detuning.max():g}]")

    if isinstance(coupling, CouplingModel):
        m = evaluate_coupling(params, coupling).m_total
    elif isinstance(coupling, CouplingResult):
        m = coupling.m_total
    else:
        m = complex(coupling)

    gamma = params.gamma
    x = params.k0l
    f = complex(math.cos(x), math.sin(x))
    gmd = gamma - 1j * detuning
    d = gmd * gmd - m * m
    singular = d == 0.0
    if singular.any():
        if gamma == 0.0:
            raise NumericalError(
                "zero-coupling response is singular at zero detuning")
        d = np.where(singular, 1.0, d)

    t_vals = 1.0 - 2.0 * gamma * (gmd - m * math.cos(x)) / d
    r_vals = -gamma * ((1.0 + f * f) * gmd - 2.0 * m * f) / d
    if singular.any():
        t_vals = np.where(singular, 0.0, t_vals)
        r_vals = np.where(singular, -1.0, r_vals)
    return t_vals, r_vals


def transfer_spectrum(spec_inc: Spectrum, transfer: np.ndarray) -> Spectrum:
    """Apply a transfer amplitude to an incident spectrum, keeping the
    grid metadata so the product can be inverted to the time domain."""
    if transfer.shape != spec_inc.amplitude.shape:
        raise GridMismatch(
            f"transfer array has shape {transfer.shape}, spectrum has "
            f"{spec_inc.amplitude.shape}")
    return dataclasses.replace(spec_inc, amplitude=spec_inc.amplitude * transfer)
