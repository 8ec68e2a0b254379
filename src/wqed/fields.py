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

The algebraic pulse area of each envelope (trapezoid over the grid, plus
the closed-form tail of a slow mode the grid leaves out) obeys the area
theorem: the transmitted area vanishes and the reflected area cancels the
incident one, for every coupling strength, pulse width, and atom
separation.  The resonant Fourier component is therefore never transmitted.

The transfer oracle solves the same dynamics per detuning in the
frequency domain,

    (gamma - i*d) b1 + M b2 = Si,    M b1 + (gamma - i*d) b2 = e^{i k0 l} Si,

and forms the transmission/reflection amplitudes t(d), r(d) from the
same reconstruction formulas.  Its inverse transform is an independent
check on the time-domain integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coupling import CouplingModel, CouplingResult, SimParams, evaluate_coupling
from .dynamics import (AmplitudeTrajectory, IncidentWavepacket, check_alignment,
                       check_points, tail_modes)
from .errors import ConfigurationError, GridMismatch, NumericalError, TruncationError

INCIDENT = "incident"
TRANSMITTED = "transmitted"
REFLECTED = "reflected"
_KINDS = (INCIDENT, TRANSMITTED, REFLECTED)

# envelopes whose end samples exceed this fraction of the larger of their
# own peak and the incident peak are too truncated for a trustworthy area
END_DECAY_FRACTION = 1e-3
# default zero-padding of spectra: resolves the transmission dip down to
# gamma/delta ~ 0.02
DEFAULT_ZERO_PAD = 8
# spectra are computed and tabulated only over |detuning| <= this many
# pulse widths; the zero-padded DFT extends orders of magnitude beyond any
# signal
SPECTRUM_WINDOW = 8.0
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
    """One propagating envelope sampled on a uniform retarded-time grid and
    continued past it by its tail, sum c e^{-lam (tau - tau[-1])} over slow modes.

    pulse_area, the trapezoid of the samples plus tail_area = sum c/lam, is
    recomputed, never passed in, so it always matches the samples and tail.
    """

    kind: str
    tau: np.ndarray
    samples: np.ndarray
    prefactors: FieldPrefactors
    delta: float                  # spectral width of the driving pulse
    tail: tuple[tuple[complex, complex], ...] = ()   # (c, lam) per slow mode
    incident_peak: float = 0.0    # N sqrt(delta/2), the floor of end_fraction's scale
    pulse_area: complex = field(init=False)
    tail_area: complex = field(init=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigurationError(f"unknown envelope kind {self.kind!r}")
        if self.tau.ndim != 1 or self.tau.shape != self.samples.shape:
            raise ConfigurationError("tau and samples must be 1-d and congruent")
        if self.tau.size < 3:
            raise ConfigurationError("need at least 3 samples")
        if not (self.delta > 0 and math.isfinite(self.delta)):
            raise ConfigurationError(f"delta must be > 0, got {self.delta}")
        object.__setattr__(self, "tail_area", sum((c / lam for c, lam in self.tail), 0j))
        object.__setattr__(self, "pulse_area", complex(
            np.trapezoid(self.samples, self.tau)) + self.tail_area)

    @property
    def dtau(self) -> float:
        return (float(self.tau[-1]) - float(self.tau[0])) / (self.tau.size - 1)

    def peak(self) -> float:
        """Largest sample magnitude."""
        return float(np.max(np.abs(self.samples)))

    def end_fraction(self) -> float:
        """Larger end-sample magnitude relative to the larger of the peak and
        incident_peak, which a strongly reflected envelope's peak falls below (0
        for a null field); the last sample counts only what the tail does not carry."""
        peak = max(self.peak(), self.incident_peak)
        if peak == 0.0:
            return 0.0
        last = complex(self.samples[-1]) - sum(c for c, _ in self.tail)
        return max(abs(complex(self.samples[0])), abs(last)) / peak

    def ends_decayed(self) -> bool:
        """True when both grid ends are below END_DECAY_FRACTION of the
        end_fraction scale."""
        return self.end_fraction() <= END_DECAY_FRACTION


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
    # the mode w = beta1 + s*beta2 leaves w/2 in beta1 and s*w/2 in beta2
    modes = {} if traj.m_total is None else tail_modes(params, traj.m_total, traj.grid)
    ends = {s: -0.5j * pref.kappa * (traj.beta1[-1] + s * traj.beta2[-1]) for s in modes}
    tail_fw = [(ends[s] * (ph1.conjugate() + s * ph2.conjugate()), lam)
               for s, lam in modes.items()]
    tail_bw = [(ends[s] * (ph1 + s * ph2), lam) for s, lam in modes.items()]

    def make(kind: str, samples: np.ndarray, tail=()) -> FieldEnvelope:
        return FieldEnvelope(kind=kind, tau=tau, samples=samples, prefactors=pref,
                             delta=wavepacket.delta, tail=tuple(tail), incident_peak=scale)

    return (make(INCIDENT, inc),
            make(TRANSMITTED, inc + radiated_fw, tail_fw),
            make(REFLECTED, radiated_bw, tail_bw))


def pulse_areas(fields: tuple[FieldEnvelope, FieldEnvelope, FieldEnvelope],
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
        if not env.ends_decayed():
            raise TruncationError(
                f"{env.kind} envelope has not decayed at the grid ends "
                f"(end/peak = {env.end_fraction():.3e} > {END_DECAY_FRACTION:g}); "
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


def _detuning_axis(n: int, dtau: float, m_lo: int, m_hi: int) -> np.ndarray:
    """Angular detunings of bins m_lo..m_hi of an n-point DFT on step dtau,
    ascending."""
    omega = np.arange(m_lo, m_hi + 1, dtype=float)
    omega *= 2.0 * math.pi / (n * dtau)
    return omega


def _window_bins(n: int, dtau: float, delta: float, window: float) -> tuple[int, int]:
    """(m_lo, m_hi): the bins of an n-point DFT whose detuning, computed as
    _detuning_axis does, lies within +-window (units of delta), clipped to
    the DFT's range."""
    step = 2.0 * math.pi / (n * dtau)
    ratio = window * delta / step
    k = n if ratio >= n else math.floor(ratio)
    while k > 0 and k * step / delta > window:
        k -= 1
    while k < n and (k + 1) * step / delta <= window:
        k += 1
    return max(-k, -(n // 2)), min(k, n - n // 2 - 1)


def _chirp(t: np.ndarray, n: int) -> np.ndarray:
    """e^{i pi t^2 / n} for integer t, with t^2 reduced mod 2n exactly
    before scaling so the phase keeps full precision for large t."""
    t = t.astype(np.int64)
    t *= t
    t %= 2 * n
    phase = t * (math.pi / n)
    out = np.empty(t.size, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def _chirp_z(samples: np.ndarray, n: int, m_lo: int, m_hi: int) -> np.ndarray:
    """Bins m_lo..m_hi of the n-point sum X_m = sum_j a_j e^{+2 pi i j m / n}
    over the samples a_j zero-padded to n (Bluestein's chirp-z transform).

    With jm = (j^2 + m^2 - (m - j)^2) / 2 the sum becomes the linear
    convolution X_m = c(m) sum_j [a_j c(j)] conj(c(m - j)), c(t) =
    e^{i pi t^2 / n}, done by FFTs of a 5-smooth length >= n_time + M - 1."""
    n_time, count = samples.size, m_hi - m_lo + 1
    length = fft_length(n_time + count - 1)
    ends = _chirp(np.arange(m_lo, m_hi + 1), n)
    # conj(c(m_lo + s)) at index s mod length, s = -(n_time - 1) .. count - 1
    lag = np.zeros(length, dtype=complex)
    lag[:count] = ends
    lag[length - n_time + 1:] = _chirp(np.arange(m_lo - n_time + 1, m_lo), n)
    np.conjugate(lag, out=lag)
    np.fft.fft(lag, out=lag)
    buf = np.zeros(length, dtype=complex)
    buf[:n_time] = _chirp(np.arange(n_time), n)
    buf[:n_time] *= samples
    np.fft.fft(buf, out=buf)
    buf *= lag
    del lag
    np.fft.ifft(buf, out=buf)
    ends *= buf[:count]
    return ends


@dataclass(frozen=True)
class Spectrum:
    """Discrete spectrum A~(omega) of one envelope.

    Convention: A~(omega) = int A(tau) e^{+i (omega - omega0) tau} d tau,
    evaluated by a zero-padded rectangle-rule DFT whose length fft_len is
    the 5-smooth fft_length(n_time * zero_pad_factor), plus the sum over
    the envelope's tail.  Only the bins of that DFT within a detuning window
    are held, on an axis stored ascending in units of the pulse width delta.
    """

    detuning: np.ndarray          # (omega - omega0) / delta, ascending
    amplitude: np.ndarray
    delta: float
    fft_len: int

    @property
    def intensity(self) -> np.ndarray:
        """|A~|^2, the spectral energy density."""
        return np.abs(self.amplitude) ** 2

    def at_resonance(self) -> complex:
        """A~ at zero detuning (a grid point of the DFT by construction)."""
        return complex(self.amplitude[int(np.argmin(np.abs(self.detuning)))])


def spectrum(env: FieldEnvelope, zero_pad_factor: int = DEFAULT_ZERO_PAD,
             window: float = SPECTRUM_WINDOW) -> Spectrum:
    """Zero-padded DFT spectrum of an envelope, detuning in units of delta.

    The envelope is padded with zeros to fft_length(n_time *
    zero_pad_factor) points: at least zero_pad_factor times its length,
    rounded up to a 5-smooth FFT length.  Only the bins with |detuning| <=
    window of that DFT are computed, by a chirp-z transform whose cost
    scales with n_time plus the window's bin count rather than with the
    padded length; the tail of an envelope adds its exact continuation of
    the sum to each bin.
    """
    if not isinstance(zero_pad_factor, int) or zero_pad_factor < 1:
        raise ConfigurationError(
            f"zero_pad_factor must be an integer >= 1, got {zero_pad_factor!r}")
    if window is None or not (window >= 0.0 and math.isfinite(window)):
        raise ConfigurationError(f"window must be finite and >= 0, got {window!r}")
    n_time = env.samples.size
    n = fft_length(n_time * zero_pad_factor)
    dtau = env.dtau
    spectrum_length(n_time, dtau, env.delta, zero_pad_factor, window)
    m_lo, m_hi = _window_bins(n, dtau, env.delta, window)
    amplitude = _chirp_z(env.samples, n, m_lo, m_hi)
    omega = _detuning_axis(n, dtau, m_lo, m_hi)
    amplitude *= dtau * np.exp(1j * float(env.tau[0]) * omega)
    for term in _tail_terms(env, omega):
        amplitude -= term
    omega /= env.delta
    return Spectrum(detuning=omega, amplitude=amplitude, delta=env.delta, fft_len=n)


def _tail_terms(env: FieldEnvelope, omega):
    """Per tail mode, what a spectrum subtracts at angular detunings omega to
    continue its rectangle-rule sum past the grid by c dtau e^{i omega tau_end}
    q/(1 - q), q = e^{z}."""
    dtau = env.dtau
    for c, lam in env.tail:
        z = (1j * dtau) * omega - lam * dtau
        yield (c * dtau) * np.exp(z + 1j * float(env.tau[-1]) * omega) / np.expm1(z)


def resonant_amplitude(env: FieldEnvelope) -> complex:
    """spectrum(env).at_resonance() without the transform: the
    zero-detuning bin is dtau times the sum of the samples, plus the tail."""
    value = env.dtau * complex(np.sum(env.samples))
    for term in _tail_terms(env, 0.0):
        value -= complex(term)
    return value


def spectrum_length(n_time: int, dtau: float, delta: float, zero_pad_factor: int,
                    window: float = SPECTRUM_WINDOW) -> int:
    """Chirp-z FFT length spectrum() needs for n_time samples, checked
    against POINT_BUDGET."""
    m_lo, m_hi = _window_bins(fft_length(n_time * zero_pad_factor), dtau, delta, window)
    return check_points("a spectrum FFT", fft_length(n_time + m_hi - m_lo))


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

