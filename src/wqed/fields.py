"""Propagating-field reconstruction, pulse areas, spectra, and a
frequency-domain transfer oracle.

Outside the inter-atomic region the single-photon field splits into
three causal envelopes on the retarded-time grid tau = t (atom 1 sits at
z1 = 0 and atom 2 at z2 = l, with c = 1):

    A_inc(tau)   = N * sqrt(delta/2) * exp(-delta^2 tau^2 / 4)
    A_trans(tau) = A_inc(tau) - i*kappa * (beta1(tau) + e^{-i k0 l} beta2(tau))
    A_refl(tau)  =           - i*kappa * (beta1(tau) + e^{+i k0 l} beta2(tau))

with the radiated-envelope constant kappa and the local-field constants
G0_j fixed, in the chosen units, by requiring the field-amplitude
identities

    i dbeta1/dt = G01 * (A_inc + A_refl)
    i dbeta2/dt = G02 * A_trans

to reproduce the amplitude equation of motion exactly when the coupling
takes its full (non-RWA) value gamma * e^{i k0 l}.  That pins the only
combination that matters: kappa = sqrt(2 pi gamma),
G01 = sqrt(gamma / 2 pi) and G02 = G01 e^{i k0 l}, so kappa * |G0_j| = gamma.

The algebraic pulse area of each envelope (trapezoid over the grid, continued
over the closed-form tail of each decaying mode past the grid's end) obeys the area
theorem: the transmitted area vanishes and the reflected area cancels the
incident one, for every coupling strength, pulse width, and atom
separation.  The resonant Fourier component is therefore never transmitted.

The transfer oracle solves the same dynamics per detuning in the
frequency domain,

    (gamma - i*d) b1 + M b2 = Si,    M b1 + (gamma - i*d) b2 = e^{i k0 l} Si,

and forms the transmission amplitude t(d) from the same reconstruction
formulas.  Its inverse transform is an independent check on the
time-domain integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .coupling import SimParams
from .dynamics import _ENVELOPE_WINDOW, PHOTON_SCALE, AmplitudeTrajectory, tail_modes
from .errors import ConfigurationError, GridMismatch, NumericalError

INCIDENT = "incident"
TRANSMITTED = "transmitted"
REFLECTED = "reflected"
_KINDS = (INCIDENT, TRANSMITTED, REFLECTED)

# envelopes whose end samples exceed this fraction of the larger of their
# own peak and the incident peak are too truncated for a trustworthy area
END_DECAY_FRACTION = 1e-3
# a spectrum's coarse axis is the DFT of the source's support, 24/delta,
# zero-padded this many times: bins 0.0164 delta apart
DEFAULT_ZERO_PAD = 16
# each zone a narrow line adds holds 2 LINE_HALF + 1 bins; a decaying mode's
# line is narrow when Re lam spans fewer than LINE_REFINE coarse bins
LINE_HALF = 64
LINE_REFINE = 16
# spectra are computed and tabulated only over |detuning| <= this many
# pulse widths; the DTFT extends orders of magnitude beyond any signal
SPECTRUM_WINDOW = 8.0
# transfer grids must cover the pulse spectrum out to this many bandwidths
_MIN_TRANSFER_SPAN = 8.0


# ----------------------------------------------------------------------
# radiated-field constants
# ----------------------------------------------------------------------

class FieldPrefactors(NamedTuple):
    """Radiated-envelope constant kappa and local-field constants G0_j.

    kappa scales the amplitude radiated per unit excited-state amplitude;
    g01/g02 convert the local field at an atom into the rate of change of
    its amplitude.  kappa * |g0j| = gamma ties the two together.
    """

    kappa: float
    g01: float
    g02: complex


def radiation_prefactors(params: SimParams) -> FieldPrefactors:
    """Field constants for the given parameter set (kappa = sqrt(2 pi gamma))."""
    kappa = math.sqrt(2.0 * math.pi * params.gamma)
    root = math.sqrt(params.gamma / (2.0 * math.pi))
    return FieldPrefactors(kappa=kappa, g01=root, g02=root * params.phase)


# ----------------------------------------------------------------------
# field envelopes
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FieldEnvelope:
    """One propagating envelope sampled on a uniform retarded-time grid and
    continued past it by its tail, sum c e^{-lam (tau - tau[-1])} over decaying
    modes.

    pulse_area, the samples' trapezoid continued over the tail by tail_area = sum c dtau
    (1/2 + 1/expm1(lam dtau)), is recomputed, never passed in, so it matches them.
    """

    kind: str
    tau: np.ndarray
    samples: np.ndarray
    delta: float                  # spectral width of the driving pulse
    tail: tuple[tuple[complex, complex], ...] = ()   # (c, lam) per decaying mode
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
        object.__setattr__(self, "tail_area", complex(sum(
            c * self.dtau * (0.5 + 1.0 / np.expm1(lam * self.dtau)) for c, lam in self.tail)))
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


def reconstruct_fields(traj: AmplitudeTrajectory, params: SimParams
                       ) -> tuple[FieldEnvelope, FieldEnvelope, FieldEnvelope]:
    """Incident, transmitted, and reflected envelopes from a trajectory,
    the incident one of peak N sqrt(delta/2) with the photon's N = PHOTON_SCALE.

    All three live on the trajectory grid as retarded time tau = t (atom 1
    at z1 = 0, atom 2 at z2 = l); the flight-time offsets between the atoms
    are dropped at the same (Markovian) order as in the dynamics.
    """
    tau = traj.grid.times
    if not (tau[0] <= 0.0 <= tau[-1]):
        raise GridMismatch(
            f"trajectory grid [{tau[0]}, {tau[-1]}] does not contain "
            "the pulse arrival at t = 0")

    pref = radiation_prefactors(params)
    scale = PHOTON_SCALE * math.sqrt(params.delta / 2.0)
    inc = scale * np.exp(-0.25 * (params.delta * tau) ** 2) + 0.0j

    phase = params.phase
    radiated_fw = -1j * pref.kappa * (traj.beta1 + traj.beta2 * phase.conjugate())
    radiated_bw = -1j * pref.kappa * (traj.beta1 + traj.beta2 * phase)
    # the mode w = beta1 + s*beta2 leaves w/2 in beta1 and s*w/2 in beta2
    modes = {} if traj.m_total is None else tail_modes(params, traj.m_total, traj.grid)
    ends = {s: -0.5j * pref.kappa * (traj.beta1[-1] + s * traj.beta2[-1]) for s in modes}
    tail_fw = [(ends[s] * (1.0 + s * phase.conjugate()), lam) for s, lam in modes.items()]
    tail_bw = [(ends[s] * (1.0 + s * phase), lam) for s, lam in modes.items()]

    def make(kind: str, samples: np.ndarray, tail=()) -> FieldEnvelope:
        return FieldEnvelope(kind=kind, tau=tau, samples=samples, delta=params.delta,
                             tail=tuple(tail), incident_peak=scale)

    return (make(INCIDENT, inc),
            make(TRANSMITTED, inc + radiated_fw, tail_fw),
            make(REFLECTED, radiated_bw, tail_bw))


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


def _window_bins(n: int, dtau: float, delta: float) -> tuple[int, int]:
    """(m_lo, m_hi): the bins of an n-point DFT whose detuning, computed as
    _detuning_axis does, lies within +-SPECTRUM_WINDOW (units of delta),
    clipped to the DFT's range."""
    step = 2.0 * math.pi / (n * dtau)
    ratio = SPECTRUM_WINDOW * delta / step
    k = n if ratio >= n else math.floor(ratio)
    while k > 0 and k * step / delta > SPECTRUM_WINDOW:
        k -= 1
    while k < n and (k + 1) * step / delta <= SPECTRUM_WINDOW:
        k += 1
    return max(-k, -(n // 2)), min(k, n - n // 2 - 1)


def _chirp(t: np.ndarray, n: int) -> np.ndarray:
    """e^{i pi t^2 / n} for integer t, with t^2 reduced mod 2n exactly
    before scaling so the phase keeps full precision for large t.  Past
    int64 (n >= 2^62, a line zone's n) t^2 is below 2n already and is
    squared in floating point, where it cannot overflow."""
    if n < 1 << 62:
        t = t.astype(np.int64)
        t *= t
        t %= 2 * n
    else:
        t = np.square(t, dtype=float)
    phase = t * (math.pi / n)
    out = np.empty(t.size, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def _chirp_z(samples: np.ndarray, n: int, m_lo: int, m_hi: int, length: int) -> np.ndarray:
    """Bins m_lo..m_hi of the n-point sum X_m = sum_j a_j e^{+2 pi i j m / n}
    over the samples a_j zero-padded to n (Bluestein's chirp-z transform).

    With jm = (j^2 + m^2 - (m - j)^2) / 2 the sum becomes the linear
    convolution X_m = c(m) sum_j [a_j c(j)] conj(c(m - j)), c(t) =
    e^{i pi t^2 / n}, done by FFTs of `length`, 5-smooth and >= n_time + M - 1."""
    n_time, count = samples.size, m_hi - m_lo + 1
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


class Spectrum(NamedTuple):
    """Spectrum A~(omega) of one envelope on the zones of spectrum_zones.

    Convention: A~(omega) = int A(tau) e^{+i (omega - omega0) tau} d tau,
    evaluated by the trapezoid rule that pulse_area is: over the samples and
    then over the envelope's tail, on a strictly ascending axis in units of
    the pulse width delta that holds detuning 0 exactly.  fft_len is the
    length of the coarse zone's DFT.
    """

    detuning: np.ndarray          # (omega - omega0) / delta, ascending
    amplitude: np.ndarray
    fft_len: int

    @property
    def intensity(self) -> np.ndarray:
        """|A~|^2, the spectral energy density."""
        return np.abs(self.amplitude) ** 2


def spectrum(env: FieldEnvelope) -> Spectrum:
    """Spectrum of an envelope, detuning in units of delta, on the zones of
    spectrum_zones(env.dtau, env.delta, env.tail).

    Each zone is one chirp-z transform of the samples, whose cost scales
    with n_time plus the zone's bin count; the tail adds its exact
    continuation of the sum to each bin.  A zone keeps only its bins outside
    the span of every finer zone, so no two zones interleave.
    """
    dtau = env.dtau
    zones = spectrum_zones(dtau, env.delta, env.tail)
    omegas, amplitudes, spans = [], [], []
    for n, m_lo, m_hi in sorted(zones, reverse=True):     # finest first
        omega = _detuning_axis(n, dtau, m_lo, m_hi)
        keep = np.ones(omega.size, dtype=bool)
        for lo, hi in spans:
            keep &= (omega < lo) | (omega > hi)
        spans.append((omega[0], omega[-1]))
        amplitude = _chirp_z(env.samples, n, m_lo, m_hi,
                             fft_length(env.samples.size + m_hi - m_lo))
        omegas.append(omega[keep])
        amplitudes.append(amplitude[keep])
    omega = np.concatenate(omegas)
    order = np.argsort(omega)
    omega, amplitude = omega[order], np.concatenate(amplitudes)[order]
    amplitude -= 0.5 * env.samples[0]
    amplitude *= dtau * np.exp(1j * float(env.tau[0]) * omega)
    amplitude += _tail_sum(env, omega)
    omega /= env.delta
    return Spectrum(detuning=omega, amplitude=amplitude, fft_len=zones[0][0])


def _tail_sum(env: FieldEnvelope, omega):
    """What the tail adds at angular detunings omega to a spectrum's
    trapezoid over the samples, continuing it past the grid: per mode the
    geometric series c dtau e^{i omega tau_end} sum_{k>=1} e^{kz} = c dtau
    e^{i omega tau_end} / expm1(-z), z = (i omega - lam) dtau, the phase
    computed once.  The last sample keeps its full weight, as in the
    trapezoid over samples and tail as one sequence; pulse_area, the sum of
    the two parts' trapezoids, differs from it by dtau/2 (a_last - sum c)."""
    dtau = env.dtau
    phase = dtau * np.exp(1j * float(env.tau[-1]) * omega)
    return sum(c * phase / np.expm1((lam * dtau) - (1j * dtau) * omega) for c, lam in env.tail)


def spectrum_zones(dtau: float, delta: float,
                   tail: tuple[tuple[complex, complex], ...] = ()) -> list[tuple[int, int, int]]:
    """(n, m_lo, m_hi) of each zone of a spectrum on step dtau: the bins
    m_lo..m_hi of an n-point DFT, at angular detunings 2 pi m / (n dtau)
    within +-SPECTRUM_WINDOW pulse widths.

    The first, coarse zone is the DFT of the source's support (24/delta)
    zero-padded DEFAULT_ZERO_PAD times.  A decaying mode (c, lam) of the
    tail whose line is narrower than LINE_REFINE coarse bins adds zones of
    2 LINE_HALF + 1 bins centred on the line, Im lam, in steps of Re lam /
    LINE_REFINE (its core), of Re lam (its skirt) and of the coarse step /
    LINE_REFINE (the coarse bins refined around it), each one that is
    finer than the coarse bins.  A half-depth crossing on the skirt of a
    line inside the dip lies farther out the weaker the dip's shoulders.
    """
    coarse = round(DEFAULT_ZERO_PAD * 2.0 * _ENVELOPE_WINDOW / (delta * dtau))
    zones = [(coarse, *_window_bins(coarse, dtau, delta))]
    for _, lam in tail:
        if lam.real * coarse * dtau >= 2.0 * math.pi * LINE_REFINE:
            continue   # wide enough for the coarse bins
        for n in (2.0 * math.pi * LINE_REFINE / (lam.real * dtau),
                  2.0 * math.pi / (lam.real * dtau), coarse * LINE_REFINE):
            if (n := round(n)) > coarse:
                center = round(lam.imag * n * dtau / (2.0 * math.pi))
                lo, hi = _window_bins(n, dtau, delta)
                lo, hi = max(lo, center - LINE_HALF), min(hi, center + LINE_HALF)
                if lo <= hi:
                    zones.append((n, lo, hi))
    return zones


def dip_width(spec: Spectrum) -> float:
    """Full width (units of delta) of the resonance dip at half depth.

    Depth is measured from the lower of the two side shoulders down to
    the on-resonance intensity; the width is between the half-depth
    crossings nearest to resonance on either side, each read off the cubic
    through the two bins that bracket it and their outer neighbours.  A
    crossing on the skirt of a narrow line inside the dip lies on coarse
    bins where the intensity bends sharply, and a straight line between
    two bins misplaces it by over 1e-3 of the width (gamma/delta = 3.65,
    k0l = 0.1).
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
                return _level_crossing(spec.detuning, inten, k - direction, k, half)
        raise NumericalError("dip half-depth level never reached; grid too short")

    return crossing(+1) - crossing(-1)


def _level_crossing(x: np.ndarray, y: np.ndarray, below: int, above: int,
                    level: float) -> float:
    """Where the cubic through the adjacent bins below and above, y[below] <
    level <= y[above], and their outer neighbours (those that exist) reaches
    level: bisected, so it stays inside the bracket."""
    lo = min(below, above)
    nodes = range(max(lo - 1, 0), min(lo + 3, x.size))

    def cubic(t: float) -> float:   # Lagrange form
        return sum(float(y[j]) * math.prod((t - x[m]) / (x[j] - x[m]) for m in nodes if m != j)
                   for j in nodes)

    inside, outside = float(x[below]), float(x[above])
    for _ in range(100):
        mid = 0.5 * (inside + outside)
        if mid in (inside, outside):
            break
        inside, outside = (mid, outside) if cubic(mid) < level else (inside, mid)
    return 0.5 * (inside + outside)


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

def _response(params: SimParams, m_total: complex, freq_grid: np.ndarray):
    """(gamma - i d, D, the mask where D = 0) on the detunings d of freq_grid,
    real or complex, checked to be 1-d and their real parts to cover
    +-_MIN_TRANSFER_SPAN pulse widths.  Where D = 0 it is set to 1 and each
    amplitude fills in its limit (gamma > 0; with gamma = 0 the response
    there is singular and raises)."""
    detuning = np.asarray(freq_grid, dtype=complex if np.iscomplexobj(freq_grid) else float)
    if detuning.ndim != 1 or detuning.size < 2:
        raise ConfigurationError("freq_grid must be a 1-d array of detunings")
    span = _MIN_TRANSFER_SPAN * params.delta
    real = detuning.real
    if real.min() > -span or real.max() < span:
        raise ConfigurationError(
            f"freq_grid must cover +-{_MIN_TRANSFER_SPAN:g} pulse widths "
            f"(+-{span:g}); got [{real.min():g}, {real.max():g}]")
    gmd = params.gamma - 1j * detuning
    d = gmd * gmd
    d -= m_total * m_total
    singular = d == 0.0
    if singular.any():
        if params.gamma == 0.0:
            raise NumericalError(
                "zero-coupling response is singular at zero detuning")
        d = np.where(singular, 1.0, d)
    return gmd, d, singular


def transfer_oracle(params: SimParams, m_total: complex,
                    freq_grid: np.ndarray) -> np.ndarray:
    """Transmission amplitude t(d) on a detuning grid.

    Solves the steady linear response per detuning d = omega - omega0
    (same units as gamma; a complex d + i sigma, sigma > 0, is the response
    to an envelope damped by e^{-sigma tau}, as checks.transfer_round_trip
    evaluates it) and forms the transmitted envelope ratio

        t(d) = 1 - 2 gamma [(gamma - i d) - M cos(k0 l)] / D

    with M = m_total and D = (gamma - i d)^2 - M^2.  For the full coupling
    M = gamma e^{i k0 l} this gives t(0) = 0 identically: the resonant
    component is never transmitted.  The removable 0/0 at D = 0 (gamma > 0)
    is filled with that limit; with gamma = 0 the response at zero detuning
    is genuinely singular.
    """
    gmd, d, singular = _response(params, m_total, freq_grid)
    t_vals = gmd    # worked in place: no grid-length temporaries past gmd and D
    t_vals -= m_total * math.cos(params.k0l)
    t_vals *= 2.0 * params.gamma
    t_vals /= d
    np.subtract(1.0, t_vals, out=t_vals)
    return np.where(singular, 0.0, t_vals) if singular.any() else t_vals

