"""Excitation dynamics of two waveguide-coupled atoms hit by a
one-photon pulse.

In the Markovian regime the excited-state amplitudes obey the coupled
linear system

    dbeta_j/dt = S0_j(t) - gamma * beta_j - M * beta_{j'!=j}

with the incident-photon source S0_j and the inter-atomic coupling M.
Two independent integrators are provided: a fixed-step 4th-order
Runge-Kutta scheme with precomputed propagator matrices, and an exact
mode-decomposition oracle that propagates the symmetric/antisymmetric
combinations u = beta1 + beta2, v = beta1 - beta2 (decay rates
gamma +- M) by per-step exponential convolution.  Their mutual
agreement is the correctness argument for both.

Source alignment: the two source series share one envelope centered on
the retarded time of atom 1 and differ only by the phase e^{i k0 l}.
Mixing per-atom retarded envelopes with an instantaneous coupling would
be inconsistent at the Markovian order, and the flight-time correction
to the envelope is O(delta*l/c), far below everything else kept here.

Units: c = 1, gamma is the rate scale, times in the trajectory are
whatever unit 1/delta and 1/gamma are expressed in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .coupling import CouplingResult, SimParams
from .errors import ConfigurationError, NumericalError

# pulse support: the Gaussian envelope is below 2e-16 of its peak
# beyond 12/delta, so sources are hard-zeroed there
_ENVELOPE_WINDOW = 12.0
# default grid: half-width of the pulse section, decay lengths of the
# post-pulse section, and the hard cap on the total decay span
_PULSE_HALF_SPAN = 8.0
_DECAY_LENGTHS = 12.0
_DECAY_SPAN_CAP = 2000.0
# modes driven more weakly than this (relative) are ignored when sizing
# the grid for the slowest excited decay
_MODE_DRIVE_TOL = 1e-9

_GL6_X, _GL6_W = np.polynomial.legendre.leggauss(6)


# ----------------------------------------------------------------------
# time grid
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid with n points from t_start to t_end inclusive."""

    t_start: float
    t_end: float
    n: int

    def __post_init__(self):
        if not (self.t_end > self.t_start):
            raise ConfigurationError(
                f"empty time grid: [{self.t_start}, {self.t_end}]")
        if self.n < 9:
            raise ConfigurationError(f"time grid needs >= 9 points, got {self.n}")

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / (self.n - 1)

    @property
    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.n)

    @classmethod
    def from_step(cls, t_start: float, t_end: float, dt: float) -> "TimeGrid":
        if dt <= 0:
            raise ConfigurationError(f"dt must be > 0, got {dt}")
        n = max(9, int(math.ceil((t_end - t_start) / dt)) + 1)
        return cls(t_start, t_start + dt * (n - 1), n)


def slowest_excited_rate(params: SimParams, m_total: complex | None = None) -> float:
    """Decay rate of the slowest collective mode the pulse actually drives.

    The symmetric/antisymmetric modes decay at gamma +- Re M and are
    driven proportionally to |1 +- e^{i k0l}|; an undriven mode (phase
    exactly 0 or pi) does not constrain the grid.
    """
    if params.gamma == 0.0:
        return params.delta  # nothing decays; size the grid on the pulse
    m = params.gamma * complex(math.cos(params.k0l), math.sin(params.k0l)) \
        if m_total is None else m_total
    phase = complex(math.cos(params.k0l), math.sin(params.k0l))
    rates = []
    if abs(1.0 + phase) > _MODE_DRIVE_TOL:
        rates.append(params.gamma + m.real)
    if abs(1.0 - phase) > _MODE_DRIVE_TOL:
        rates.append(params.gamma - m.real)
    slow = min(rates)
    return max(slow, params.gamma / _DECAY_SPAN_CAP * _DECAY_LENGTHS)


def default_grid(params: SimParams, span_factor: float = 1.0,
                 dt_factor: float = 1.0,
                 m_total: complex | None = None) -> TimeGrid:
    """Grid resolving both the pulse and the slowest driven decay.

    span_factor scales the post-pulse window (doubling it is the
    standard convergence check); dt_factor scales the step.  The decay
    window is capped at _DECAY_SPAN_CAP/gamma; nearly-dark modes beyond
    that cap are handled downstream by truncation diagnostics, not by
    unbounded grids.
    """
    if span_factor <= 0 or dt_factor <= 0:
        raise ConfigurationError("span_factor and dt_factor must be > 0")
    center = params.z1 / params.c
    rate = slowest_excited_rate(params, m_total)
    tau_decay = _DECAY_LENGTHS / rate
    if params.gamma > 0:
        tau_decay = min(tau_decay, _DECAY_SPAN_CAP / params.gamma)
        dt = min(1.0 / params.delta, 1.0 / params.gamma) / 100.0 * dt_factor
    else:
        dt = 1.0 / params.delta / 100.0 * dt_factor
    t_start = center - _PULSE_HALF_SPAN / params.delta
    t_end = center + _PULSE_HALF_SPAN / params.delta + span_factor * tau_decay
    return TimeGrid.from_step(t_start, t_end, dt)


# ----------------------------------------------------------------------
# incident wavepacket and source term
# ----------------------------------------------------------------------

BARE_PREFACTOR = "bare_prefactor"
UNIT_EXCITATION = "unit_excitation"

# integral of the squared bare-prefactor spectral amplitude:
# (1/(2 pi delta)) * int exp(-2((w-w0)/delta)^2) dw = 1/(2 sqrt(2 pi))
_BARE_NORM_SQ = 1.0 / (2.0 * math.sqrt(2.0 * math.pi))


@dataclass(frozen=True)
class IncidentWavepacket:
    """One right-moving photon with a Gaussian spectrum around omega0.

    The spectral amplitude for k_z > 0 is

        alpha(k) = N * sqrt(c/delta) * sqrt(1/2pi) * exp(-((w-w0)/delta)^2)

    and zero for k_z < 0.  N = 1 keeps the bare prefactor (squared
    norm 1/(2 sqrt(2 pi))); unit_excitation rescales so the state
    carries exactly one excitation.
    """

    delta: float
    omega0: float
    normalization: str = UNIT_EXCITATION
    spectral_span: float = 8.0    # integration half-width, units of delta
    spectral_points: int = 257    # Gauss-Legendre node count

    def __post_init__(self):
        if not (self.delta > 0 and math.isfinite(self.delta)):
            raise ConfigurationError(f"delta must be > 0, got {self.delta}")
        if not (self.omega0 > 0 and math.isfinite(self.omega0)):
            raise ConfigurationError(f"omega0 must be > 0, got {self.omega0}")
        if self.normalization not in (BARE_PREFACTOR, UNIT_EXCITATION):
            raise ConfigurationError(
                f"unknown normalization {self.normalization!r}")
        if self.spectral_span < 6.0:
            raise ConfigurationError(
                f"spectral_span must cover >= 6 bandwidths, got {self.spectral_span}")
        if self.spectral_points < 65:
            raise ConfigurationError(
                f"spectral_points must be >= 65, got {self.spectral_points}")

    @property
    def amplitude_scale(self) -> float:
        """N, the normalization-dependent prefactor."""
        if self.normalization == UNIT_EXCITATION:
            return 1.0 / math.sqrt(_BARE_NORM_SQ)
        return 1.0

    def spectral_amplitude(self, omega: np.ndarray, c: float = 1.0) -> np.ndarray:
        """alpha as a function of omega = c*k_z > 0 (zero elsewhere)."""
        omega = np.asarray(omega, dtype=float)
        amp = (self.amplitude_scale * math.sqrt(c / self.delta)
               * math.sqrt(1.0 / (2.0 * math.pi))
               * np.exp(-(((omega - self.omega0) / self.delta) ** 2)))
        return np.where(omega > 0, amp, 0.0)

    def norm_squared(self, c: float = 1.0) -> float:
        """int |alpha|^2 dk_z on the spectral grid (Gauss-Legendre)."""
        lo = max(self.omega0 - self.spectral_span * self.delta, 0.0)
        hi = self.omega0 + self.spectral_span * self.delta
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        x, w = np.polynomial.legendre.leggauss(self.spectral_points)
        omega = mid + half * x
        vals = self.spectral_amplitude(omega, c) ** 2
        return float(np.sum(w * vals) * half / c)  # dk_z = d omega / c


@dataclass(frozen=True)
class SourceTerm:
    """Per-atom drive series on a uniform grid, plus midpoint samples and
    an evaluation closure for integrators needing off-grid values."""

    grid: TimeGrid
    s1: np.ndarray
    s2: np.ndarray
    s1_mid: np.ndarray
    s2_mid: np.ndarray
    method: str
    _eval: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] = field(repr=False)

    def at(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate both source series at arbitrary times."""
        return self._eval(np.asarray(times, dtype=float))


QUADRATURE = "quadrature"
GAUSSIAN_CLOSED_FORM = "gaussian_closed_form"


def check_alignment(wavepacket: IncidentWavepacket, params: SimParams) -> None:
    """Reject a wavepacket whose carrier or width differs from params."""
    for label, name in (("carrier", "omega0"), ("width", "delta")):
        ours, theirs = getattr(wavepacket, name), getattr(params, name)
        if abs(ours - theirs) > 1e-9 * theirs:
            raise ConfigurationError(f"wavepacket {label} {ours} does not "
                                     f"match params.{name} {theirs}")


def build_source(wavepacket: IncidentWavepacket, params: SimParams,
                 grid: TimeGrid, method: str = GAUSSIAN_CLOSED_FORM) -> SourceTerm:
    """Construct S0_j(t), the one-photon drive seen by each atom.

    gaussian_closed_form evaluates the narrowband analytic result

        S0_1(t) = -i * N * sqrt(gamma*delta)/(2 sqrt(pi))
                  * e^{i k0 z1} * exp(-delta^2 (t - z1/c)^2 / 4)

    quadrature instead integrates the spectral integral with its
    sqrt(omega0/omega) weight on a Gauss-Legendre grid; both set
    S0_2 = e^{i k0 l} S0_1 (shared envelope, see module docstring).
    """
    if method not in (QUADRATURE, GAUSSIAN_CLOSED_FORM):
        raise ConfigurationError(f"unknown source method {method!r}")
    check_alignment(wavepacket, params)
    center = params.z1 / params.c
    need = 6.0 / params.delta
    if grid.t_start > center - need or grid.t_end < center + need:
        raise ConfigurationError(
            f"time grid [{grid.t_start}, {grid.t_end}] must cover "
            f"+-{need} around the pulse center {center}")

    delta = params.delta
    phase1 = complex(math.cos(params.omega0 * params.z1 / params.c),
                     math.sin(params.omega0 * params.z1 / params.c))
    phase21 = complex(math.cos(params.k0l), math.sin(params.k0l))

    if method == GAUSSIAN_CLOSED_FORM:
        amp = (-1j * wavepacket.amplitude_scale
               * math.sqrt(params.gamma * delta) / (2.0 * math.sqrt(math.pi))
               * phase1)

        def eval_s1(times: np.ndarray) -> np.ndarray:
            tau = times - center
            return amp * np.exp(-(delta * tau) ** 2 / 4.0)

    else:
        lo = max(params.omega0 - wavepacket.spectral_span * delta, 0.0)
        hi = params.omega0 + wavepacket.spectral_span * delta
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        x, w = np.polynomial.legendre.leggauss(wavepacket.spectral_points)
        omega = mid + half * x
        alpha = wavepacket.spectral_amplitude(omega, params.c)
        # weights of the spectral sum: -i sqrt(gamma/2pi) sqrt(omega0/omega)
        # alpha(omega) e^{i omega z1/c} d omega / c, evaluated against the
        # detuning phase e^{i(omega0-omega)t}
        wk = (-1j * math.sqrt(params.gamma / (2.0 * math.pi))
              * np.sqrt(params.omega0 / omega) * alpha
              * np.exp(1j * omega * params.z1 / params.c)
              * w * half / params.c)
        detune = params.omega0 - omega

        def eval_s1(times: np.ndarray) -> np.ndarray:
            out = np.zeros(times.shape, dtype=complex)
            inside = np.abs(times - center) <= _ENVELOPE_WINDOW / delta
            if np.any(inside):
                t_in = times[inside]
                # chunked so the (t, omega) outer product stays small
                buf = np.empty(t_in.shape, dtype=complex)
                step = max(1, (1 << 20) // omega.size)
                for i in range(0, t_in.size, step):
                    tb = t_in[i:i + step, None]
                    buf[i:i + step] = np.exp(1j * detune[None, :] * tb) @ wk
                out[inside] = buf
            return out

    def eval_both(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s1 = eval_s1(times)
        return s1, phase21 * s1

    times = grid.times
    s1 = eval_s1(times)
    s1_mid = eval_s1(times[:-1] + 0.5 * grid.dt)
    return SourceTerm(grid=grid, s1=s1, s2=phase21 * s1,
                      s1_mid=s1_mid, s2_mid=phase21 * s1_mid,
                      method=method, _eval=eval_both)


# ----------------------------------------------------------------------
# trajectories
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AmplitudeTrajectory:
    """Excited-state amplitudes on a uniform grid."""

    grid: TimeGrid
    beta1: np.ndarray
    beta2: np.ndarray

    @property
    def populations(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.abs(self.beta1) ** 2, np.abs(self.beta2) ** 2)


def _check_step(source: SourceTerm, params: SimParams, m: complex) -> float:
    dt = source.grid.dt
    scales = [1.0 / params.delta]
    if params.gamma > 0:
        scales.append(1.0 / params.gamma)
    if abs(m) > 0:
        scales.append(1.0 / abs(m))
    limit = min(scales) / 50.0
    if dt > limit * (1.0 + 1e-9):  # tolerate endpoint-division rounding
        raise ConfigurationError(
            f"dt = {dt:.3e} exceeds stability/accuracy limit {limit:.3e} "
            f"(min(1/delta, 1/gamma, 1/|M|)/50)")
    return dt


def _first_bad_time(grid: TimeGrid, *arrays: np.ndarray) -> float | None:
    bad = ~np.isfinite(arrays[0])
    for a in arrays[1:]:
        bad |= ~np.isfinite(a)
    idx = np.flatnonzero(bad)
    if idx.size:
        return float(grid.times[idx[0]])
    return None


def integrate_markovian(source: SourceTerm, coupling: CouplingResult,
                        params: SimParams, grid: TimeGrid | None = None
                        ) -> AmplitudeTrajectory:
    """Fixed-step 4th-order Runge-Kutta integration from beta_j = 0.

    The system matrix A = [[-gamma, -M], [-M, -gamma]] is constant, so
    the stage combinations reduce to one propagator matrix applied to
    the state plus precomputed drive vectors; the remaining per-step
    work is four complex multiplies.
    """
    if grid is None:
        grid = source.grid
    elif grid is not source.grid and (grid.t_start != source.grid.t_start
                                      or grid.t_end != source.grid.t_end
                                      or grid.n != source.grid.n):
        raise ConfigurationError("source was built on a different grid")
    m = complex(coupling.m_total)
    h = _check_step(source, params, m)

    a = np.array([[-params.gamma, -m], [-m, -params.gamma]], dtype=complex)
    a2, a3 = a @ a, a @ a @ a
    eye = np.eye(2)
    prop = eye + h * a + h ** 2 / 2 * a2 + h ** 3 / 6 * a3 + h ** 4 / 24 * (a2 @ a2)
    c0 = eye + h * a + h ** 2 / 2 * a2 + h ** 3 / 4 * a3
    ch = 4 * eye + 2 * h * a + h ** 2 / 2 * a2

    # explicit 2x2 action keeps the atom-swap symmetry bitwise exact
    # (matrix products would re-associate the sums) and skips BLAS overhead
    c0d, c0o = complex(c0[0, 0]), complex(c0[0, 1])
    chd, cho = complex(ch[0, 0]), complex(ch[0, 1])
    s1a, s2a = source.s1[:-1], source.s2[:-1]
    s1b, s2b = source.s1[1:], source.s2[1:]
    drive1 = (h / 6.0) * ((c0d * s1a + c0o * s2a)
                          + (chd * source.s1_mid + cho * source.s2_mid) + s1b)
    drive2 = (h / 6.0) * ((c0o * s1a + c0d * s2a)
                          + (cho * source.s1_mid + chd * source.s2_mid) + s2b)

    p, q = complex(prop[0, 0]), complex(prop[0, 1])
    d1, d2 = drive1.tolist(), drive2.tolist()  # python complex: faster loop
    n = grid.n
    beta1 = np.empty(n, dtype=complex)
    beta2 = np.empty(n, dtype=complex)
    beta1[0] = beta2[0] = 0.0
    b1 = b2 = 0.0 + 0.0j
    for k in range(n - 1):
        b1, b2 = p * b1 + q * b2 + d1[k], q * b1 + p * b2 + d2[k]
        beta1[k + 1] = b1
        beta2[k + 1] = b2

    t_bad = _first_bad_time(grid, beta1, beta2)
    if t_bad is not None:
        raise NumericalError(f"non-finite amplitude at t = {t_bad}")
    return AmplitudeTrajectory(grid=grid, beta1=beta1, beta2=beta2)


def oracle_modes(source: SourceTerm, coupling: CouplingResult,
                 params: SimParams, grid: TimeGrid | None = None
                 ) -> AmplitudeTrajectory:
    """Exact mode-decomposition propagation, discretized independently
    of the Runge-Kutta path.

    u = beta1 + beta2 and v = beta1 - beta2 decouple with rates
    gamma + M and gamma - M; each step advances by the exact exponential
    plus a 6-node Gauss-Legendre convolution of the drive, and the
    resulting one-pole recursion is evaluated with scipy's lfilter.
    """
    from scipy.signal import lfilter

    if grid is None:
        grid = source.grid
    elif (grid.t_start != source.grid.t_start or grid.t_end != source.grid.t_end
          or grid.n != source.grid.n):
        raise ConfigurationError("source was built on a different grid")
    m = complex(coupling.m_total)
    h = _check_step(source, params, m)

    times = grid.times
    # drive samples at Gauss nodes inside every step, one flat call
    tau = 0.5 * h * (_GL6_X + 1.0)                      # (6,) offsets
    t_nodes = times[:-1, None] + tau[None, :]            # (n-1, 6)
    s1_nodes, s2_nodes = source.at(t_nodes.ravel())
    s1_nodes = s1_nodes.reshape(t_nodes.shape)
    s2_nodes = s2_nodes.reshape(t_nodes.shape)

    def propagate(rate: complex, f_nodes: np.ndarray) -> np.ndarray:
        # I_k = int_0^h e^{-rate (h - tau)} f(t_k + tau) d tau
        kernel = np.exp(-rate * (h - tau)) * _GL6_W * (0.5 * h)
        incr = f_nodes @ kernel                          # (n-1,)
        x = np.concatenate(([0.0 + 0.0j], incr))
        return lfilter([1.0], [1.0, -np.exp(-rate * h)], x)

    u = propagate(params.gamma + m, s1_nodes + s2_nodes)
    v = propagate(params.gamma - m, s1_nodes - s2_nodes)
    beta1 = 0.5 * (u + v)
    beta2 = 0.5 * (u - v)

    t_bad = _first_bad_time(grid, beta1, beta2)
    if t_bad is not None:
        raise NumericalError(f"non-finite amplitude at t = {t_bad}")
    return AmplitudeTrajectory(grid=grid, beta1=beta1, beta2=beta2)


# ----------------------------------------------------------------------
# validity reporting
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ValidityReport:
    """Markov-approximation health check: each ratio should be small."""

    ratios: dict[str, float]
    threshold: float
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.warnings


def markov_guard(params: SimParams, threshold: float = 0.05) -> ValidityReport:
    """Ratios that must stay small for the instantaneous-coupling picture:
    gamma/omega0, delta/omega0, and the flight-time ratio l*(gamma+delta)/c."""
    ratios = {
        "gamma_over_omega0": params.gamma / params.omega0,
        "delta_over_omega0": params.delta / params.omega0,
        "retardation": params.l * (params.gamma + params.delta) / params.c,
    }
    warnings = tuple(name for name, value in ratios.items() if value > threshold)
    return ValidityReport(ratios=ratios, threshold=threshold, warnings=warnings)
