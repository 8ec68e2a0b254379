"""Excitation dynamics of two waveguide-coupled atoms hit by a
one-photon pulse.

In the Markovian regime the excited-state amplitudes obey the coupled
linear system

    dbeta_j/dt = S0_j(t) - gamma * beta_j - M * beta_{j'!=j}

with the incident-photon source S0_j and the inter-atomic coupling M.
Both integrators propagate the symmetric/antisymmetric combinations
u = beta1 + beta2 and v = beta1 - beta2, which decouple (decay rates
gamma +- M), each as a one-pole recursion y[k+1] = a*y[k] + x[k]
evaluated by one blocked numpy scan.  They are discretized
independently: a fixed-step 4th-order Runge-Kutta scheme, whose pole
and drive are the RK4 polynomials in h*(rate), and an exact oracle,
whose pole is e^{-rate h} and whose drive is a Gauss-Legendre
convolution of the source sampled between grid points.  Their mutual
agreement is the correctness argument for both.

Source alignment: the two source series share one envelope centered on
the retarded time of atom 1 and differ only by the phase e^{i k0 l}.
Mixing per-atom retarded envelopes with an instantaneous coupling would
be inconsistent at the Markovian order, and the flight-time correction
to the envelope is O(delta*l), far below everything else kept here.

Units: c = 1, gamma is the rate scale, times in the trajectory are
whatever unit 1/delta and 1/gamma are expressed in.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .coupling import CouplingResult, SimParams
from .errors import ConfigurationError, NumericalError

# the source's support: beyond 12/delta of its center the Gaussian source
# (evaluated everywhere) is below e^-36 = 2.3e-16 of its peak
_ENVELOPE_WINDOW = 12.0
# half-width of the pulse section, and pulse widths past it of a gamma = 0 grid
_PULSE_HALF_SPAN = 8.0
_DECAY_LENGTHS = 12.0
# most points a time grid may take: a cell peaks near 200 bytes per grid
# point, so the largest accepted cell stays near 2 GB
POINT_BUDGET = 10_000_000
# a cell is Markov-valid when no ratio of markov_guard exceeds this
MARKOV_LIMIT = 0.2

_GL6_X, _GL6_W = np.polynomial.legendre.leggauss(6)
# one-pole scan blocks: 8 to 512 samples, and short enough that
# |a|^-B <= e^_SCAN_LOG_RANGE
_SCAN_BLOCK_MIN, _SCAN_BLOCK_MAX, _SCAN_LOG_RANGE = 8, 512, 8.0


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
        """Grid of step dt covering [t_start, t_end]; over POINT_BUDGET points
        (or an infinite or NaN count) it raises."""
        if not dt > 0:
            raise ConfigurationError(f"dt must be > 0, got {dt}")
        n = (t_end - t_start) / dt
        n = check_points("the time grid", max(9, math.ceil(n) + 1) if math.isfinite(n) else n,
                         "raise dt_factor")
        return cls(t_start, t_start + dt * (n - 1), n)


def check_points(what: str, n: int | float, remedy: str) -> int:
    """n, or ConfigurationError ending in `remedy`, what shrinks this n, when
    n exceeds POINT_BUDGET or is NaN."""
    if not n <= POINT_BUDGET:
        if n < 1000 * POINT_BUDGET:
            shown = f"{n:,}"
        else:  # orders of magnitude over: no hundreds of digits
            from decimal import Decimal  # formats ints beyond float range
            shown = f"{Decimal(n):.3e}"
        raise ConfigurationError(
            f"{what} needs n = {shown} points, over the budget of {POINT_BUDGET:,} "
            f"points; {remedy}")
    return n


def driven_modes(params: SimParams, m_total: complex) -> dict[int, complex]:
    """{sign: gamma + sign*M}, the rates of the modes beta1 + sign*beta2 whose
    drive 1 + sign*e^{i k0l} is not exactly 0."""
    return {sign: params.gamma + sign * m_total for sign in (1, -1)
            if 1.0 + sign * params.phase != 0}


def tail_modes(params: SimParams, m_total: complex, grid: TimeGrid) -> dict[int, complex]:
    """Every decaying driven mode, if `grid` outlasts (to within a step) the
    source's support, past which each is one exponential."""
    if grid.t_end + grid.dt < _ENVELOPE_WINDOW / params.delta:
        return {}
    return {sign: lam for sign, lam in driven_modes(params, m_total).items() if lam.real > 0}


def default_grid(params: SimParams, span_factor: float = 1.0,
                 dt_factor: float = 1.0,
                 m_total: complex | None = None) -> TimeGrid:
    """Grid of the pulse section and, for gamma > 0, the rest of the source's support,
    past which every decaying mode is a closed-form tail.  span_factor scales the
    post-pulse section (4/delta for gamma > 0, so below 1 the grid ends inside the
    support; 12/delta for gamma = 0); dt_factor scales the step.  m_total is accepted
    and unused: the modes it sets do not move the grid.  Over POINT_BUDGET points it
    raises."""
    if not (0 < span_factor < math.inf and 0 < dt_factor < math.inf):
        raise ConfigurationError("span_factor and dt_factor must be finite and > 0")
    t_end = _PULSE_HALF_SPAN / params.delta
    t_start = -t_end
    if params.gamma > 0:
        t_end += span_factor * ((_ENVELOPE_WINDOW - _PULSE_HALF_SPAN) / params.delta)
        dt = min(1.0 / params.delta, 1.0 / params.gamma) / 100.0 * dt_factor
        return TimeGrid.from_step(t_start, t_end, dt)
    t_end += span_factor * (_DECAY_LENGTHS / params.delta)  # nothing decays: the pulse sizes it
    return TimeGrid.from_step(t_start, t_end, 1.0 / params.delta / 100.0 * dt_factor)


# ----------------------------------------------------------------------
# incident photon and source term
# ----------------------------------------------------------------------

BARE_PREFACTOR = "bare_prefactor"
UNIT_EXCITATION = "unit_excitation"

# integral of the squared bare-prefactor spectral amplitude:
# (1/(2 pi delta)) * int exp(-2((w-w0)/delta)^2) dw = 1/(2 sqrt(2 pi))
_BARE_NORM_SQ = 1.0 / (2.0 * math.sqrt(2.0 * math.pi))


def amplitude_scale(normalization: str) -> float:
    """N of the incident photon's spectral amplitude for k_z > 0,

        alpha(k) = N * sqrt(c/delta) * sqrt(1/2pi) * exp(-((w-w0)/delta)^2)

    (zero for k_z < 0): 1 for bare_prefactor (squared norm
    1/(2 sqrt(2 pi))), and for unit_excitation the N that makes the state
    carry exactly one excitation.  Any other name raises."""
    if normalization == UNIT_EXCITATION:
        return 1.0 / math.sqrt(_BARE_NORM_SQ)
    if normalization == BARE_PREFACTOR:
        return 1.0
    raise ConfigurationError(f"unknown normalization {normalization!r}")


@dataclass(frozen=True)
class SourceTerm:
    """The drive S0_1 of atom 1 on a uniform grid and at its step
    midpoints; atom 2's drive is S0_2 = phase * S0_1 with phase = e^{i k0 l}
    (shared envelope, see module docstring).  S0_1 is the Gaussian
    peak * exp(-delta^2 t^2 / 4), which `at` evaluates off-grid;
    peak carries the photon's amplitude scale N, kept as `scale`."""

    grid: TimeGrid
    s1: np.ndarray
    s1_mid: np.ndarray
    phase: complex
    peak: complex
    delta: float
    scale: float

    def at(self, times: np.ndarray) -> np.ndarray:
        """S0_1 at arbitrary times."""
        return self.peak * np.exp(-(self.delta * np.asarray(times, dtype=float)) ** 2 / 4.0)


def build_source(params: SimParams, grid: TimeGrid,
                 normalization: str = UNIT_EXCITATION) -> SourceTerm:
    """S0_1(t), the one-photon drive of atom 1 (at z = 0, so that tau = t),
    in the narrowband closed form

        S0_1(t) = -i * N * sqrt(gamma*delta)/(2 sqrt(pi)) * exp(-delta^2 t^2 / 4)

    with N = amplitude_scale(normalization) and the phase e^{i k0 l} that
    gives S0_2.
    """
    scale = amplitude_scale(normalization)
    need = 6.0 / params.delta
    if grid.t_start > -need or grid.t_end < need:
        raise ConfigurationError(
            f"time grid [{grid.t_start}, {grid.t_end}] must cover "
            f"+-{need} around the pulse center 0")
    peak = -1j * scale * math.sqrt(params.gamma * params.delta) / (2.0 * math.sqrt(math.pi))
    # the closed form first, then its samples
    source = SourceTerm(grid, None, None, params.phase, peak, params.delta, scale)
    times = grid.times
    return replace(source, s1=source.at(times), s1_mid=source.at(times[:-1] + 0.5 * grid.dt))


# ----------------------------------------------------------------------
# trajectories
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AmplitudeTrajectory:
    """Excited-state amplitudes on a uniform grid, and the coupling M and the
    photon's amplitude scale N (unit excitation unless given) behind them."""

    grid: TimeGrid
    beta1: np.ndarray
    beta2: np.ndarray
    m_total: complex | None = None
    scale: float = amplitude_scale(UNIT_EXCITATION)


def step_limit(params: SimParams, m_total: complex) -> float:
    """The largest step the integrators take, min(1/delta, 1/gamma, 1/|M|)/50
    with 1e-9 relative slack for endpoint-division rounding."""
    return 1.0 / max(params.delta, params.gamma, abs(m_total)) / 50.0 * (1.0 + 1e-9)


def _coupling_and_step(source: SourceTerm, coupling: CouplingResult,
                       params: SimParams) -> tuple[complex, float]:
    """(M, h) of an integration on the source's grid, h checked by step_limit."""
    m, h = complex(coupling.m_total), source.grid.dt
    if h > (limit := step_limit(params, m)):
        raise ConfigurationError(
            f"dt = {h:.3e} exceeds stability/accuracy limit {limit:.3e} "
            f"(min(1/delta, 1/gamma, 1/|M|)/50)")
    return m, h


def _one_pole(log_a: complex, x: np.ndarray) -> np.ndarray:
    """y with y[0] = 0 and y[k+1] = a*y[k] + x[k] for every k < x.size,
    a = e^log_a: the pole comes as its logarithm, so that a pole next to
    1 keeps its full precision in every power a^j.

    Blocked closed-form scan: the state entering each block of B samples
    is carried by a scalar recursion in a^B over the n/B blocks and
    folded into the block's first input; the block is then
    cumsum(x a^-j) a^j.  B = floor(8/|ln|a||), clamped to [8, 512], keeps
    |a|^-B <= e^8, which bounds the cancellation in the cumsum.  A
    non-finite x[k] first shows in y[k+1].
    """
    log_mag = abs(log_a.real)
    block = _SCAN_BLOCK_MAX
    if log_mag * block > _SCAN_LOG_RANGE:
        block = max(_SCAN_BLOCK_MIN, int(_SCAN_LOG_RANGE / log_mag))
    n = x.size
    n_blocks = -(-n // block)
    y = np.zeros(n_blocks * block + 1, dtype=complex)
    y[1:n + 1] = x
    blocks = y[1:].reshape(n_blocks, block)
    j = np.arange(block)
    blocks *= np.exp(-log_a * j)
    # zero-start block-end states, then the states carried into each block
    ends = (blocks.sum(axis=1) * cmath.exp(log_a * (block - 1))).tolist()
    a_block = cmath.exp(log_a * block)
    carried = [0j]
    for end in ends[:-1]:
        carried.append(a_block * carried[-1] + end)
    blocks[:, 0] += cmath.exp(log_a) * np.array(carried)
    np.cumsum(blocks, axis=1, out=blocks)
    blocks *= np.exp(log_a * j)
    return y[:n + 1]


def _from_modes(source: SourceTerm, m: complex, u: np.ndarray, v: np.ndarray
                ) -> AmplitudeTrajectory:
    """beta1 = (u + v)/2 and beta2 = (u - v)/2 (u is overwritten) on the
    source's grid and with its scale; a non-finite amplitude raises
    NumericalError naming its first time."""
    beta1 = u + v
    beta1 *= 0.5
    beta2 = np.subtract(u, v, out=u)
    beta2 *= 0.5
    bad = np.flatnonzero(~(np.isfinite(beta1) & np.isfinite(beta2)))
    if bad.size:
        raise NumericalError(f"non-finite amplitude at t = {float(source.grid.times[bad[0]])}")
    return AmplitudeTrajectory(grid=source.grid, beta1=beta1, beta2=beta2, m_total=m,
                               scale=source.scale)


def integrate_markovian(source: SourceTerm, coupling: CouplingResult,
                        params: SimParams) -> AmplitudeTrajectory:
    """Fixed-step 4th-order Runge-Kutta integration from beta_j = 0.

    The system matrix A = [[-gamma, -M], [-M, -gamma]] is constant, and
    the RK4 propagator and drive matrices are polynomials in A, so they
    are diagonal in the modes u = beta1 + beta2 (eigenvalue -(gamma+M))
    and v = beta1 - beta2 (-(gamma-M)): with z = h*eigenvalue, each mode
    is one one-pole recursion with the pole 1 + z + z^2/2 + z^3/6 + z^4/24.
    Swapping the atoms negates v exactly, so the atom-swap symmetry is
    bitwise.
    """
    m, h = _coupling_and_step(source, coupling, params)

    def mode(lam: complex, combine: np.ufunc) -> np.ndarray:
        z = h * lam
        w = z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24  # pole - 1
        # ln|1 + w| and arg(1 + w) without rounding 1 + w itself
        log_pole = complex(0.5 * math.log1p(w.real * (2 + w.real) + w.imag ** 2),
                           math.atan2(w.imag, 1 + w.real))
        f = combine(source.s1, source.phase * source.s1)
        drive = (1 + z + z ** 2 / 2 + z ** 3 / 4) * f[:-1]
        f_mid = combine(source.s1_mid, source.phase * source.s1_mid)
        f_mid *= 4 + 2 * z + z ** 2 / 2
        drive += f_mid
        drive += f[1:]
        drive *= h / 6.0
        return _one_pole(log_pole, drive)

    return _from_modes(source, m, mode(-(params.gamma + m), np.add),
                       mode(-(params.gamma - m), np.subtract))


def oracle_modes(source: SourceTerm, coupling: CouplingResult,
                 params: SimParams) -> AmplitudeTrajectory:
    """Exact mode-decomposition propagation, discretized independently
    of the Runge-Kutta path.

    u = beta1 + beta2 and v = beta1 - beta2 decouple with rates
    gamma + M and gamma - M; each step advances by the exact exponential
    e^{-rate h} plus a 6-node Gauss-Legendre convolution of the drive,
    sampled off-grid through SourceTerm.at.  Only the evaluation of the
    resulting one-pole recursion is shared with integrate_markovian; its
    pole and drive are not the RK4 polynomials.
    """
    m, h = _coupling_and_step(source, coupling, params)

    times = source.grid.times[:-1]
    tau = 0.5 * h * (_GL6_X + 1.0)                      # (6,) node offsets
    rate_u, rate_v = params.gamma + m, params.gamma - m
    # I_k = int_0^h e^{-rate (h - tau)} f(t_k + tau) d tau, contracted from
    # the node samples of 2^14 steps at a time straight into each mode's drive
    kernel_u, kernel_v = (np.exp(-rate * (h - tau)) * _GL6_W * (0.5 * h)
                          for rate in (rate_u, rate_v))
    drive_u, drive_v = np.empty(times.size, complex), np.empty(times.size, complex)
    for lo in range(0, times.size, 1 << 14):
        t_nodes = times[lo:lo + (1 << 14), None] + tau[None, :]
        s1_nodes = source.at(t_nodes.ravel()).reshape(t_nodes.shape)
        s2_nodes = source.phase * s1_nodes
        np.matmul(s1_nodes + s2_nodes, kernel_u, out=drive_u[lo:lo + len(t_nodes)])
        np.matmul(s1_nodes - s2_nodes, kernel_v, out=drive_v[lo:lo + len(t_nodes)])
    u = _one_pole(-rate_u * h, drive_u)
    del times, drive_u
    return _from_modes(source, m, u, _one_pole(-rate_v * h, drive_v))


# ----------------------------------------------------------------------
# Markov validity
# ----------------------------------------------------------------------

def markov_guard(params: SimParams) -> dict[str, float]:
    """Ratios that must stay small for the instantaneous-coupling picture:
    gamma/omega0, delta/omega0, and the flight-time ratio l*(gamma+delta).
    A cell is Markov-valid when the largest is <= MARKOV_LIMIT."""
    return {
        "gamma_over_omega0": params.gamma / params.omega0,
        "delta_over_omega0": params.delta / params.omega0,
        "retardation": params.l * (params.gamma + params.delta),
    }
