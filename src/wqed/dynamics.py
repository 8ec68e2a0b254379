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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .coupling import CouplingResult, SimParams
from .errors import ConfigurationError, NumericalError

# the source's support: beyond 12/delta of its center the Gaussian source
# (evaluated everywhere) is below e^-36 = 2.3e-16 of its peak
_ENVELOPE_WINDOW = 12.0
# half-width of the pulse section
_PULSE_HALF_SPAN = 8.0
# most points a time grid may take: a cell peaks near 200 bytes per grid
# point, so the largest accepted cell stays near 2 GB
POINT_BUDGET = 10_000_000
# a cell is Markov-valid when no ratio of markov_guard exceeds this
MARKOV_LIMIT = 0.2

# the 6-node Gauss-Legendre rule on [-1, 1] from its nodes +-x_i and weights w_i,
# bitwise numpy's leggauss(6), which would run a LAPACK eigensolver at import
_GL6_X = np.array([0.2386191860831969, 0.6612093864662645, 0.9324695142031519])
_GL6_W = np.array([0.46791393457269104, 0.3607615730481387, 0.17132449237917027])
_GL6_X, _GL6_W = np.r_[-_GL6_X[::-1], _GL6_X], np.r_[_GL6_W[::-1], _GL6_W]
# steps per block of oracle_modes' real Gauss-node drive: its temporaries
# stay near 0.6 MB, whatever the grid's length
ORACLE_BLOCK = 1 << 12
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
    """Grid of the pulse section and the rest of the source's support, past
    which every decaying mode is a closed-form tail.  span_factor scales the
    post-pulse section (4/delta, so below 1 the grid ends inside the support);
    dt_factor scales the step 1/(100 r), r = max(delta, gamma, |m_total|), so that
    up to dt_factor 2 no step exceeds step_limit; |m_total| counts only 1e-9 relative
    above the rest (full coupling's is gamma to rounding).  Over POINT_BUDGET it raises."""
    if not (0 < span_factor < math.inf and 0 < dt_factor < math.inf):
        raise ConfigurationError("span_factor and dt_factor must be finite and > 0")
    t_end = _PULSE_HALF_SPAN / params.delta
    t_start = -t_end
    t_end += span_factor * ((_ENVELOPE_WINDOW - _PULSE_HALF_SPAN) / params.delta)
    rate = max(params.delta, params.gamma)
    if m_total is not None and abs(m_total) > rate * (1.0 + 1e-9):
        rate = abs(m_total)
    dt = 1.0 / rate / 100.0 * dt_factor
    return TimeGrid.from_step(t_start, t_end, dt)


# ----------------------------------------------------------------------
# incident photon and source term
# ----------------------------------------------------------------------

# N of the incident photon's spectral amplitude for k_z > 0,
#     alpha(k) = N * sqrt(c/delta) * sqrt(1/2pi) * exp(-((w-w0)/delta)^2)
# (zero for k_z < 0): the N that makes the state carry exactly one excitation,
# since N = 1 gives the squared norm 1/(2 sqrt(2 pi))
PHOTON_SCALE = 1.0 / math.sqrt(1.0 / (2.0 * math.sqrt(2.0 * math.pi)))


class SourceTerm(NamedTuple):
    """The drive S0_1 of atom 1 on a uniform grid and at its step
    midpoints; atom 2's drive is S0_2 = phase * S0_1 with phase = e^{i k0 l}
    (shared envelope, see module docstring).  S0_1 is the Gaussian
    peak * exp(-delta^2 t^2 / 4), which `at` evaluates off-grid."""

    grid: TimeGrid
    s1: np.ndarray
    s1_mid: np.ndarray
    phase: complex
    peak: complex
    delta: float

    def envelope(self, times: np.ndarray) -> np.ndarray:
        """The real Gaussian exp(-delta^2 t^2 / 4) that S0_1 is peak times."""
        return np.exp(-(self.delta * np.asarray(times, dtype=float)) ** 2 / 4.0)

    def at(self, times: np.ndarray) -> np.ndarray:
        """S0_1 at arbitrary times."""
        return self.peak * self.envelope(times)


def build_source(params: SimParams, grid: TimeGrid) -> SourceTerm:
    """S0_1(t), the one-photon drive of atom 1 (at z = 0, so that tau = t),
    in the narrowband closed form

        S0_1(t) = -i * N * sqrt(gamma*delta)/(2 sqrt(pi)) * exp(-delta^2 t^2 / 4)

    with N = PHOTON_SCALE and the phase e^{i k0 l} that gives S0_2.
    """
    need = 6.0 / params.delta
    if grid.t_start > -need or grid.t_end < need:
        raise ConfigurationError(
            f"time grid [{grid.t_start}, {grid.t_end}] must cover "
            f"+-{need} around the pulse center 0")
    peak = -1j * PHOTON_SCALE * math.sqrt(params.gamma * params.delta) / (2.0 * math.sqrt(math.pi))
    # the closed form first, then its samples
    source = SourceTerm(grid, None, None, params.phase, peak, params.delta)
    times = grid.times
    return source._replace(s1=source.at(times), s1_mid=source.at(times[:-1] + 0.5 * grid.dt))


# ----------------------------------------------------------------------
# trajectories
# ----------------------------------------------------------------------

class AmplitudeTrajectory(NamedTuple):
    """Excited-state amplitudes on a uniform grid, and the coupling M behind them."""

    grid: TimeGrid
    beta1: np.ndarray
    beta2: np.ndarray
    m_total: complex | None = None


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
    source's grid; a non-finite amplitude raises NumericalError naming its
    first time."""
    beta1 = u + v
    beta1 *= 0.5
    beta2 = np.subtract(u, v, out=u)
    beta2 *= 0.5
    bad = np.flatnonzero(~(np.isfinite(beta1) & np.isfinite(beta2)))
    if bad.size:
        raise NumericalError(f"non-finite amplitude at t = {float(source.grid.times[bad[0]])}")
    return AmplitudeTrajectory(grid=source.grid, beta1=beta1, beta2=beta2, m_total=m)


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
    sampled off-grid through SourceTerm.envelope.  Only the evaluation of the
    resulting one-pole recursion is shared with integrate_markovian; its
    pole and drive are not the RK4 polynomials.
    """
    m, h = _coupling_and_step(source, coupling, params)

    times = source.grid.times[:-1]
    tau = 0.5 * h * (_GL6_X + 1.0)                      # (6,) node offsets
    rate_u, rate_v = params.gamma + m, params.gamma - m
    # I_k = int_0^h e^{-rate (h - tau)} f(t_k + tau) d tau, with f = S0_1 +- S0_2
    # = peak (1 +- phase) g and g the real Gaussian: each mode's kernel takes
    # its factor, and one block of g's node samples, ORACLE_BLOCK steps at a
    # time, is contracted straight into both drives; einsum, not BLAS, so
    # each row's sum is the same in any block
    kernel_u, kernel_v = (np.exp(-rate * (h - tau)) * _GL6_W * (0.5 * h) * (source.peak * f)
                          for rate, f in ((rate_u, 1.0 + source.phase),
                                          (rate_v, 1.0 - source.phase)))
    drive_u, drive_v = np.empty(times.size, complex), np.empty(times.size, complex)
    for lo in range(0, times.size, ORACLE_BLOCK):
        nodes = source.envelope(times[lo:lo + ORACLE_BLOCK, None] + tau)
        hi = lo + len(nodes)
        np.einsum("kj,j->k", nodes, kernel_u, out=drive_u[lo:hi])
        np.einsum("kj,j->k", nodes, kernel_v, out=drive_v[lo:hi])
    del times
    u = _one_pole(-rate_u * h, drive_u)
    del drive_u
    v = _one_pole(-rate_v * h, drive_v)
    del drive_v
    return _from_modes(source, m, u, v)


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
