"""Inter-atomic coupling constant M for two atoms in a 1-d waveguide.

The coupling mediated by the guided photon continuum splits into four
quantum-path contributions M1..M4.  Keeping both rotating and
counter-rotating pathways the total is finite and exactly

    M = gamma * exp(i * k0l),

while the individual parts carry an infrared-divergent imaginary piece
that only cancels in the sums M1+M2 and M3+M4.  Single parts are
therefore reported against a documented reference infrared frequency

    eps_ref = EPS_REF_RATIO * omega0

which standardises the otherwise arbitrary constant; any shared shift
of that constant leaves the totals unchanged.

Four models are implemented:

    full          all four paths, cutoff-free total gamma*e^{i k0l}
    rwa-cutoff    rotating-wave only (M1+M3) at a user-supplied infrared
                  cutoff; imaginary part grows like -(gamma/pi) ln(eps)
    rwa-constg    rotating-wave with frequency-independent coupling
                  strength; finite but wrong shift except k0l >> 1
    rwa-negfreq   rotating-wave with the frequency integral extended to
                  -inf; reproduces the exact total

plus a principal-value quadrature oracle that evaluates the defining
frequency integrals directly, in one pass over an oscillation-aware panel
grid, taking the pole by subtraction on a symmetric window around it.
The oracle shares no code with the closed forms; agreement is the
correctness argument for both.

compare_couplings tabulates the coupling under each requested model
against the exact closed form, with absolute deviations and divergence
flags, for side-by-side comparison of the approximations.

Units: c = 1 and gamma sets the rate scale throughout.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, DomainError, NumericalError
from .specfun import ci, si

# ----------------------------------------------------------------------
# constants
# ----------------------------------------------------------------------

# Reference infrared frequency for single-part values, as a fraction of
# omega0.  Parts 1..4 are quoted with their divergent constant evaluated
# here; pairwise sums and the total do not depend on it.
EPS_REF_RATIO = 1e-8

# |Ci(eps*l)| beyond which an rwa-cutoff evaluation is flagged as
# running into the infrared divergence.
DEFAULT_CI_DIVERGENCE_THRESHOLD = 1.0

# bound, in units of gamma, on the analytic tail's error in each coupling_oracle part
ORACLE_TAIL_TOL = 1e-14

# carrier-to-rate ratio omega0/gamma unless one is given
DEFAULT_OMEGA0_OVER_GAMMA = 1e4

# the 16-node Gauss-Legendre rule on [-1, 1] from its nodes +-x_i and weights w_i,
# bitwise numpy's leggauss(16), which would run a LAPACK eigensolver at import
_GL_X = np.array([0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
                  0.6178762444026438, 0.755404408355003, 0.8656312023878318,
                  0.9445750230732326, 0.9894009349916499])
_GL_W = np.array([0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
                  0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
                  0.062253523938647456, 0.027152459411754176])
_GL_X, _GL_W = np.r_[-_GL_X[::-1], _GL_X], np.r_[_GL_W[::-1], _GL_W]
# panels per vectorised block of _gl_panels, bounding its temporaries near 1 MB
_GL_CHUNK = 1 << 10


# ----------------------------------------------------------------------
# parameter containers
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SimParams:
    """Physical configuration of the two-atom waveguide problem, in the
    frame with atom 1 at z = 0, atom 2 at z = l and c = 1.

    gamma may be zero (atoms decoupled from the line) so that field
    reconstruction can be exercised in the free-propagation limit; all
    coupling models then return 0.
    """

    gamma: float              # single-atom emission rate into the line
    delta: float              # incident wavepacket spectral bandwidth
    omega0: float             # atomic transition frequency
    l: float                  # interatomic distance
    k0l: float = field(init=False)
    phase: complex = field(init=False)  # e^{i k0 l}

    def __post_init__(self):
        if not (self.gamma >= 0 and math.isfinite(self.gamma)):
            raise ConfigurationError(f"gamma must be finite and >= 0, got {self.gamma}")
        if not (self.delta > 0 and math.isfinite(self.delta)):
            raise ConfigurationError(f"delta must be finite and > 0, got {self.delta}")
        if not (self.omega0 > 0 and math.isfinite(self.omega0)):
            raise ConfigurationError(f"omega0 must be finite and > 0, got {self.omega0}")
        if not (self.l >= 0 and math.isfinite(self.l)):
            raise ConfigurationError(f"l must be finite and >= 0, got {self.l}")
        object.__setattr__(self, "k0l", self.omega0 * self.l)
        object.__setattr__(self, "phase", complex(math.cos(self.k0l), math.sin(self.k0l)))

    @classmethod
    def from_ratios(cls, gamma_over_delta: float, k0l: float,
                    omega0_over_gamma: float = DEFAULT_OMEGA0_OVER_GAMMA,
                    gamma: float = 1.0) -> "SimParams":
        """Build from the three dimensionless numbers that fix the physics."""
        if gamma_over_delta <= 0:
            raise ConfigurationError(
                f"gamma_over_delta must be > 0, got {gamma_over_delta}")
        if k0l < 0:
            raise ConfigurationError(f"k0l must be >= 0, got {k0l}")
        if omega0_over_gamma <= 0:
            raise ConfigurationError(
                f"omega0_over_gamma must be > 0, got {omega0_over_gamma}")
        omega0 = omega0_over_gamma * gamma
        return cls(gamma=gamma, delta=gamma / gamma_over_delta, omega0=omega0,
                   l=k0l / omega0)


@dataclass(frozen=True)
class CouplingModel:
    """Which set of photon pathways (and which regularisation) to use."""

    variant: str                  # one of VARIANTS
    epsilon: float | None = None  # infrared cutoff, rwa-cutoff only

    VARIANTS = ("full", "rwa-cutoff", "rwa-constg", "rwa-negfreq")

    def __post_init__(self):
        if self.variant not in self.VARIANTS:
            raise ConfigurationError(
                f"unknown coupling model {self.variant!r}; expected one of {self.VARIANTS}")
        if self.variant == "rwa-cutoff":
            if self.epsilon is None or not 0 < self.epsilon < math.inf:
                raise DomainError(
                    f"rwa-cutoff requires a finite infrared cutoff epsilon > 0, got {self.epsilon}")
        elif self.epsilon is not None:
            raise ConfigurationError(
                f"epsilon is only meaningful for rwa-cutoff, got model {self.variant!r}")

    @property
    def label(self) -> str:
        """The model's one name: its variant, then `:EPS` for rwa-cutoff."""
        return self.variant if self.epsilon is None else f"{self.variant}:{self.epsilon:.17g}"

    @classmethod
    def full(cls) -> "CouplingModel":
        return cls("full")

    @classmethod
    def rwa_cutoff(cls, epsilon: float) -> "CouplingModel":
        return cls("rwa-cutoff", epsilon=epsilon)

    @classmethod
    def rwa_const_g(cls) -> "CouplingModel":
        return cls("rwa-constg")

    @classmethod
    def rwa_negfreq(cls) -> "CouplingModel":
        return cls("rwa-negfreq")


class CouplingResult(NamedTuple):
    """Coupling constant and its path decomposition."""

    m_total: complex
    m_parts: tuple[complex, ...] = ()   # (M1, M2, M3, M4) for full, () otherwise
    diverged: bool = False


# ----------------------------------------------------------------------
# closed forms
# ----------------------------------------------------------------------

def _coupling_parts(gamma: float, x: float, g_const: complex | None = None
                    ) -> tuple[complex, complex, complex, complex]:
    """The four path contributions at phase x = k0*l >= 0.

    g_const is the shared (imaginary) constant inside the infrared
    regularisers G+- = +-pi/2 + g_const.  None selects the reference
    convention i*Ci(EPS_REF_RATIO * x); the sum M1+..+M4 is independent
    of it, which tests verify by perturbing it.
    """
    if x < 0:
        raise DomainError(f"k0l must be >= 0, got {x}")
    if x < 1e-300:
        # joint x -> 0 limit of the parts with the reference convention:
        # the Ci divergences of the closed forms and of G+- cancel,
        # leaving ln(omega0/eps_ref) = -ln(EPS_REF_RATIO)
        if g_const is not None:
            raise DomainError("custom g_const has no x -> 0 limit; use x > 0")
        log_ratio = -math.log(EPS_REF_RATIO)
        m_rwa = 0.5 * gamma + 1j * gamma / (2 * math.pi) * log_ratio
        m_nonrwa = -1j * gamma / (2 * math.pi) * log_ratio
        return (m_rwa, m_nonrwa, m_rwa, m_nonrwa)

    s = si(x)
    c_ = ci(x)
    if g_const is None:
        g_const = 1j * ci(EPS_REF_RATIO * x)
    gp = math.pi / 2 + g_const
    gm = -math.pi / 2 + g_const
    e = cmath.exp(1j * x)
    ec = e.conjugate()
    pre = gamma / (2 * math.pi)

    m1 = 0.5 * gamma * e + pre * (e * (s + math.pi / 2 + 1j * c_) - gp)
    m2 = pre * (ec * (s - math.pi / 2 - 1j * c_) + gp)
    m3 = 0.5 * gamma * ec + pre * (-ec * (s + math.pi / 2 - 1j * c_) - gm)
    m4 = pre * (-e * (s - math.pi / 2 + 1j * c_) + gm)
    return (m1, m2, m3, m4)


def coupling_full(params: SimParams) -> CouplingResult:
    """Full coupling: all four photon pathways, no cutoff needed.

    The total must land on gamma*e^{i k0l} to machine precision; that
    identity is asserted here rather than trusted.
    """
    parts = _coupling_parts(params.gamma, params.k0l)
    total = sum(parts)
    expected = params.gamma * cmath.exp(1j * params.k0l)
    if params.gamma > 0 and abs(total - expected) > 1e-12 * params.gamma:
        raise NumericalError(
            f"path sum {total} deviates from gamma*e^(i k0l) = {expected}")
    return CouplingResult(m_total=total, m_parts=parts)


def coupling_rwa_cutoff(params: SimParams, epsilon: float) -> CouplingResult:
    """Rotating-wave coupling M1+M3 regularised at infrared frequency epsilon.

    Only the real part gamma*cos(k0l) is trustworthy; the imaginary part
    retains -(gamma/pi)*Ci(epsilon*l) and diverges logarithmically as
    epsilon -> 0.  The result is flagged diverged once |Ci(epsilon*l)|
    exceeds DEFAULT_CI_DIVERGENCE_THRESHOLD.
    """
    if not (epsilon > 0) or not math.isfinite(epsilon):
        raise DomainError(f"epsilon must be finite and > 0, got {epsilon}")
    g = params.gamma
    x = params.k0l
    if x < 1e-300:
        # x -> 0 with fixed epsilon: Ci(x) - Ci(eps*l) -> ln(omega0/epsilon)
        m = complex(g, g / math.pi * math.log(params.omega0 / epsilon))
        ci_cut = math.inf
    else:
        ci_cut = ci(epsilon * params.l)
        m = g * math.cos(x) + 1j * (g / math.pi) * (
            math.sin(x) * (si(x) + math.pi / 2)
            + math.cos(x) * ci(x) - ci_cut)
    return CouplingResult(m_total=m,
                          diverged=abs(ci_cut) > DEFAULT_CI_DIVERGENCE_THRESHOLD)


def coupling_rwa_const_g(params: SimParams) -> CouplingResult:
    """Rotating-wave coupling with the frequency dependence of the
    atom-line coupling strength frozen at omega0.

    Finite without any cutoff, but the shift is wrong unless k0l >> 1.
    """
    g = params.gamma
    x = params.k0l
    if x < 1e-300:
        raise DomainError(
            "rwa-constg is singular at k0l = 0 (Ci divergence is not cancelled)")
    m = g * math.cos(x) + 1j * (g / math.pi) * (
        math.sin(x) * (si(x) + math.pi / 2) + math.cos(x) * ci(x))
    return CouplingResult(m_total=m)


def coupling_rwa_negfreq(params: SimParams) -> CouplingResult:
    """Rotating-wave coupling with the frequency integral extended over
    the whole real line; coincides with the full result exactly."""
    m = params.gamma * cmath.exp(1j * params.k0l)
    return CouplingResult(m_total=m)


def evaluate_coupling(params: SimParams, model: CouplingModel) -> CouplingResult:
    """Dispatch on the model variant."""
    if model.variant == "full":
        return coupling_full(params)
    if model.variant == "rwa-cutoff":
        return coupling_rwa_cutoff(params, model.epsilon)
    if model.variant == "rwa-constg":
        return coupling_rwa_const_g(params)
    return coupling_rwa_negfreq(params)


# ----------------------------------------------------------------------
# coupling-model comparison table
# ----------------------------------------------------------------------

class CouplingRow(NamedTuple):
    """One (k0l, model) cell of the comparison table."""

    k0l: float
    model: CouplingModel
    m_total: complex
    abs_dev_from_full: float
    diverged: bool


def compare_couplings(k0l_values, models, *,
                      omega0_over_gamma: float = DEFAULT_OMEGA0_OVER_GAMMA
                      ) -> tuple[CouplingRow, ...]:
    """Coupling constant under each model vs the exact closed form.

    Rows are ordered k0l-major, models in the given order within each
    k0l.  Cutoff-regularized models carry their epsilon inside the
    CouplingModel, so a grid over epsilon is expressed as several
    rwa-cutoff models.
    """
    k0l_values = tuple(float(v) for v in k0l_values)
    models = tuple(models)
    if not k0l_values:
        raise ConfigurationError("need at least one k0l value")
    if not models:
        raise ConfigurationError("need at least one coupling model")
    rows = []
    for k0l in k0l_values:
        params = SimParams.from_ratios(1.0, k0l, omega0_over_gamma)
        exact = coupling_full(params).m_total
        for model in models:
            result: CouplingResult = evaluate_coupling(params, model)
            rows.append(CouplingRow(
                k0l=k0l, model=model, m_total=result.m_total,
                abs_dev_from_full=abs(result.m_total - exact),
                diverged=result.diverged))
    return tuple(rows)


# ----------------------------------------------------------------------
# principal-value quadrature oracle
# ----------------------------------------------------------------------

def _gl_panels(f, edges: np.ndarray, phase: float) -> complex:
    """Sum of integral f(u)*exp(i*phase*u) over consecutive panels, _GL_CHUNK
    panels at a time."""
    starts, ends = edges[:-1], edges[1:]
    total = 0.0 + 0.0j
    for i in range(0, starts.size, _GL_CHUNK):
        mid = 0.5 * (starts[i:i + _GL_CHUNK] + ends[i:i + _GL_CHUNK])
        half = 0.5 * (ends[i:i + _GL_CHUNK] - starts[i:i + _GL_CHUNK])
        u = mid[:, None] + half[:, None] * _GL_X[None, :]
        vals = np.empty(u.shape, dtype=complex)
        arg = phase * u
        np.cos(arg, out=vals.real)
        np.sin(arg, out=vals.imag)
        vals *= f(u)
        vals *= _GL_W
        total += complex(np.sum(vals.sum(axis=1) * half))
    return total


def _subdivide(edges: list[float], wmax: float) -> np.ndarray:
    """Split any panel wider than wmax into equal pieces."""
    edges = np.asarray(edges, dtype=float)
    width = np.diff(edges)
    pieces = np.maximum(1.0, np.ceil(width / wmax))
    counts = pieces.astype(np.intp)
    # piece k of n of panel (a, b) ends at a + (b - a) * k / n, k = 1..n
    ends = np.arange(1, counts.sum() + 1, dtype=float)
    ends -= np.repeat(np.cumsum(counts) - counts, counts)
    ends *= np.repeat(width, counts)
    ends /= np.repeat(pieces, counts)
    ends += np.repeat(edges[:-1], counts)
    return np.concatenate((edges[:1], ends))


def _tail_start(a: float) -> float:
    """Default tail start U = omega_max/omega0 at phase a.  Past the three
    integration-by-parts terms the tail's remainder is at most
    2|g'''(U)|/a^4 <= 48/(a^4 (U-1)^5); times gamma/(2 pi), this U keeps it
    at most ORACLE_TAIL_TOL * gamma.  Without oscillation the tail is exact."""
    if a == 0.0:
        return 100.0
    return max(100.0, 1.0 + (24.0 / (math.pi * ORACLE_TAIL_TOL * a ** 4)) ** 0.2)


def coupling_oracle(params: SimParams, part_index: int,
                    omega_max: float | None = None) -> complex:
    """Evaluate one path contribution M_i straight from its defining
    frequency integral, independently of the closed forms.

    In units u = omega/omega0 the integral is int_0^inf e^{iau} g(u) du with
    g(u) = 1/u - 1/(u + c): c = -1 puts a principal-value pole at u = 1
    (parts 1, 3), c = +1 has none (parts 2, 4), and a = -k0l for parts 3, 4.
    On the symmetric window [1/2, 3/2] the PV of e^{ia}/(1-u) is 0, so the
    pole is subtracted there and the window's integrand is smooth.  The
    regular piece is integrated from 0 and the 1/u piece from the reference
    infrared frequency.  That cut keeps a term the closed forms drop: part
    k less coupling_full's part k is (+, -, -, +) gamma Si(EPS_REF_RATIO
    k0l)/(2 pi), which cancels in the pairwise sums (1+2, 3+4), and so in
    the total; those are convention-free.  Past omega_max three
    integration-by-parts terms stand for the tail; by default omega_max is
    the start at which their remainder bound falls to ORACLE_TAIL_TOL *
    gamma (_tail_start).
    """
    if part_index not in (1, 2, 3, 4):
        raise ConfigurationError(f"part_index must be 1..4, got {part_index}")
    if omega_max is None:
        omega_max = _tail_start(params.k0l) * params.omega0
    if omega_max < 100 * params.omega0:
        raise ConfigurationError(
            f"omega_max must be >= 100*omega0 for a usable tail, got {omega_max}")

    pole = part_index in (1, 3)
    c = -1.0 if pole else 1.0
    a = params.k0l if part_index in (1, 2) else -params.k0l  # parts 3, 4 carry e^{-i omega l}
    big_u = omega_max / params.omega0

    def g(u):
        return 1.0 / u - 1.0 / (u + c)

    def window(u):
        # e^{iau} g(u) - e^{ia}/(1-u) = e^{iau} [1/u + (1 - e^{-iav})/(1-u)], v = u - 1,
        # with 1 - e^{-iav} written 2 sin^2(av/2) + i sin(av) so that nothing cancels
        av = a * (u - 1.0)
        return 1.0 / u + (2.0 * np.sin(0.5 * av) ** 2 + 1j * np.sin(av)) / (1.0 - u)

    # oscillation-aware width cap: ~8 radians of phase per 16-node panel
    wmax = 8.0 / abs(a) if a != 0.0 else math.inf
    # infrared section [eps_ref, 0.125]: logarithmic panels, 4 per decade,
    # then geometric panels out to big_u from the window's end (or from 0.25)
    n_log = math.ceil(4 * math.log10(0.125 / EPS_REF_RATIO))
    edges = np.geomspace(EPS_REF_RATIO, 0.125, n_log + 1).tolist()
    far = [1.5 if pole else 0.25]
    while far[-1] < big_u:
        far.append(min(2 * far[-1], big_u))

    if pole:
        val = (_gl_panels(g, _subdivide(edges + [0.5], wmax), a)
               + _gl_panels(window, _subdivide([0.5, 1.0, 1.5], wmax), a)
               + _gl_panels(g, _subdivide(far, wmax), a))
    else:
        val = _gl_panels(g, _subdivide(edges + far, wmax), a)
    # the regular piece on [0, eps_ref], below the cut of the 1/u piece
    val += _gl_panels(lambda u: -1.0 / (u + c), np.array([0.0, EPS_REF_RATIO]), a)

    # tail u > big_u: three-term integration by parts of e^{iau} g(u), with
    # g^(k)(U) = (-1)^k k! (U^-(k+1) - (U+c)^-(k+1)), or the exact
    # logarithm when there is no oscillation at all
    if a == 0.0:
        val += math.log((big_u + c) / big_u)
    else:
        ila = 1j * a
        val -= cmath.exp(ila * big_u) * sum(
            math.factorial(k) * (big_u ** -(k + 1) - (big_u + c) ** -(k + 1)) / ila ** (k + 1)
            for k in range(3))

    gamma = params.gamma
    if pole:
        return 0.5 * gamma * cmath.exp(1j * a) + 1j * gamma / (2 * math.pi) * val
    return -1j * gamma / (2 * math.pi) * val
