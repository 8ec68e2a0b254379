"""Far-field photodetection diagnostics.

A band-limited detector at position z sees, besides the propagating
envelopes, two residual channels fed by the counter-rotating part of the
coupling: one proportional to the instantaneous excited-state amplitudes
(relative intensity I2/I1) and one proportional to the squared coupling
spectrum (relative intensity I3/I1).  Both are suppressed once every
accepted wavelength is short compared to the detector distance, i.e.
omega1 * |z - z_j| >> 1 for the atoms at z_1 = 0 and z_2 = l; inside
that near zone the two-level plus single-band model itself stops being
valid.

The detection integrals reduce to differences of the closed form

    f(w, w0, a)  = (1/w0) [ -cos(w0 a) Ci((w+w0)a) + Ci(w a)
                                - sin(w0 a) Si((w+w0)a) ]

whose derivative in w is cos(w a) / (w (w + w0)), and of its complex
extension f_plus (derivative e^{i w a} / (w (w + w0))).  Evaluating
f_plus with the even extension of Ci and the odd Si makes differences
across the resonance pole equal to principal-value integrals, which is
how the reflected-wave phase factor is validated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coupling import SimParams
from .dynamics import AmplitudeTrajectory
from .errors import ConfigurationError, DomainError
from .specfun import ci, si

# omega1 * |z - zj| at or above this counts as far field
FAR_FIELD_MIN = 100.0
# the detector band must exceed both gamma and delta by this factor to
# collect every emitted photon
BAND_FACTOR = 20.0


# ----------------------------------------------------------------------
# detector description
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DetectorSpec:
    """Rectangular spectral acceptance [omega1, omega2] at position z.

    omega_c is the low-frequency cutoff entering the I3 estimate (an
    idealized waveguide supports arbitrarily soft modes; a physical one
    does not).
    """

    omega1: float
    omega2: float
    z: float
    omega_c: float
    delta0: float = field(init=False)

    def __post_init__(self):
        for name in ("omega1", "omega2", "z", "omega_c"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if not 0.0 < self.omega1 < self.omega2:
            raise ConfigurationError(
                f"need 0 < omega1 < omega2, got {self.omega1}, {self.omega2}")
        if self.omega_c <= 0.0:
            raise ConfigurationError(f"omega_c must be > 0, got {self.omega_c}")
        object.__setattr__(self, "delta0", self.omega2 - self.omega1)

    @classmethod
    def centered(cls, omega0: float, delta0: float, z: float,
                 omega_c: float) -> "DetectorSpec":
        """Band of width delta0 centered on omega0."""
        return cls(omega1=omega0 - 0.5 * delta0, omega2=omega0 + 0.5 * delta0,
                   z=z, omega_c=omega_c)

    def far_field_margin(self, params: SimParams) -> float:
        """omega1 * |z - zj| for the nearer atom, zj = 0 or l."""
        return self.omega1 * min(abs(self.z), abs(self.z - params.l))

    def is_far_field(self, params: SimParams) -> bool:
        return self.far_field_margin(params) >= FAR_FIELD_MIN

    def band_margin(self, params: SimParams) -> float:
        """delta0 relative to the wider of gamma and delta."""
        return self.delta0 / max(params.gamma, params.delta)

    def band_ok(self, params: SimParams) -> bool:
        return self.band_margin(params) >= BAND_FACTOR


# ----------------------------------------------------------------------
# detection integrals
# ----------------------------------------------------------------------

def _ci_even(x: float) -> float:
    """Even extension of the cosine integral (log-singular at zero)."""
    if x == 0.0:
        raise DomainError("cosine integral diverges at zero argument")
    return ci(abs(x))


def eval_f(omega: float, omega0: float, a: float) -> float:
    """Antiderivative in omega of cos(omega a) / (omega (omega + omega0)).

    Band integrals of the detection kernel are differences of this.
    Requires omega, omega0, a > 0.
    """
    for name, value in (("omega", omega), ("omega0", omega0), ("a", a)):
        if not math.isfinite(value) or value <= 0.0:
            raise DomainError(f"{name} must be finite and > 0, got {value}")
    return eval_f_plus(omega, omega0, a).real


def eval_f_plus(omega: float, omega0: float, a: float) -> complex:
    """Antiderivative in omega of e^{i omega a} / (omega (omega + omega0)).

    Uses the even extension of Ci and the odd Si, so it is defined for
    either sign of omega0 and a; differences taken across the pole at
    omega = -omega0 are then principal values.  Zero arguments of Ci
    (omega a = 0 or (omega + omega0) a = 0) are genuine singularities.
    """
    for name, value in (("omega", omega), ("omega0", omega0), ("a", a)):
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    if omega0 == 0.0:
        raise DomainError("omega0 must be nonzero")
    w0a = omega0 * a
    u = (omega + omega0) * a
    s = omega * a
    re = (-math.cos(w0a) * _ci_even(u) + _ci_even(s)
          - math.sin(w0a) * si(u)) / omega0
    im = (math.sin(w0a) * _ci_even(u) + si(s)
          - math.cos(w0a) * si(u)) / omega0
    return complex(re, im)


def pv_band_integral(omega1: float, omega2: float, omega0: float,
                     a: float) -> complex:
    """PV of int_{omega1}^{omega2} e^{-i omega a} / (omega (omega - omega0)) d omega.

    Exact via differences of eval_f_plus; omega0 inside the band is the
    principal-value case that fixes the reflected-wave phase.
    """
    return (eval_f_plus(omega2, -omega0, -a)
            - eval_f_plus(omega1, -omega0, -a))


# ----------------------------------------------------------------------
# relative intensities of the two virtual-photon channels
# ----------------------------------------------------------------------

def i2_ratio(traj: AmplitudeTrajectory, detector: DetectorSpec,
             params: SimParams) -> float:
    """Peak intensity of the amplitude-proportional channel relative to
    the incident peak: max_t |2 sum_j beta_j(t) K_j|^2 / max |A_inc|^2
    with K_j = omega0 sqrt(gamma/2pi) [f(omega2) - f(omega1)] at
    a_j = |z - z_j|, z_1 = 0 and z_2 = l.

    The incident peak is traj.scale^2 delta/2, so the ratio is
    normalization-independent (both channels scale with the photon
    amplitude N).
    """
    if not detector.is_far_field(params):
        raise DomainError(
            f"detector is in the near zone (omega1*|z-zj| = "
            f"{detector.far_field_margin(params):.3g} < {FAR_FIELD_MIN:g}); "
            "this model cannot describe near-field detection -- move the "
            "detector or widen omega1")
    if not detector.band_ok(params):
        raise ConfigurationError(
            f"detector band delta0 = {detector.delta0:g} does not dominate "
            f"gamma and delta (margin {detector.band_margin(params):.3g} < "
            f"{BAND_FACTOR:g}); emitted photons would be missed")
    coupling_scale = params.omega0 * math.sqrt(params.gamma / (2.0 * math.pi))
    weights = [coupling_scale * (eval_f(detector.omega2, params.omega0, aj)
                                 - eval_f(detector.omega1, params.omega0, aj))
               for aj in (abs(detector.z), abs(detector.z - params.l))]
    amp2 = 2.0 * (traj.beta1 * weights[0] + traj.beta2 * weights[1])
    peak_i2 = float(np.max(np.abs(amp2) ** 2))
    peak_i1 = (traj.scale ** 2) * params.delta / 2.0
    return peak_i2 / peak_i1


def i3_bound(params: SimParams, detector: DetectorSpec) -> float:
    """Dimensionless estimate of the coupling-spectrum channel:
    sqrt(1/2pi) (gamma/omega0) ln(omega0/omega_c).

    The logarithm is a leading-log estimate of the soft-mode integral
    int_eps dx / (x (1+x)^2), good to ~20% at omega0/omega_c = 1e3; the
    prefactor follows the source estimate and overestimates the direct
    integral, so the value is a conservative bound.
    """
    if detector.omega_c >= params.omega0:
        raise DomainError(
            f"omega_c = {detector.omega_c:g} must lie below omega0 = "
            f"{params.omega0:g}")
    return (math.sqrt(1.0 / (2.0 * math.pi)) * (params.gamma / params.omega0)
            * math.log(params.omega0 / detector.omega_c))
