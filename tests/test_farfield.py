"""Tests for far-field detection integrals and virtual-photon intensity
diagnostics."""

import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

from helpers import pv_band_asymptote
from wqed.checks import band_reference, pv_reference
from wqed.coupling import CouplingModel, SimParams, evaluate_coupling
from wqed.dynamics import AmplitudeTrajectory, build_source, default_grid, integrate_markovian
from wqed.errors import ConfigurationError, DomainError
from wqed.farfield import (
    DetectorSpec,
    eval_f,
    eval_f_plus,
    i2_ratio,
    i3_bound,
    pv_band_integral,
)

# frozen quadrature oracles (adaptive integration, abs err <= ~1e-14)
BAND_INTEGRAL_ORACLE = 0.03747922013290151        # cos(wa)/(w(w0+w)), [0.9,1.3], w0=1, a=7
PV_ORACLE_40 = -0.05644993674695009 + 0.052591663833568315j   # band [20,60], w0=40, a=1
PV_ORACLE_150 = 0.014847947430553678 - 0.014460488668916114j  # band [75,225], w0=150, a=1


def band_quadrature(w1, w2, w0, a):
    """Adaptive quadrature of cos(w a)/(w (w0 + w)) over [w1, w2]."""
    return quad(lambda w: 1.0 / (w * (w0 + w)), w1, w2, weight="cos", wvar=a,
                limit=500, epsabs=1e-13)[0]


def pv_quadrature(w1, w2, w0, a):
    """PV of e^{-i w a}/(w (w - w0)) over [w1, w2] by pole subtraction:
    the regularized difference quotient plus the exact log term."""
    def g(w):
        return cmath.exp(-1j * w * a) / w

    g0 = g(w0)

    def quotient(w):
        if w == w0:
            return -1j * a * g0 - g0 / w0
        return (g(w) - g0) / (w - w0)

    reg = complex(
        quad(lambda w: quotient(w).real, w1, w2, limit=2000, points=[w0],
             epsabs=1e-13)[0],
        quad(lambda w: quotient(w).imag, w1, w2, limit=2000, points=[w0],
             epsabs=1e-13)[0])
    return reg + g0 * math.log((w2 - w0) / (w0 - w1))


def scattering_run(gamma_over_delta=0.25, k0l=math.pi / 4):
    p = SimParams.from_ratios(gamma_over_delta, k0l)
    coup = evaluate_coupling(p, CouplingModel.full())
    grid = default_grid(p, m_total=coup.m_total)
    return p, integrate_markovian(build_source(p, grid), coup, p)


def far_detector(p, margin=1e3, band_factor=40.0):
    """Detector whose nearer band edge satisfies omega1 |z| = margin."""
    d0 = band_factor * max(p.gamma, p.delta)
    return DetectorSpec.centered(p.omega0, d0, z=-margin / (p.omega0 - 0.5 * d0),
                                 omega_c=1.0)


class TestDetectorSpec:
    def test_centered(self):
        det = DetectorSpec.centered(100.0, 40.0, z=-3.0, omega_c=0.1)
        assert det.omega1 == 80.0 and det.omega2 == 120.0
        assert det.delta0 == 40.0

    def test_band_order_guard(self):
        with pytest.raises(ConfigurationError, match="omega1"):
            DetectorSpec(omega1=5.0, omega2=4.0, z=-1.0, omega_c=0.1)
        with pytest.raises(ConfigurationError, match="omega1"):
            DetectorSpec(omega1=-1.0, omega2=4.0, z=-1.0, omega_c=0.1)
        with pytest.raises(ConfigurationError, match="omega_c"):
            DetectorSpec(omega1=1.0, omega2=4.0, z=-1.0, omega_c=0.0)

    def test_far_field_margin(self):
        p = SimParams.from_ratios(0.25, math.pi / 4)
        det = far_detector(p, margin=1e3)
        assert det.far_field_margin(p) == pytest.approx(1e3, rel=1e-12)
        assert det.is_far_field(p)
        near = DetectorSpec.centered(p.omega0, det.delta0,
                                     z=-10.0 / p.omega0, omega_c=1.0)
        assert not near.is_far_field(p)
        # past atom 2 (at z = l) the margin runs from l; between the atoms
        # from the nearer one
        band = dict(omega1=p.omega0 - 10.0, omega2=p.omega0 + 10.0, omega_c=1.0)
        beyond = DetectorSpec(z=p.l + 0.5, **band)
        assert beyond.far_field_margin(p) == pytest.approx(beyond.omega1 * 0.5, rel=1e-12)
        for frac in (0.25, 0.75):
            between = DetectorSpec(z=frac * p.l, **band)
            assert between.far_field_margin(p) == pytest.approx(
                between.omega1 * 0.25 * p.l, rel=1e-12)

    def test_band_margin(self):
        p = SimParams.from_ratios(0.25, math.pi / 4)
        det = far_detector(p, band_factor=40.0)
        assert det.band_margin(p) == pytest.approx(40.0, rel=1e-12)
        assert det.band_ok(p)
        assert det.band_margin(p) < 50.0


class TestEvalF:
    def test_frozen_band_integral(self):
        """Difference of antiderivatives reproduces the frozen quadrature."""
        got = eval_f(1.3, 1.0, 7.0) - eval_f(0.9, 1.0, 7.0)
        assert got == pytest.approx(BAND_INTEGRAL_ORACLE, abs=1e-12)

    @pytest.mark.parametrize("w1,w2,w0,a", [
        (0.9, 1.3, 1.0, 7.0),
        (50.0, 70.0, 60.0, 0.5),
        (900.0, 1100.0, 1000.0, 1.1),
        (2.0, 30.0, 10.0, 0.3),
    ])
    def test_matches_quadrature(self, w1, w2, w0, a):
        """Band integrals agree with adaptive quadrature to 1e-8."""
        got = eval_f(w2, w0, a) - eval_f(w1, w0, a)
        assert got == pytest.approx(band_quadrature(w1, w2, w0, a), abs=1e-8)

    def test_band_difference_vanishes_far(self):
        """|f(w2)-f(w1)| falls below the oscillatory envelope 4/(w0 w1 a)
        and keeps shrinking ~1/a per decade."""
        w0, w1, w2 = 1.0, 0.9, 1.1
        prev = None
        for margin in (1e2, 1e3, 1e4):
            a = margin / w1
            diff = abs(eval_f(w2, w0, a) - eval_f(w1, w0, a))
            assert diff <= 4.0 / (w0 * w1 * a)
            if prev is not None:
                assert diff < prev / 3.0
            prev = diff

    def test_far_asymptote(self):
        """At fixed frequencies the Ci terms die out and f approaches
        -sin(w0 a) pi/(2 c w0), with an O(1/(w a)) envelope."""
        w, w0 = 2.0, 3.0
        for margin in (1e3, 1e4):
            a = margin / w
            residual = eval_f(w, w0, a) + math.sin(w0 * a) * math.pi / (2 * w0)
            assert abs(residual) <= 2.0 / (w * a * w0)

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            eval_f(1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            eval_f(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            eval_f(1.0, -1.0, 1.0)
        with pytest.raises(DomainError):
            eval_f(1.0, 1.0, math.inf)


class TestEvalFPlus:
    def test_real_part_extends_eval_f(self):
        """For positive arguments the real part is eval_f."""
        for (w, w0, a) in [(1.3, 1.0, 7.0), (60.0, 50.0, 0.4), (5.0, 2.0, 3.0)]:
            assert eval_f_plus(w, w0, a).real == pytest.approx(
                eval_f(w, w0, a), rel=1e-14)

    @pytest.mark.parametrize("w,w0,a", [
        (3.0, -7.0, 2.0),     # negative shift: Ci even extension in play
        (5.0, -2.0, -1.5),    # negative retardation
        (0.7, 4.0, 3.0),
    ])
    def test_antiderivative_identity(self, w, w0, a):
        """d f_plus/dw = e^{i w a}/(w (w + w0)) for every sign combination."""
        h = 1e-6
        fd = (eval_f_plus(w + h, w0, a) - eval_f_plus(w - h, w0, a)) / (2 * h)
        assert fd == pytest.approx(cmath.exp(1j * w * a) / (w * (w + w0)),
                                   abs=1e-8)

    def test_pv_frozen_oracles(self):
        assert pv_band_integral(20.0, 60.0, 40.0, 1.0) == pytest.approx(
            PV_ORACLE_40, abs=1e-10)
        assert pv_band_integral(75.0, 225.0, 150.0, 1.0) == pytest.approx(
            PV_ORACLE_150, abs=1e-10)

    @pytest.mark.parametrize("w0,a", [(40.0, 1.0), (150.0, 1.0), (80.0, 0.3)])
    def test_pv_matches_quadrature(self, w0, a):
        """Differences across the pole equal principal-value quadrature."""
        w1, w2 = 0.5 * w0, 1.5 * w0
        got = pv_band_integral(w1, w2, w0, a)
        assert got == pytest.approx(pv_quadrature(w1, w2, w0, a), abs=1e-6)

    def test_gauss_legendre_references_converged(self):
        """Doubling the panels of the farfield-quadrature references moves
        them by round-off only (integrals ~0.05, one ulp 6.9e-18), and they
        agree with adaptive quadrature."""
        band = band_reference(0.9, 1.3, 1.0, 7.0)
        pv = pv_reference(20.0, 60.0, 40.0, 1.0)
        assert abs(band_reference(0.9, 1.3, 1.0, 7.0, panels=16) - band) <= 1e-16
        assert abs(pv_reference(20.0, 60.0, 40.0, 1.0, panels=16) - pv) <= 1e-16
        weighted, _ = quad(lambda w: 1.0 / (w * (w + 1.0)), 0.9, 1.3,
                           weight="cos", wvar=7.0)
        assert band == pytest.approx(weighted, abs=1e-12)
        assert pv == pytest.approx(pv_quadrature(20.0, 60.0, 40.0, 1.0), abs=1e-10)

    def test_pv_far_field_phase(self):
        """Once every accepted wavelength is short, the PV integral locks
        to (2i/w0) e^{-i w0 a} (-pi/2): the reflected-wave phase factor."""
        w0, d0, a = 1000.0, 400.0, 25.0
        limit = 2j / w0 * cmath.exp(-1j * w0 * a) * (-math.pi / 2)
        got = pv_band_integral(w0 - d0 / 2, w0 + d0 / 2, w0, a)
        assert abs(got - limit) <= 1e-3 * abs(limit)

    def test_asymptote_error_decays(self):
        """The closed asymptote improves like ~1/(delta0 a) per decade."""
        w0, d0 = 1000.0, 400.0
        errs = []
        for a in (0.25, 2.5, 25.0):
            got = pv_band_integral(w0 - d0 / 2, w0 + d0 / 2, w0, a)
            errs.append(abs(got - pv_band_asymptote(w0, d0, a)))
            assert errs[-1] <= 2.0 * abs(pv_band_asymptote(w0, d0, a)) / (d0 * a)
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= errs[0] / 30.0

    def test_zero_argument_guards(self):
        with pytest.raises(DomainError):
            eval_f_plus(1.0, 1.0, 0.0)       # omega * a = 0
        with pytest.raises(DomainError):
            eval_f_plus(1.0, -1.0, 2.0)      # (omega + omega0) a = 0
        with pytest.raises(DomainError):
            eval_f_plus(1.0, 0.0, 2.0)       # omega0 = 0


class TestI2Ratio:
    def test_suppressed_in_far_field(self):
        """At omega1 |z| = 1e3 the amplitude channel is < 1e-5 of the
        incident peak."""
        p, traj = scattering_run()
        assert i2_ratio(traj, far_detector(p), p) <= 1e-5

    def test_zero_without_excitation(self):
        p, traj = scattering_run()
        zeros = np.zeros_like(traj.beta1)
        silent = AmplitudeTrajectory(traj.grid, zeros, zeros)
        assert i2_ratio(silent, far_detector(p), p) == 0.0

    def test_decade_monotone(self):
        """Decade-spaced detector distances give strictly falling ratios."""
        p, traj = scattering_run()
        base = far_detector(p)
        vals = []
        for fac in (1.0, 10.0, 100.0):
            det = DetectorSpec.centered(p.omega0, base.delta0, z=base.z * fac,
                                        omega_c=1.0)
            vals.append(i2_ratio(traj, det, p))
        assert vals[0] > vals[1] > vals[2]

    def test_near_field_raises_with_guidance(self):
        p, traj = scattering_run()
        near = DetectorSpec.centered(p.omega0, far_detector(p).delta0,
                                     z=-10.0 / p.omega0, omega_c=1.0)
        with pytest.raises(DomainError, match="near.*zone|near-field"):
            i2_ratio(traj, near, p)

    def test_narrow_band_raises(self):
        p, traj = scattering_run()
        narrow = DetectorSpec.centered(p.omega0, 2.0 * p.delta,
                                       z=far_detector(p).z, omega_c=1.0)
        with pytest.raises(ConfigurationError, match="band"):
            i2_ratio(traj, narrow, p)


class TestI3Bound:
    def test_printed_arithmetic(self):
        """gamma/omega0 = 1e-3, omega0/omega_c = 1e3 gives ~2.756e-3."""
        p = SimParams(gamma=1.0, delta=4.0, omega0=1e3, l=0.0)
        det = DetectorSpec.centered(p.omega0, 200.0, z=-1e9, omega_c=1.0)
        expected = math.sqrt(1 / (2 * math.pi)) * 1e-3 * math.log(1e3)
        assert i3_bound(p, det) == pytest.approx(expected, rel=1e-14)
        assert i3_bound(p, det) == pytest.approx(2.7558e-3, rel=1e-4)

    def test_leading_log_accuracy(self):
        """ln(omega0/omega_c) approximates the soft-mode integral to ~20%
        at a 1e3 frequency span."""
        eps = 1e-3
        exact = quad(lambda x: 1.0 / (x * (1 + x) ** 2), eps, np.inf,
                     limit=500)[0]
        assert math.log(1 / eps) == pytest.approx(exact, rel=0.2)

    def test_conservative_against_quadrature(self):
        """The printed estimate upper-bounds the direct band integral
        (by a stable factor ~2.9 at a 1e3 span)."""
        p = SimParams(gamma=1.0, delta=4.0, omega0=1e4, l=0.0)
        det = DetectorSpec.centered(p.omega0, 2000.0, z=-1e9, omega_c=10.0)
        eps = det.omega_c / p.omega0
        direct = (p.gamma / (2 * math.pi * p.omega0)) * quad(
            lambda x: 1.0 / (x * (1 + x) ** 2), eps, np.inf, limit=500)[0]
        bound = i3_bound(p, det)
        assert direct < bound < 3.5 * direct

    def test_vanishes_with_coupling(self):
        p = SimParams(gamma=0.0, delta=1.0, omega0=1e4, l=0.0)
        det = DetectorSpec.centered(p.omega0, 200.0, z=-1e9, omega_c=1.0)
        assert i3_bound(p, det) == 0.0

    def test_cutoff_guard(self):
        p = SimParams(gamma=1.0, delta=4.0, omega0=1e3, l=0.0)
        det = DetectorSpec.centered(p.omega0, 200.0, z=-1e9, omega_c=2e3)
        with pytest.raises(DomainError, match="omega_c"):
            i3_bound(p, det)


class TestFarFieldInvariant:
    def test_both_channels_negligible(self):
        """With omega1 |z - zj| >= 1e3 and gamma/omega0 = 1e-4, both
        virtual-photon channels sit below 1e-4 of the signal."""
        p, traj = scattering_run()
        det = far_detector(p)
        assert p.gamma / p.omega0 == pytest.approx(1e-4)
        assert i2_ratio(traj, det, p) <= 1e-4
        assert i3_bound(p, det) <= 1e-2
