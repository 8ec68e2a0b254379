"""The validation checks, shared by `wqed validate` and the acceptance gate.

Each check takes the `mutate` flag (negate the coupling in the pulse-area
runs, a known-bad hook that tests the suite itself) and returns a
CheckResult.  Scattering runs are cached per cell, so checks sharing a
cell share one integration.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .coupling import (CouplingModel, SimParams, _gl_panels, coupling_full,
                       coupling_oracle, coupling_rwa_cutoff, evaluate_coupling)
from .dynamics import build_source, check_points, driven_modes, oracle_modes
from .farfield import DetectorSpec, eval_f, i2_ratio, i3_bound, pv_band_integral
from .fields import (FieldEnvelope, consistency_residuals, dip_width, fft_length,
                     resonant_amplitude, spectrum, transfer_oracle)
from .specfun import ci, si
from .sweep import (AREA_PASS, AREA_TRUNCATED, CONFIG_KEYS, area_verdict, cell_params,
                    compare_couplings, scatter)

PI4 = math.pi / 4
TRIPLE = (0.02, 0.25, 4.0)     # weak / moderate / strong coupling
# the transfer round trip pads until the slowest driven mode has decayed to
# this fraction, which bounds the circular DFT's wrap-around
WRAP_FRACTION = 1e-12


class CheckResult(NamedTuple):
    ok: bool
    measured: float
    tol: float
    note: str


def _at_most(measured: float, tol: float, note: str) -> CheckResult:
    """The result of a check that passes iff measured <= tol."""
    return CheckResult(measured <= tol, measured, tol, note)


def _scatter(gamma_over_delta: float, k0l: float, mutate: bool = False,
             span_factor: float = 1.0, dt_factor: float = 1.0):
    """(params, wavepacket, coupling, traj, envelopes) of one full-coupling run,
    cached on normalised arguments: all spellings of a cell share one run."""
    return _scatter_cached(float(gamma_over_delta), float(k0l), bool(mutate),
                           float(span_factor), float(dt_factor))


@lru_cache(maxsize=None)
def _scatter_cached(gamma_over_delta: float, k0l: float, mutate: bool,
                    span_factor: float, dt_factor: float):
    params = cell_params(gamma_over_delta, k0l)
    coupling = evaluate_coupling(params, CouplingModel.full())
    if mutate:
        coupling = replace(coupling, m_total=-coupling.m_total)
    wavepacket, traj, envelopes = scatter(params, coupling, span_factor=span_factor,
                                          dt_factor=dt_factor)
    return params, wavepacket, coupling, traj, envelopes


def oracle_deviation(gamma_over_delta: float, k0l: float,
                     dt_factor: float = 1.0) -> float:
    """Sup-norm deviation of the RK4 amplitudes from the mode oracle,
    relative to the oracle's largest amplitude."""
    params, wavepacket, coupling, traj, _ = _scatter(gamma_over_delta, k0l,
                                                     dt_factor=dt_factor)
    oracle = oracle_modes(build_source(wavepacket, params, traj.grid), coupling, params)
    scale = max(np.max(np.abs(oracle.beta1)), np.max(np.abs(oracle.beta2)))
    return max(np.max(np.abs(traj.beta1 - oracle.beta1)),
               np.max(np.abs(traj.beta2 - oracle.beta2))) / scale


@lru_cache(maxsize=None)
def dip_profile() -> tuple[float, tuple[float, ...], tuple[float, ...]]:
    """Over TRIPLE at k0l = pi/4: the worst resonant intensity ratio, and
    the transmitted dip widths and peak ratios in TRIPLE order."""
    worst, widths, peaks = 0.0, [], []
    for ratio in TRIPLE:
        inc, trans, _ = _scatter(ratio, PI4)[4]
        spec_trans = spectrum(trans)
        worst = max(worst, abs(spec_trans.at_resonance()) ** 2
                    / abs(resonant_amplitude(inc)) ** 2)
        widths.append(dip_width(spec_trans))
        peaks.append(trans.peak() / inc.peak())
    return worst, tuple(widths), tuple(peaks)


def _check_coupling_identity(mutate: bool = False) -> CheckResult:
    worst = 0.0
    for x in np.linspace(0.0, 8 * math.pi, 100):
        params = SimParams.from_ratios(1.0, x)
        m = coupling_full(params).m_total
        worst = max(worst, abs(m - cmath.exp(1j * x)))
    return _at_most(worst, 1e-12, "max |M - e^{i k0l}| over 100 points")


def _check_coupling_oracle(mutate: bool = False) -> CheckResult:
    worst = 0.0
    for x in (PI4, math.pi / 2, 3 * math.pi):
        params = SimParams.from_ratios(1.0, x)
        closed = coupling_full(params).m_total
        quadrature = sum(coupling_oracle(params, part) for part in (1, 2, 3, 4))
        worst = max(worst, abs(quadrature - closed))
    return _at_most(worst, 1e-6, "quadrature vs closed form, 3 spot values")


def _check_rwa_divergence(mutate: bool = False) -> CheckResult:
    params = SimParams.from_ratios(1.0, PI4)
    log_eps, imags = [], []
    for exponent in range(2, 7):
        eps = params.omega0 * 10.0 ** (-exponent)
        log_eps.append(math.log(eps))
        imags.append(coupling_rwa_cutoff(params, eps).m_total.imag)
    slope = np.polyfit(log_eps, imags, 1)[0]
    target = -params.gamma / math.pi
    rel = abs(slope - target) / abs(target)
    return _at_most(rel, 0.01, "slope of Im M vs ln(eps), rel dev from -1/pi")


def _check_negfreq_equivalence(mutate: bool = False) -> CheckResult:
    rows = compare_couplings(np.linspace(0.0, 8 * math.pi, 100),
                             [CouplingModel.rwa_negfreq()])
    worst = max(row.abs_dev_from_full for row in rows)
    return _at_most(worst, 1e-12, "max deviation over 100 points")


def _check_mode_oracle(mutate: bool = False) -> CheckResult:
    worst = max(oracle_deviation(ratio, PI4) for ratio in TRIPLE)
    return _at_most(worst, 1e-8, "RK4 vs mode-decomposition, sup norm")


def _check_pulse_area(mutate: bool = False) -> CheckResult:
    worst, verdicts, tol = 0.0, set(), CONFIG_KEYS["area_tol"].default
    for ratio in TRIPLE:
        for k0l in (0.0, PI4, math.pi / 2):
            params, _, _, _, envelopes = _scatter(ratio, k0l, mutate)
            check, trans_ratio, refl_ratio = area_verdict(envelopes, params.gamma, tol)
            worst = max(worst, trans_ratio, refl_ratio)
            verdicts.add(check)
    note = "max area ratio over the 3x3 grid"
    if AREA_TRUNCATED in verdicts:
        note += " (envelopes not decayed at grid ends)"
    return CheckResult(verdicts == {AREA_PASS}, worst, tol, note)


def _check_resonance_dip(mutate: bool = False) -> CheckResult:
    worst, widths, peaks = dip_profile()
    ok = worst <= 1e-4 and widths[0] < widths[1] < widths[2] and peaks[-1] < 0.3
    return CheckResult(ok, worst, 1e-4, "resonant intensity ratio; widths ordered; peak cut")


def _check_local_consistency(mutate: bool = False) -> CheckResult:
    worst = 0.0
    for ratio in TRIPLE:
        params, _, _, traj, envelopes = _scatter(ratio, PI4)
        worst = max(worst, *consistency_residuals(traj, envelopes, params))
    return _at_most(worst, 1e-3, "normalized sup-norm of both residuals")


def transfer_round_trip(inc: FieldEnvelope, transfer, params: SimParams,
                        m_total: complex) -> np.ndarray:
    """The envelope that the transfer amplitude transfer(d) makes of the
    incident one: the inverse DFT of transfer(d) times the DFT of inc's
    samples zero-padded to N = fft_length(n + ceil(ln(1/WRAP_FRACTION) /
    (min Re lam * dtau))), lam the driven modes' rates, at the bins' angular
    detunings d = 2 pi fftfreq(N, dtau).  The spectrum's phase ramp
    e^{i d tau_0} and the inverse's e^{-i d tau_0} cancel, so neither is
    applied.  A padded length over POINT_BUDGET (infinite when a mode does
    not decay) raises ConfigurationError before anything is allocated."""
    n = inc.samples.size
    rate = min(lam.real for lam in driven_modes(params, m_total).values())
    pad = math.ceil(math.log(1.0 / WRAP_FRACTION) / (rate * inc.dtau)) if rate > 0 else math.inf
    size = fft_length(check_points("the transfer round trip", n + pad))
    spec = transfer(2.0 * math.pi * np.fft.fftfreq(size, inc.dtau))
    spec *= np.fft.ifft(inc.samples, size)
    np.fft.fft(spec, out=spec)
    return spec[:n].copy()


def _check_transfer_oracle(mutate: bool = False) -> CheckResult:
    worst = 0.0
    for ratio in TRIPLE:
        params, wavepacket, coupling, _, (inc, trans, _) = _scatter(ratio, PI4)
        predicted = transfer_round_trip(
            inc, lambda d: transfer_oracle(params, coupling, wavepacket, d)[0],
            params, coupling.m_total)
        worst = max(worst, np.max(np.abs(predicted - trans.samples)) / trans.peak())
    return _at_most(worst, 1e-4, "frequency- vs time-domain envelope")


def _check_transfer_resonance(mutate: bool = False) -> CheckResult:
    # the doubled window pushes the truncation tail below the tolerance
    worst = 0.0
    for ratio in TRIPLE:
        inc, trans, _ = _scatter(ratio, PI4, span_factor=2.0)[4]
        at_inc, at_trans = resonant_amplitude(inc), resonant_amplitude(trans)
        worst = max(worst, abs(at_trans / at_inc))
    return _at_most(worst, 1e-6, "resonant amplitude ratio, doubled window")


def _far_detector(params: SimParams) -> DetectorSpec:
    """A band 40 rates wide around omega0, 1e3 carrier wavelengths out."""
    delta0 = 40.0 * max(params.gamma, params.delta)
    omega1 = params.omega0 - delta0 / 2
    return DetectorSpec.centered(params.omega0, delta0, z=-1e3 / omega1,
                                 omega_c=params.omega0 / 1e3)


def _check_farfield_suppression(mutate: bool = False) -> CheckResult:
    params, _, _, traj, _ = _scatter(0.25, PI4)
    measured = i2_ratio(traj, _far_detector(params), params)
    return _at_most(measured, 1e-4, "out-of-band intensity ratio I2/I1")


def _check_farfield_bound(mutate: bool = False) -> CheckResult:
    params, _, _, _, _ = _scatter(0.25, PI4)
    measured = i3_bound(params, _far_detector(params))
    return _at_most(measured, 1e-2, "virtual-channel intensity bound I3")


def _panels(f, start: float, stop: float, panels: int, phase: float = 0.0) -> complex:
    """int_start^stop f(t) e^{i phase t} dt on equal 16-node Gauss-Legendre panels."""
    return _gl_panels(f, np.linspace(start, stop, panels + 1), phase)


def band_reference(w1: float, w2: float, w0: float, a: float,
                   panels: int = 8) -> float:
    """int_w1^w2 cos(w a) / (w (w + w0)) dw, the real part of the e^{iwa} panel sum."""
    return _panels(lambda w: 1.0 / (w * (w + w0)), w1, w2, panels, a).real


def pv_reference(w1: float, w2: float, w0: float, a: float,
                 panels: int = 8) -> complex:
    """PV int_w1^w2 e^{-iwa} / (w (w - w0)) dw by pole subtraction: the
    smooth quotient (g(w) - g(w0)) / (w - w0), g(w) = e^{-iwa}/w, on panels
    either side of w0, plus the analytic log of the pole."""
    g0 = cmath.exp(-1j * w0 * a) / w0

    def quotient(w):
        return (np.exp(-1j * a * w) / w - g0) / (w - w0)

    return (_panels(quotient, w1, w0, panels) + _panels(quotient, w0, w2, panels)
            + g0 * math.log((w2 - w0) / (w0 - w1)))


def si_ci_reference(x: float, width: float = 0.5) -> tuple[float, float]:
    """(Si(x), Ci(x)) from their defining integrals on panels at most `width`
    wide.  Ci = euler_gamma + ln x + int_0^x (cos t - 1)/t dt is integrated
    as int_0^1 plus int_1^x cos t / t dt, so ln x cancels exactly and never
    against the integral; (cos t - 1) is written -2 sin^2(t/2)."""
    def integral(f, start, stop):
        return _panels(f, start, stop, max(1, math.ceil((stop - start) / width))).real

    si_ref = integral(lambda t: np.sin(t) / t, 0.0, x)
    head = min(x, 1.0)
    ci_ref = (np.euler_gamma + math.log(head)
              + integral(lambda t: -2.0 * np.sin(0.5 * t) ** 2 / t, 0.0, head))
    if x > 1.0:
        ci_ref += integral(lambda t: np.cos(t) / t, 1.0, x)
    return si_ref, ci_ref


def _check_farfield_quadrature(mutate: bool = False) -> CheckResult:
    """The closed-form detection integrals (eval_f differences and the PV
    band integral) against Gauss-Legendre references: band_reference and
    pv_reference, 8 panels each, which doubling moves only by round-off."""
    w1, w2, w0, a = 0.9, 1.3, 1.0, 7.0
    dev_f = abs((eval_f(w2, w0, a) - eval_f(w1, w0, a)) - band_reference(w1, w2, w0, a))
    dev_pv = abs(pv_band_integral(20.0, 60.0, 40.0, 1.0)
                 - pv_reference(20.0, 60.0, 40.0, 1.0))
    return _at_most(max(dev_f, dev_pv), 1e-6, "detection integrals vs quadrature")


def _check_specfun(mutate: bool = False) -> CheckResult:
    """si and ci against their defining integrals at 12 points of
    [1e-3, 1e3], integrated on Gauss-Legendre panels <= 0.5 wide
    (si_ci_reference), which halving moves only by round-off."""
    worst = 0.0
    for x in np.logspace(-3, 3, 12):
        si_ref, ci_ref = si_ci_reference(float(x))
        worst = max(worst, abs(si(x).value - si_ref), abs(ci(x).value - ci_ref))
    return _at_most(worst, 1e-10, "si/ci vs defining integrals, log grid")


VALIDATION_CHECKS = {
    "coupling-identity": _check_coupling_identity,
    "coupling-oracle": _check_coupling_oracle,
    "rwa-divergence": _check_rwa_divergence,
    "negfreq-equivalence": _check_negfreq_equivalence,
    "mode-oracle": _check_mode_oracle,
    "pulse-area": _check_pulse_area,
    "resonance-dip": _check_resonance_dip,
    "local-consistency": _check_local_consistency,
    "transfer-oracle": _check_transfer_oracle,
    "transfer-resonance": _check_transfer_resonance,
    "farfield-suppression": _check_farfield_suppression,
    "farfield-bound": _check_farfield_bound,
    "farfield-quadrature": _check_farfield_quadrature,
    "specfun": _check_specfun,
}
