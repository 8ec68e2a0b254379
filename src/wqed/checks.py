"""The validation checks, shared by `wqed validate` and the acceptance gate.

Each check takes the `mutate` flag (negate the coupling in the pulse-area
runs, a known-bad hook that tests the suite itself) and returns a
CheckResult.  Only the scattering runs that several checks share are
cached: the unmutated (r, pi/4) cells.  `pulse-area` reduces every other
run to its area verdict and drops it, so `validate` holds three runs of
the nine it integrates.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .coupling import (CouplingModel, SimParams, _gl_panels, compare_couplings, coupling_full,
                       coupling_oracle, coupling_rwa_cutoff, evaluate_coupling)
from .dynamics import build_source, check_points, driven_modes, oracle_modes
from .farfield import DetectorSpec, eval_f, i2_ratio, i3_bound, pv_band_integral
from .fields import (FieldEnvelope, consistency_residuals, dip_width, fft_length, spectrum,
                     transfer_oracle)
from .specfun import ci, si
from .sweep import AREA_PASS, AREA_TOL, AREA_TRUNCATED, area_verdict, cell_params, scatter

PI4 = math.pi / 4
TRIPLE = (0.02, 0.25, 4.0)     # weak / moderate / strong coupling
# the transfer round trip's circular DFT wraps at most this fraction of the
# response at the grid's end back onto the grid's start
WRAP_FRACTION = 1e-12
# the round trip's DFT runs in blocks of rows of about this many cells: its
# buffers and temporaries stay under 0.9 MB on validate's cells, damped or
# not, whatever its length
ROUND_TRIP_BLOCK = 1 << 13


class CheckResult(NamedTuple):
    ok: bool
    measured: float
    tol: float
    note: str


def _at_most(measured: float, tol: float, note: str) -> CheckResult:
    """The result of a check that passes iff measured <= tol, measured as a
    Python float (some checks reduce to an np.float64)."""
    measured = float(measured)
    return CheckResult(measured <= tol, measured, tol, note)


def _scatter(gamma_over_delta: float, k0l: float, mutate: bool = False,
             dt_factor: float = 1.0):
    """(params, coupling, traj, envelopes) of one full-coupling run,
    cached on normalised arguments: all spellings of a cell share one run."""
    return _scatter_cached(float(gamma_over_delta), float(k0l), bool(mutate),
                           float(dt_factor))


def _run(gamma_over_delta: float, k0l: float, mutate: bool = False, dt_factor: float = 1.0):
    """_scatter's run, computed afresh and held by no cache."""
    params = cell_params(gamma_over_delta, k0l)
    coupling = evaluate_coupling(params, CouplingModel.full())
    if mutate:
        coupling = coupling._replace(m_total=-coupling.m_total)
    return params, coupling, *scatter(params, coupling, dt_factor=dt_factor)


_scatter_cached = lru_cache(maxsize=None)(_run)


def oracle_deviation(gamma_over_delta: float, k0l: float,
                     dt_factor: float = 1.0) -> float:
    """Sup-norm deviation of the RK4 amplitudes from the mode oracle,
    relative to the oracle's largest amplitude."""
    params, coupling, traj, _ = _scatter(gamma_over_delta, k0l, dt_factor=dt_factor)
    oracle = oracle_modes(build_source(params, traj.grid), coupling, params)
    scale = max(np.max(np.abs(oracle.beta1)), np.max(np.abs(oracle.beta2)))
    return max(np.max(np.abs(traj.beta1 - oracle.beta1)),
               np.max(np.abs(traj.beta2 - oracle.beta2))) / scale


def resonant_ratio() -> float:
    """The worst resonant amplitude ratio |S_trans / S_inc| over TRIPLE at
    k0l = pi/4 (a pulse area is its envelope's zero-detuning amplitude)."""
    return max(abs(trans.pulse_area / inc.pulse_area)
               for inc, trans, _ in (_scatter(ratio, PI4)[3] for ratio in TRIPLE))


@lru_cache(maxsize=None)
def dip_profile() -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Over TRIPLE at k0l = pi/4: the transmitted dip widths and peak ratios."""
    widths, peaks = [], []
    for ratio in TRIPLE:
        inc, trans, _ = _scatter(ratio, PI4)[3]
        widths.append(dip_width(spectrum(trans)))
        peaks.append(trans.peak() / inc.peak())
    return tuple(widths), tuple(peaks)


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
    # the least-squares slope in closed form, on centred sums
    x_mean, y_mean = sum(log_eps) / len(log_eps), sum(imags) / len(imags)
    dx = [x - x_mean for x in log_eps]
    slope = sum(d * (y - y_mean) for d, y in zip(dx, imags)) / sum(d * d for d in dx)
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


def _cell_verdict(ratio: float, k0l: float, mutate: bool) -> tuple[str, float, float]:
    """area_verdict of one cell's run: a shared (r, pi/4) run from the
    cache, any other run computed, reduced and dropped on return."""
    run = _scatter if k0l == PI4 and not mutate else _run
    params, _, _, envelopes = run(ratio, k0l, mutate)
    return area_verdict(envelopes, params.gamma)


def _check_pulse_area(mutate: bool = False) -> CheckResult:
    worst, verdicts = 0.0, set()
    for ratio in TRIPLE:
        for k0l in (0.0, PI4, math.pi / 2):
            check, trans_ratio, refl_ratio = _cell_verdict(ratio, k0l, mutate)
            worst = max(worst, trans_ratio, refl_ratio)
            verdicts.add(check)
    note = "max area ratio over the 3x3 grid"
    if AREA_TRUNCATED in verdicts:
        note += " (envelopes not decayed at grid ends)"
    return CheckResult(verdicts == {AREA_PASS}, worst, AREA_TOL, note)


def _check_resonance_dip(mutate: bool = False) -> CheckResult:
    worst = resonant_ratio() ** 2   # the resonant intensity ratio
    widths, peaks = dip_profile()
    ok = worst <= 1e-4 and widths[0] < widths[1] < widths[2] and peaks[-1] < 0.3
    return CheckResult(ok, worst, 1e-4, "resonant intensity ratio; widths ordered; peak cut")


def _check_local_consistency(mutate: bool = False) -> CheckResult:
    worst = 0.0
    for ratio in TRIPLE:
        params, _, traj, envelopes = _scatter(ratio, PI4)
        worst = max(worst, *consistency_residuals(traj, envelopes, params))
    return _at_most(worst, 1e-3, "normalized sup-norm of both residuals")


def round_trip_window(inc: FieldEnvelope, params: SimParams,
                      m_total: complex) -> tuple[int, float]:
    """(N, sigma): the length of the round trip's circular DFT and the rate of
    its exponential window.  N = fft_length(min(n + pad, 8n)), with pad =
    ceil(ln(1/WRAP_FRACTION) / (r dtau)) and r = min Re lam over the driven
    modes' rates lam (pad infinite when r = 0).  The window damps the part of the
    wrap-around that the modes' own decay over the N - n padded points leaves:

        sigma = max(0, ln(1/WRAP_FRACTION) - r (N - n) dtau) / (N dtau),

    so e^{-sigma N dtau - r (N - n) dtau} <= WRAP_FRACTION.  sigma > 0 only
    where the 8n cap binds, so undamping scales round-off by at most
    e^{sigma n dtau} <= WRAP_FRACTION^{-1/8}.  Over POINT_BUDGET, which only
    n > POINT_BUDGET/8 can reach, it raises ConfigurationError before the
    round trip allocates anything."""
    n = inc.samples.size
    rate = min(lam.real for lam in driven_modes(params, m_total).values())
    decay = math.log(1.0 / WRAP_FRACTION)
    pad = math.ceil(decay / (rate * inc.dtau)) if rate > 0 else math.inf
    size = fft_length(check_points(
        "the transfer round trip", min(n + pad, 8 * n),
        f"its padding is capped at 8 times the grid's {n:,} points"))
    return size, max(0.0, decay - rate * (size - n) * inc.dtau) / (size * inc.dtau)


def transfer_round_trip(inc: FieldEnvelope, transfer, params: SimParams,
                        m_total: complex) -> np.ndarray:
    """The envelope that the transfer amplitude transfer(d) makes of the
    incident one: the inverse DFT of transfer(d + i sigma) times the DFT of
    inc's samples damped by e^{-sigma (tau - tau_0)} and zero-padded to N
    points, at the bins' angular detunings d = 2 pi fftfreq(N, dtau), undamped
    by e^{sigma (tau - tau_0)}, with (N, sigma) from round_trip_window.  The
    spectrum's phase ramp e^{i (d + i sigma) tau_0} and the inverse's
    e^{-i (d + i sigma) tau_0} cancel, so neither is applied."""
    size, sigma = round_trip_window(inc, params, m_total)
    return pruned_round_trip(inc.samples, transfer, size, inc.dtau, sigma)


def pruned_round_trip(samples: np.ndarray, transfer, size: int, dtau: float,
                      sigma: float) -> np.ndarray:
    """(1/v) fft_N(transfer(2 pi fftfreq(N, dtau) + i sigma) * ifft_N(v samples, N))[:n],
    N = size and v_k = e^{-sigma k dtau} the exponential window, as a
    four-step DFT that never holds N points.  With W the smallest divisor of
    N that is >= n and P = N/W, row p < P holds the bins m = p + P q, q < W,
    which span the whole band; with w = e^{2 pi i/N} and x = v samples,

        out_j = (W/N) sum_p w^{-pj} fft_W(transfer(d_m + i sigma) ifft_W(x_k w^{pk}))_j.

    Rows go in blocks of about ROUND_TRIP_BLOCK cells, through one set of
    block buffers that every block reuses, so memory follows the block, not
    N, and the time O(N log W) follows N.  With sigma = 0 the bins' detunings
    are real and no window is applied."""
    n = samples.size
    rows = next(p for p in range(size // n, 0, -1) if size % p == 0)
    width = size // rows
    block = min(rows, max(1, ROUND_TRIP_BLOCK // width))
    tw, spec = np.empty((block, n), complex), np.empty((block, width), complex)
    freq = np.empty((block, width), complex if sigma else float)
    acc, out = np.empty(n, complex), np.zeros(n, complex)
    if sigma:           # the detunings' imaginary parts; blocks fill the real ones
        freq.imag = sigma
        window = np.exp(np.arange(n) * (-sigma * dtau))
        samples = samples * window

    def twiddle(p, into):   # w^{p k}, the exponent reduced mod N
        np.multiply(np.multiply.outer(p, np.arange(n)) % size, 2j * math.pi / size, out=into)
        return np.exp(into, out=into)

    table = twiddle(np.arange(1, block), np.empty((block - 1, n), complex))   # w^{p k}, 0 < p < B
    step = 1.0 / (size * dtau)          # fftfreq's bin width
    for p0 in range(0, rows, block):
        m = min(block, rows - p0)
        tw_m, spec_m, freq_m = tw[:m], spec[:m], freq[:m]
        np.multiply(table[:m - 1], twiddle(p0, tw_m[0]), out=tw_m[1:])
        np.multiply(samples, tw_m, out=spec_m[:, :n])
        spec_m[:, n:] = 0.0
        np.fft.ifft(spec_m, out=spec_m)
        # the rows' bins m, signed as fftfreq signs them (integers, exact in
        # floats), then their angular detunings 2 pi m step
        d_m = freq_m.real
        np.add(np.arange(p0, p0 + m)[:, None], rows * np.arange(width), out=d_m)
        np.subtract(d_m, size, out=d_m, where=d_m > (size - 1) // 2)
        d_m *= step
        d_m *= 2.0 * math.pi
        spec_m *= transfer(freq_m.ravel()).reshape(m, width)
        np.fft.fft(spec_m, out=spec_m)
        np.einsum("rk,rk->k", np.conjugate(tw_m, out=tw_m), spec_m[:, :n], out=acc)
        out += acc
    out *= width / size
    if sigma:
        out /= window
    return out


def _check_transfer_oracle(mutate: bool = False) -> CheckResult:
    worst = 0.0
    for ratio in TRIPLE:
        params, coupling, _, (inc, trans, _) = _scatter(ratio, PI4)
        predicted = transfer_round_trip(
            inc, lambda d: transfer_oracle(params, coupling.m_total, d),
            params, coupling.m_total)
        worst = max(worst, np.max(np.abs(predicted - trans.samples)) / trans.peak())
    return _at_most(worst, 1e-4, "frequency- vs time-domain envelope")


def _check_transfer_resonance(mutate: bool = False) -> CheckResult:
    return _at_most(resonant_ratio(), 1e-6, "resonant amplitude ratio")


def _far_detector(params: SimParams) -> DetectorSpec:
    """A band 40 rates wide around omega0, 1e3 carrier wavelengths out."""
    delta0 = 40.0 * max(params.gamma, params.delta)
    omega1 = params.omega0 - delta0 / 2
    return DetectorSpec.centered(params.omega0, delta0, z=-1e3 / omega1,
                                 omega_c=params.omega0 / 1e3)


def _check_farfield_suppression(mutate: bool = False) -> CheckResult:
    params, _, traj, _ = _scatter(0.25, PI4)
    measured = i2_ratio(traj, _far_detector(params), params)
    return _at_most(measured, 1e-4, "out-of-band intensity ratio I2/I1")


def _check_farfield_bound(mutate: bool = False) -> CheckResult:
    params = _scatter(0.25, PI4)[0]
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
        worst = max(worst, abs(si(x) - si_ref), abs(ci(x) - ci_ref))
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
