"""Acceptance gate: every release criterion at its stated tolerance.

Each criterion is one test that prints a single PASS/FAIL line (written
past pytest's capture so the gate is readable in plain test logs) and
asserts the same condition.  Tolerances and runtime budgets are fixed;
loosening them is a release decision, not a test edit.

A criterion that `wqed validate` also checks, on the same inputs and at
the same tolerance, is the registry's check (`wqed.checks`), called here
and required to pass.  The gate adds what only it runs: the 7-spot
quadrature and the cutoff slope at gamma/delta = 0.25, two more
mode-oracle cells and the convergence order, the doubled-span pulse
areas, the step-halving residual ratios, the si/ci limits, and the
runtime budgets.
"""

import math
import time

import numpy as np

from wqed.checks import (
    PI4,
    TRIPLE,
    VALIDATION_CHECKS,
    _scatter,
    _scatter_cached,
    dip_profile,
    oracle_deviation,
)
from wqed.cli import main
from wqed.coupling import (
    CouplingModel,
    SimParams,
    coupling_full,
    coupling_oracle,
    evaluate_coupling,
)
from wqed.fields import consistency_residuals
from wqed.specfun import ci, si
from wqed.sweep import AREA_PASS, area_verdict, cell_params, scatter

GRID_3X3 = [(g, x) for g in TRIPLE for x in (0.0, PI4, math.pi / 2)]


def report(capfd, ok: bool, name: str, detail: str) -> None:
    """One visible line per criterion, then the actual assertion."""
    with capfd.disabled():
        print(f"{'PASS' if ok else 'FAIL'}: {name} -- {detail}")
    assert ok, f"{name}: {detail}"


def test_coupling_closed_form(capfd):
    """Full coupling equals gamma e^{i k0 l}; quadrature oracle agrees."""
    t0 = time.monotonic()
    closed = VALIDATION_CHECKS["coupling-identity"]()
    worst_quad = 0.0
    for k0l in (math.pi / 8, PI4, 1.0, math.pi / 2, math.pi,
                2.0 * math.pi, 3.0 * math.pi):
        params = SimParams.from_ratios(0.25, k0l)
        exact = coupling_full(params).m_total
        quadrature = sum(coupling_oracle(params, part) for part in (1, 2, 3, 4))
        worst_quad = max(worst_quad, abs(quadrature - exact) / params.gamma)
    elapsed = time.monotonic() - t0
    ok = closed.ok and worst_quad <= 1e-6 and elapsed < 10.0
    report(capfd, ok, "coupling closed form",
           f"max rel dev {closed.measured:.3e} (tol 1e-12, 100 points); "
           f"quadrature dev {worst_quad:.3e} (tol 1e-6, 7 spots); "
           f"{elapsed:.2f}s < 10s")


def test_cutoff_divergence_slope(capfd):
    """Im M under an infrared cutoff is affine in ln(eps), slope -gamma/pi."""
    t0 = time.monotonic()
    params = cell_params(0.25, PI4)
    eps_values = params.omega0 * 10.0 ** -np.arange(2.0, 7.0)
    imag_parts = [evaluate_coupling(params, CouplingModel.rwa_cutoff(e))
                  .m_total.imag for e in eps_values]
    slope = np.polyfit(np.log(eps_values), imag_parts, 1)[0]
    expected = -params.gamma / math.pi
    rel = abs(slope - expected) / abs(expected)
    elapsed = time.monotonic() - t0
    ok = rel <= 0.01 and elapsed < 1.0
    report(capfd, ok, "cutoff divergence slope",
           f"slope {slope:.6f} vs {expected:.6f}, rel dev {rel:.3e} "
           f"(tol 1e-2, 4 decades); {elapsed:.2f}s < 1s")


def test_negative_frequency_equivalence(capfd):
    """Keeping negative-frequency modes reproduces the full coupling."""
    result = VALIDATION_CHECKS["negfreq-equivalence"]()
    report(capfd, result.ok, "negative-frequency equivalence",
           f"max deviation {result.measured:.3e} (tol 1e-12, 100 points)")


def test_integrator_vs_mode_oracle(capfd):
    """RK4 trajectories match the exact mode decomposition; order ~ 4."""
    t0 = time.monotonic()
    triple = VALIDATION_CHECKS["mode-oracle"]()   # the TRIPLE at pi/4
    worst = max(triple.measured, oracle_deviation(0.25, 0.0),
                oracle_deviation(4.0, math.pi / 2))
    factors = (2.0, math.sqrt(2.0), 1.0)
    errors = [oracle_deviation(0.25, PI4, dt_factor=f) for f in factors]
    steps = [_scatter(0.25, PI4, dt_factor=f)[2].grid.dt for f in factors]
    order = np.polyfit(np.log(steps), np.log(errors), 1)[0]
    elapsed = time.monotonic() - t0
    ok = triple.ok and worst <= 1e-8 and order >= 3.8 and elapsed < 30.0
    report(capfd, ok, "integrator vs mode oracle",
           f"max sup-norm dev {worst:.3e} (tol 1e-8, 5 cells); "
           f"convergence order {order:.2f} >= 3.8; {elapsed:.2f}s < 30s")


def test_pulse_area_theorem(capfd):
    """Transmitted area vanishes, reflected cancels incident, on the
    3x3 coupling grid, and still does at double the grid span."""
    t0 = time.monotonic()
    grid = VALIDATION_CHECKS["pulse-area"]()
    doubled, passed = 0.0, True
    for god, k0l in GRID_3X3:
        params = cell_params(god, k0l)
        envelopes = scatter(params, coupling_full(params), span_factor=2.0)[1]
        check, trans_ratio, refl_ratio = area_verdict(envelopes, params.gamma)
        doubled = max(doubled, trans_ratio, refl_ratio)
        passed &= check == AREA_PASS
    elapsed = time.monotonic() - t0
    ok = grid.ok and passed and doubled <= 1e-5 and elapsed < 60.0
    report(capfd, ok, "pulse-area theorem",
           f"worst ratio {grid.measured:.3e} (tol 1e-3, 3x3 grid), "
           f"doubled span {doubled:.3e} (tol 1e-5); {elapsed:.2f}s < 60s")


def test_resonant_reflection(capfd):
    """Transmission dies at resonance; dip width grows with coupling."""
    result = VALIDATION_CHECKS["resonance-dip"]()
    widths, peaks = dip_profile()
    ordered = widths[0] < widths[1] < widths[2]
    report(capfd, result.ok, "resonant reflection",
           f"worst intensity ratio {result.measured:.3e} (tol 1e-4); widths "
           f"{widths[0]:.3f} < {widths[1]:.3f} < {widths[2]:.3f}: {ordered}; "
           f"strong-coupling peak ratio {peaks[-1]:.3f} < 0.3")


def test_consistency_residuals(capfd):
    """Reconstructed fields satisfy the local input-output relations;
    the residual is second order in the step."""
    result = VALIDATION_CHECKS["local-consistency"]()
    params, _, traj, envelopes = _scatter(0.25, PI4)
    coarse = consistency_residuals(traj, envelopes, params)
    params, _, traj, envelopes = _scatter(0.25, PI4, dt_factor=0.5)
    fine = consistency_residuals(traj, envelopes, params)
    ratios = [c / f for c, f in zip(coarse, fine)]
    refined = all(3.5 <= r <= 4.5 for r in ratios)
    ok = result.ok and refined
    report(capfd, ok, "consistency residuals",
           f"worst residual {result.measured:.3e} (tol 1e-3); halving the step "
           f"shrinks them {ratios[0]:.2f}x / {ratios[1]:.2f}x (expect ~4x)")


def test_transfer_function(capfd):
    """Frequency-domain transfer reproduces the time-domain envelope and
    kills the resonant component exactly."""
    envelope = VALIDATION_CHECKS["transfer-oracle"]()
    resonance = VALIDATION_CHECKS["transfer-resonance"]()
    report(capfd, envelope.ok and resonance.ok, "transfer function",
           f"envelope round-trip dev {envelope.measured:.3e} (tol 1e-4); resonant "
           f"amplitude ratio {resonance.measured:.3e} (tol 1e-6)")


def test_farfield_suppression(capfd):
    """Out-of-band and virtual-channel detector intensities are small far
    from the atoms; the detection integrals match direct quadrature."""
    i2, i3, quadrature = (VALIDATION_CHECKS[f"farfield-{name}"]()
                          for name in ("suppression", "bound", "quadrature"))
    report(capfd, i2.ok and i3.ok and quadrature.ok, "far-field suppression",
           f"out-of-band ratio {i2.measured:.3e} (tol 1e-4); virtual-channel bound "
           f"{i3.measured:.3e} (tol 1e-2); quadrature dev {quadrature.measured:.3e} "
           f"(tol 1e-6)")


def test_special_functions(capfd):
    """si/ci match their defining integrals and asymptotic limits."""
    result = VALIDATION_CHECKS["specfun"]()
    limits = True
    for big in (1e6, 1e8):
        limits &= abs(si(big) - math.pi / 2.0) <= 1.1 / big
        limits &= abs(ci(big)) <= 1.1 / big
    for small in (1e-6, 1e-3):
        limits &= abs(si(small) - small) <= small ** 3 / 17.0
        limits &= (abs(ci(small) - (np.euler_gamma + math.log(small)))
                   <= small ** 2 / 3.5)
    ok = result.ok and limits
    report(capfd, ok, "special functions",
           f"max dev from defining integrals {result.measured:.3e} (tol 1e-10, "
           f"12-point log grid); asymptotic limits hold: {limits}")


def test_validation_suite_runtime(capfd):
    """The built-in validation suite passes end to end within budget."""
    _scatter_cached.cache_clear()   # time a cold run, not the cells above
    dip_profile.cache_clear()
    t0 = time.monotonic()
    code = main(["validate"])
    elapsed = time.monotonic() - t0
    ok = code == 0 and elapsed < 120.0
    report(capfd, ok, "validation suite",
           f"exit code {code}; {elapsed:.1f}s < 120s")


# `wqed validate`'s 14 measured values at full precision, the accuracy they
# must keep: none may exceed twice its record.  The values at round-off may
# move by a few ulps on other hardware, so their bound is at least 1e-15.
ACCURACY_RECORD = {
    "coupling-identity": 3.7258694339903e-15,
    "coupling-oracle": 7.993605777301127e-15,
    "rwa-divergence": 1.3461665939591e-06,
    "negfreq-equivalence": 1.5543741876503828e-15,
    "mode-oracle": 6.6357577864715454e-12,
    "pulse-area": 1.057048122442247e-12,
    "resonance-dip": 1.0960143944303685e-24,
    "local-consistency": 1.084810825026884e-05,
    "transfer-oracle": 4.829697144332245e-08,
    "transfer-resonance": 1.0469070610280401e-12,
    "farfield-suppression": 3.920284322732396e-08,
    "farfield-bound": 0.0002755795643452169,
    "farfield-quadrature": 4.163336342344337e-17,
    "specfun": 2.220446049250313e-16,
}
ROUND_OFF = ("coupling-identity", "negfreq-equivalence", "resonance-dip",
             "farfield-quadrature", "specfun")


def test_validate_accuracy_record(capfd):
    """No validate value gets worse than twice its recorded accuracy."""
    assert list(ACCURACY_RECORD) == list(VALIDATION_CHECKS)
    worse = []
    for name, record in ACCURACY_RECORD.items():
        bound = max(2.0 * record, 1e-15) if name in ROUND_OFF else 2.0 * record
        measured = VALIDATION_CHECKS[name]().measured
        if not measured <= bound:
            worse.append(f"{name} {measured!r} > {bound!r}")
    report(capfd, not worse, "validate accuracy record",
           "; ".join(worse) or f"all {len(ACCURACY_RECORD)} values within 2x their record")
