"""Tests for source construction and amplitude integration."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erfcx

from wqed.coupling import CouplingModel, CouplingResult, SimParams, coupling_full, evaluate_coupling
from wqed.dynamics import (
    MARKOV_LIMIT,
    ORACLE_BLOCK,
    PHOTON_SCALE,
    POINT_BUDGET,
    TimeGrid,
    build_source,
    check_points,
    default_grid,
    driven_modes,
    integrate_markovian,
    markov_guard,
    oracle_modes,
    step_limit,
    tail_modes,
    _GL6_W,
    _GL6_X,
    _one_pole,
)
from wqed.errors import ConfigurationError, NumericalError

NO_COUPLING = CouplingResult(m_total=0j)


def setup(gamma_over_delta=4.0, k0l=math.pi / 4, span_factor=1.0, dt_factor=1.0):
    p = SimParams.from_ratios(gamma_over_delta, k0l)
    grid = default_grid(p, span_factor=span_factor, dt_factor=dt_factor)
    return p, build_source(p, grid)


def continued(traj, params, gap):
    """(beta1, beta2) at gap past traj's end, each tail mode u, v of
    tail_modes carried by its exponential (an undriven mode stays 0)."""
    modes = tail_modes(params, traj.m_total, traj.grid)
    u, v = ((traj.beta1[-1] + s * traj.beta2[-1]) * cmath.exp(-modes[s] * gap) if s in modes
            else 0j for s in (1, -1))
    return (u + v) / 2, (u - v) / 2


def spectral_amplitude(omega, delta, scale, omega0=2500.0):
    """alpha of a photon of width delta and amplitude scale N = `scale` as a
    function of omega = k_z > 0 (c = 1; zero elsewhere)."""
    omega = np.asarray(omega, dtype=float)
    amp = (scale * math.sqrt(1.0 / delta) * math.sqrt(1.0 / (2.0 * math.pi))
           * np.exp(-(((omega - omega0) / delta) ** 2)))
    return np.where(omega > 0, amp, 0.0)


def spectral_nodes(delta, omega0=2500.0, span=8.0, points=257):
    """Gauss-Legendre nodes and weights on omega0 +- span*delta, cut at 0."""
    lo = max(omega0 - span * delta, 0.0)
    hi = omega0 + span * delta
    x, w = np.polynomial.legendre.leggauss(points)
    return 0.5 * (hi + lo) + 0.5 * (hi - lo) * x, 0.5 * (hi - lo) * w


def norm_squared(delta, scale, omega0=2500.0):
    """int |alpha|^2 dk_z on the spectral nodes (c = 1: dk_z = d omega)."""
    omega, w = spectral_nodes(delta, omega0)
    return float(np.sum(w * spectral_amplitude(omega, delta, scale, omega0) ** 2))


def spectral_source(params, scale, times):
    """S0_1 of the atom at z = 0 as the spectral sum -i sqrt(gamma/2pi)
    int sqrt(omega0/omega) alpha e^{i (omega0 - omega) t} d omega, whose
    sqrt(omega0/omega) weight the closed form of build_source drops."""
    omega, w = spectral_nodes(params.delta, params.omega0)
    alpha = spectral_amplitude(omega, params.delta, scale, params.omega0)
    weights = (-1j * math.sqrt(params.gamma / (2.0 * math.pi))
               * np.sqrt(params.omega0 / omega) * alpha * w)
    return np.exp(1j * np.outer(times, params.omega0 - omega)) @ weights


def single_atom_convolution(params, scale, grid):
    """Closed-form solution of db/dt = S01 - gamma*b with b(t_start) = 0:
    the infinite-history convolution minus its propagated initial value."""
    amp = (-1j * scale
           * math.sqrt(params.gamma * params.delta) / (2 * math.sqrt(math.pi)))
    t = grid.times

    def tail(tt):
        return (np.exp(-(params.delta * tt) ** 2 / 4)
                * erfcx(params.gamma / params.delta - params.delta * tt / 2))

    full = tail(t)
    correction = tail(t[0]) * np.exp(-params.gamma * (t - t[0]))
    return amp * math.sqrt(math.pi) / params.delta * (full - correction)


def one_pole_loop(log_a, x):
    """Reference for _one_pole: the recursion stepped in Python."""
    a = cmath.exp(log_a)
    y = [0j]
    for value in x.tolist():
        y.append(a * y[-1] + value)
    return np.array(y)


def scan_block(log_a):
    """The block length _one_pole picks: floor(8/|ln|a||) in [8, 512]."""
    log_mag = abs(log_a.real)
    return 512 if log_mag * 512 <= 8 else max(8, int(8 / log_mag))


def rk4_pair_loop(source, coupling, params):
    """Reference for integrate_markovian: RK4 on the atom pair, with the
    2x2 propagator and drive matrices and a per-sample Python loop."""
    h = source.grid.dt
    m = complex(coupling.m_total)
    a = np.array([[-params.gamma, -m], [-m, -params.gamma]], dtype=complex)
    a2, a3 = a @ a, a @ a @ a
    eye = np.eye(2)
    prop = eye + h * a + h ** 2 / 2 * a2 + h ** 3 / 6 * a3 + h ** 4 / 24 * (a2 @ a2)
    c0 = eye + h * a + h ** 2 / 2 * a2 + h ** 3 / 4 * a3
    ch = 4 * eye + 2 * h * a + h ** 2 / 2 * a2
    c0d, c0o = complex(c0[0, 0]), complex(c0[0, 1])
    chd, cho = complex(ch[0, 0]), complex(ch[0, 1])
    s2, s2_mid = source.phase * source.s1, source.phase * source.s1_mid
    s1a, s2a = source.s1[:-1], s2[:-1]
    s1b, s2b = source.s1[1:], s2[1:]
    drive1 = (h / 6.0) * ((c0d * s1a + c0o * s2a)
                          + (chd * source.s1_mid + cho * s2_mid) + s1b)
    drive2 = (h / 6.0) * ((c0o * s1a + c0d * s2a)
                          + (cho * source.s1_mid + chd * s2_mid) + s2b)
    p, q = complex(prop[0, 0]), complex(prop[0, 1])
    beta1, beta2 = [0j], [0j]
    for d1, d2 in zip(drive1.tolist(), drive2.tolist()):
        b1, b2 = beta1[-1], beta2[-1]
        beta1.append(p * b1 + q * b2 + d1)
        beta2.append(q * b1 + p * b2 + d2)
    return np.array(beta1), np.array(beta2)


class TestIncidentWavepacket:
    def test_unit_excitation_norm(self):
        assert abs(norm_squared(0.25, PHOTON_SCALE) - 1.0) < 1e-10

    def test_left_movers_carry_nothing(self):
        alpha = spectral_amplitude(np.array([-1.0, -2500.0, 0.0]), 0.25, PHOTON_SCALE)
        assert np.all(alpha == 0.0)


class TestTimeGrid:
    def test_from_step_preserves_dt(self):
        g = TimeGrid.from_step(-1.0, 1.0, 0.01)
        assert g.dt == pytest.approx(0.01, rel=1e-12)
        assert g.t_end >= 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TimeGrid(1.0, 0.0, 100)
        with pytest.raises(ConfigurationError):
            TimeGrid.from_step(0.0, 1.0, -0.1)

    @pytest.mark.parametrize("t_end, dt", [(math.inf, 0.1), (1e308, 1e-300),
                                           (1.0, math.nan), (math.nan, 0.1)])
    def test_from_step_refuses_unbounded_counts(self, t_end, dt):
        with pytest.raises(ConfigurationError, match="budget|dt must be > 0"):
            TimeGrid.from_step(-1.0, t_end, dt)

    @pytest.mark.parametrize("factors", [(math.nan, 1.0), (1.0, math.nan),
                                         (math.inf, 1.0), (1.0, math.inf), (0.0, 1.0)])
    def test_default_grid_factors_finite_and_positive(self, factors):
        with pytest.raises(ConfigurationError, match="finite and > 0"):
            default_grid(SimParams.from_ratios(4.0, math.pi / 4), *factors)

    @pytest.mark.parametrize("gamma", [0.0, 0.02, 4.0])
    def test_default_grid_is_one_rule_for_every_gamma(self, gamma):
        # every grid ends at the source's support, 12/delta, in steps of
        # 1/(100 max(delta, gamma)); gamma = 0, with nothing to decay, ran
        # on to 20/delta before (2,801 points, 2,001 now)
        p = SimParams(gamma=gamma, delta=1.0, omega0=1e4, l=0.0)
        grid = default_grid(p)
        assert grid.t_start == -8.0 and 12.0 <= grid.t_end < 12.0 + grid.dt
        assert grid.dt == pytest.approx(0.01 / max(1.0, gamma), rel=1e-12)
        assert gamma > 0 or grid.n == 2_001

    @pytest.mark.parametrize("ratio", [0.25, 4.0])
    def test_default_grid_steps_by_the_fastest_rate(self, ratio):
        # |M| sets the step only where it exceeds max(delta, gamma) by more than
        # 1e-9 relative, so full coupling's |M| = gamma keeps the grid bitwise
        p = SimParams.from_ratios(ratio, math.pi / 4)
        rate = max(p.delta, p.gamma)
        grid = default_grid(p)
        for m in (coupling_full(p).m_total, 1j * rate * (1 + 1e-10)):
            assert default_grid(p, m_total=m) == grid
        for m in (rate * (1 + 1e-8), -3j * rate):
            fast = default_grid(p, m_total=m)
            assert fast.dt == pytest.approx(0.01 / abs(m), rel=1e-4)
            assert fast.dt < grid.dt
            # up to dt_factor 2 the step is within the integrators' limit
            assert default_grid(p, dt_factor=2.0, m_total=m).dt <= step_limit(p, m)

    def test_default_grid_caps_near_dark_modes(self):
        # a barely-driven, barely-decaying mode must not blow up the grid
        p = SimParams.from_ratios(4.0, 1e-6)
        assert default_grid(p).t_end <= 8 / p.delta + 2000.0 / p.gamma + 1e-9

    @pytest.mark.parametrize("ratio, k0l", [(0.25, 1e-3), (4.0, 1e-3), (4.0, math.pi),
                                            (0.02, math.pi - 0.05)])
    def test_tail_mode_grid_outlasts_source(self, ratio, k0l):
        # a mode slower than gamma/4 does not size the window, but the grid
        # still runs past the source's support (at gamma/delta = 4 the fast
        # mode's window alone ends at 9.5/delta), so every decaying driven
        # mode, fast or slow, is a tail (the slow one alone was before)
        p = SimParams.from_ratios(ratio, k0l)
        grid = default_grid(p, m_total=coupling_full(p).m_total)
        fast = 1 + abs(math.cos(k0l))
        assert grid.t_end >= 12 / p.delta - 1e-12
        assert grid.t_end <= max(12 / p.delta, 8 / p.delta + 12 / (fast * p.gamma)) + grid.dt
        assert set(tail_modes(p, coupling_full(p).m_total, grid)) == {1, -1}

    def test_undriven_mode_is_not_a_tail(self):
        # k0l = 0 leaves v = beta1 - beta2 exactly undriven: no tail, and
        # the grid follows u alone, the one tail ({} before u was one)
        p = SimParams.from_ratios(0.25, 0.0)
        m = coupling_full(p).m_total
        assert set(driven_modes(p, m)) == {1}
        assert set(tail_modes(p, m, default_grid(p, m_total=m))) == {1}

    def test_no_tail_on_a_grid_inside_the_source(self):
        p = SimParams.from_ratios(0.25, 1e-3)
        short = TimeGrid.from_step(-8 / p.delta, 10 / p.delta, 0.01 / p.delta)
        assert tail_modes(p, coupling_full(p).m_total, short) == {}

    def test_grid_over_budget_raises(self):
        # n = 20/delta / (0.01/gamma) + 1 = 20,000,001 at gamma/delta = 1e4, and a
        # tiny step over any span (gamma/delta = 1e-4 was over before; its grid
        # is 20/delta in steps of 0.01/delta now that it ends at the source's
        # support: 2,002 points, as the step count rounds to 2000.0000000000002)
        with pytest.raises(ConfigurationError,
                           match="needs n = 20,000,001 points, over the budget of 10,000,000"):
            default_grid(SimParams.from_ratios(1e4, math.pi / 4))
        with pytest.raises(ConfigurationError, match="budget of 10,000,000"):
            default_grid(SimParams.from_ratios(1e-4, math.pi / 4), dt_factor=1e-4)
        assert default_grid(SimParams.from_ratios(1e-4, math.pi / 4)).n == 2_002

    @pytest.mark.parametrize("n, shown", [
        (POINT_BUDGET + 1, "10,000,001"),
        (1000 * POINT_BUDGET - 1, "9,999,999,999"),
        (1000 * POINT_BUDGET, "1.000e+10"),
        (16 * 10 ** 305, "1.600e+306"),
        (10 ** 400, "1.000e+400"),  # beyond the float range
    ], ids=["over", "under-1000x", "1000x", "1.6e306", "1e400"])
    def test_budget_error_count(self, n, shown):
        with pytest.raises(ConfigurationError) as info:
            check_points("the time grid", n, "raise dt_factor")
        assert str(info.value) == (
            f"the time grid needs n = {shown} points, over the budget of "
            "10,000,000 points; raise dt_factor")
        assert check_points("the time grid", POINT_BUDGET, "") == POINT_BUDGET

    def test_grid_budget_error_names_what_shrinks_it(self):
        # n ~ span/dt: a coarser step (dt_factor up) shrinks it; the span, no
        # longer a config key, shrinks it by at most 20% (the pulse section
        # is 16/delta of the 20/delta grid), so the message names dt_factor
        # alone (gamma/delta = 1e-4 before, now 2,001 points)
        p = SimParams.from_ratios(6e3, math.pi / 4)
        with pytest.raises(ConfigurationError, match="points; raise dt_factor$"):
            default_grid(p)
        n = default_grid(p, dt_factor=2.0).n
        assert default_grid(p, dt_factor=4.0).n < n <= POINT_BUDGET
        assert default_grid(p, span_factor=1e-9, dt_factor=2.0).n >= 0.8 * n


class TestBuildSource:
    def test_peak_at_atom1_retarded_time(self):
        _, src = setup()
        i = np.argmax(np.abs(src.s1))
        assert src.grid.times[i] == pytest.approx(0.0, abs=src.grid.dt)

    def test_phase_relation_closed_form(self):
        # S0_2 = phase * S0_1 with phase = e^{i k0 l}
        p, src = setup(k0l=math.pi / 3)
        assert abs(abs(src.phase) - 1.0) < 1e-6
        assert abs(cmath.phase(src.phase) - math.pi / 3) < 1e-6

    def test_keeps_two_grid_length_arrays(self):
        # S0_2 is formed where it is used: the source keeps s1 and s1_mid only
        p, src = setup(gamma_over_delta=0.02)
        tracemalloc.start()
        try:
            src = build_source(p, src.grid)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 3 * 16 * src.grid.n

    def test_quadrature_matches_closed_form_at_peak(self):
        # delta/omega0 = 1e-3: the sqrt(omega0/omega) weight shifts the
        # peak by O((delta/omega0)^2) only
        p = SimParams.from_ratios(4.0, math.pi / 4, omega0_over_gamma=250.0)
        assert p.delta / p.omega0 == pytest.approx(1e-3, rel=1e-12)
        closed = build_source(p, default_grid(p))
        i = np.argmax(np.abs(closed.s1))
        quad = spectral_source(p, PHOTON_SCALE, closed.grid.times[i:i + 1])[0]
        assert abs(quad - closed.s1[i]) / abs(closed.s1[i]) < 1e-3

    def test_grid_too_short(self):
        p = SimParams.from_ratios(4.0, math.pi / 4)
        short = TimeGrid.from_step(-4.0 / p.delta, 20.0, 0.01 / p.gamma)
        with pytest.raises(ConfigurationError):
            build_source(p, short)


class TestIntegrateMarkovian:
    def test_single_atom_reduction(self):
        # M = 0 decouples the atoms; beta1 is the exponential convolution
        # of its own source
        p, src = setup()
        traj = integrate_markovian(src, NO_COUPLING, p)
        exact = single_atom_convolution(p, PHOTON_SCALE, src.grid)
        dev = np.abs(traj.beta1 - exact).max() / np.abs(exact).max()
        assert dev < 1e-8

    def test_zero_source_stays_zero(self):
        p, src = setup()
        silent = src._replace(s1=np.zeros_like(src.s1), s1_mid=np.zeros_like(src.s1_mid))
        traj = integrate_markovian(silent, coupling_full(p), p)
        assert np.all(traj.beta1 == 0) and np.all(traj.beta2 == 0)

    def test_matches_mode_oracle(self):
        p, src = setup()
        cpl = coupling_full(p)
        rk = integrate_markovian(src, cpl, p)
        om = oracle_modes(src, cpl, p)
        scale = np.abs(om.beta1).max()
        dev = max(np.abs(rk.beta1 - om.beta1).max(),
                  np.abs(rk.beta2 - om.beta2).max()) / scale
        assert dev < 1e-8

    def test_matches_mode_oracle_under_a_deep_cutoff(self):
        # the RWA cutoff's |M| = 5.6 gamma sets the step of its own default
        # grid, and RK4 holds the mode-oracle tolerance there too
        p = SimParams.from_ratios(4.0, math.pi / 4)
        cpl = evaluate_coupling(p, CouplingModel.rwa_cutoff(1e-3))
        assert abs(cpl.m_total) > 5 * p.gamma
        src = build_source(p, default_grid(p, m_total=cpl.m_total))
        rk = integrate_markovian(src, cpl, p)
        om = oracle_modes(src, cpl, p)
        scale = max(np.abs(om.beta1).max(), np.abs(om.beta2).max())
        dev = max(np.abs(rk.beta1 - om.beta1).max(),
                  np.abs(rk.beta2 - om.beta2).max()) / scale
        assert dev < 1e-8

    def test_step_size_guard(self):
        p = SimParams.from_ratios(1.0, math.pi / 4)
        coarse = TimeGrid.from_step(-8 / p.delta, 8 / p.delta + 12 / p.gamma,
                                    0.1 / p.gamma)
        src = build_source(p, coarse)
        with pytest.raises(ConfigurationError):
            integrate_markovian(src, coupling_full(p), p)

    def test_nan_detection_reports_time(self):
        p, src = setup()
        k = src.grid.n // 2
        src.s1[k] = float("nan")
        with pytest.raises(NumericalError, match=f"t = {src.grid.times[k]}$"):
            integrate_markovian(src, coupling_full(p), p)

    def test_decay_and_bound_invariants(self):
        for gd in (0.02, 0.25, 4.0):
            p, src = setup(gamma_over_delta=gd)
            traj = integrate_markovian(src, coupling_full(p), p)
            pop = np.abs(traj.beta1) ** 2 + np.abs(traj.beta2) ** 2
            assert pop.max() <= 1.0
            assert traj.beta1[0] == 0.0 and traj.beta2[0] == 0.0
            # the grid ends at the source's support, where the modes carry on
            # as tails: the amplitudes 12 decay lengths of the slowest later
            # are decayed (the end samples themselves were, on grids that ran
            # that far: np.abs(b[-1]) <= 1e-3 * np.abs(b).max())
            modes = tail_modes(p, traj.m_total, traj.grid)
            assert set(modes) == {1, -1}
            later = continued(traj, p, 12 / min(lam.real for lam in modes.values()))
            for b, end in zip((traj.beta1, traj.beta2), later):
                assert abs(end) <= 1e-3 * np.abs(b).max()

    def test_convergence_order(self):
        p, _ = setup()
        cpl = coupling_full(p)
        errs = []
        for factor in (2.0, 1.0):
            grid = default_grid(p, dt_factor=factor)
            src = build_source(p, grid)
            rk = integrate_markovian(src, cpl, p)
            om = oracle_modes(src, cpl, p)
            errs.append(max(np.abs(rk.beta1 - om.beta1).max(),
                            np.abs(rk.beta2 - om.beta2).max())
                        / np.abs(om.beta1).max())
        order = math.log2(errs[0] / errs[1])
        assert order >= 3.8


class TestOnePole:
    @pytest.mark.parametrize("log_a", [
        -(1 + 0.5j) * rate_h for rate_h in (2.0, 0.02, 2e-3, 1e-5, 0.0)])
    def test_matches_python_loop(self, log_a):
        block = scan_block(log_a)
        rng = np.random.default_rng(7)
        for n in (0, 1, block - 1, block, block + 1, 2 * block + 3):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            y, ref = _one_pole(log_a, x), one_pole_loop(log_a, x)
            assert y.shape == (n + 1,) and y[0] == 0
            if n:
                assert np.abs(y - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("log_a", [-1e-7 + 1e-6j, -1e-9 + 0j, -2e-8 + 3e-5j])
    def test_pole_next_to_one_keeps_precision(self, log_a):
        # constant drive: y[k] = (a^k - 1)/(a - 1).  Stepping the rounded
        # a in a loop is off by 2e-12 to 1.4e-11 here
        n = 1_000_000
        y = _one_pole(log_a, np.ones(n, dtype=complex))
        exact = np.expm1(np.arange(n + 1) * log_a) / np.expm1(log_a)
        assert np.abs(y - exact).max() <= 5e-13 * np.abs(exact).max()

    @pytest.mark.parametrize("log_a", [-0.02 + 0j, -1e-5 + 1e-3j])
    def test_first_non_finite_output_follows_input(self, log_a):
        block = scan_block(log_a)
        for k in (0, 5, block - 1, block, block + 1, 3 * block + 7):
            x = np.ones(4 * block, dtype=complex)
            x[k] = float("nan")
            bad = np.flatnonzero(~np.isfinite(_one_pole(log_a, x)))
            assert bad[0] == k + 1


class TestModeBasisRK4:
    """integrate_markovian against RK4 stepped on the atom pair."""

    @pytest.mark.parametrize("gamma_over_delta", [0.02, 0.25, 4.0])
    @given(k0l=st.floats(min_value=0.0, max_value=2 * math.pi))
    @example(k0l=0.0)
    @example(k0l=1e-3)
    @example(k0l=math.pi - 0.05)
    @example(k0l=math.pi)
    @example(k0l=2 * math.pi - 1e-3)
    @settings(max_examples=12, deadline=None)
    def test_matches_pair_loop(self, gamma_over_delta, k0l):
        p = SimParams.from_ratios(gamma_over_delta, k0l)
        cpl = coupling_full(p)
        grid = default_grid(p, m_total=cpl.m_total)
        # the loop's own rounding grows with its length (nearly-dark
        # cells reach 1e-12 at 40,000 steps), so keep it short
        n = min(grid.n, 10_000)
        grid = TimeGrid(grid.t_start, grid.t_start + grid.dt * (n - 1), n)
        src = build_source(p, grid)
        traj = integrate_markovian(src, cpl, p)
        ref1, ref2 = rk4_pair_loop(src, cpl, p)
        scale = max(np.abs(ref1).max(), np.abs(ref2).max())
        dev = max(np.abs(traj.beta1 - ref1).max(), np.abs(traj.beta2 - ref2).max())
        assert dev <= 1e-12 * scale

    def test_symmetric_drive_gives_equal_amplitudes(self):
        p, src = setup(k0l=0.0)
        traj = integrate_markovian(src, coupling_full(p), p)
        assert np.array_equal(traj.beta1, traj.beta2)

    def test_peak_memory(self):
        # the drive is never copied into Python lists: the peak stays
        # below eight grid-length complex arrays
        p, src = setup(gamma_over_delta=0.02)
        cpl = coupling_full(p)
        tracemalloc.start()
        try:
            integrate_markovian(src, cpl, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 16 * src.grid.n


class TestOracleModes:
    def test_gauss_legendre_table_is_leggauss(self):
        # written out so that no LAPACK eigensolver runs at import
        x, w = np.polynomial.legendre.leggauss(6)
        assert _GL6_X.tobytes() == x.tobytes() and _GL6_W.tobytes() == w.tobytes()

    def test_symmetric_drive_leaves_dark_mode_empty(self):
        # k0l = 0: both atoms driven identically, v = beta1 - beta2 = 0
        p, src = setup(k0l=0.0)
        traj = oracle_modes(src, coupling_full(p), p)
        v = traj.beta1 - traj.beta2
        assert np.abs(v).max() <= 1e-14 * np.abs(traj.beta1).max()

    def test_superradiant_rate_at_zero_separation(self):
        # gamma << delta: the pulse is over quickly, then the only
        # populated mode free-decays at 2*gamma
        p, src = setup(gamma_over_delta=0.25, k0l=0.0)
        traj = oracle_modes(src, coupling_full(p), p)
        t = src.grid.times
        sel = (t > 9 / p.delta) & (t < 9 / p.delta + 2 / p.gamma)
        u = np.abs(traj.beta1[sel] + traj.beta2[sel])
        rate = -np.polyfit(t[sel], np.log(u), 1)[0]
        assert rate == pytest.approx(2 * p.gamma, rel=1e-3)

    def test_quarter_period_modes_decay_at_gamma(self):
        # k0l = pi/2: M = i*gamma, both modes |u|,|v| decay at gamma
        p, src = setup(gamma_over_delta=0.25, k0l=math.pi / 2)
        traj = oracle_modes(src, coupling_full(p), p)
        t = src.grid.times
        sel = (t > 9 / p.delta) & (t < 9 / p.delta + 2 / p.gamma)
        for combo in (traj.beta1 + traj.beta2, traj.beta1 - traj.beta2):
            rate = -np.polyfit(t[sel], np.log(np.abs(combo[sel])), 1)[0]
            assert rate == pytest.approx(p.gamma, rel=1e-3)

    def test_chunked_drive_is_bitwise_and_lean(self):
        # the Gauss-node drive is built a chunk of steps at a time from the
        # real Gaussian, each mode's factor peak (1 +- phase) in its kernel:
        # the amplitudes equal the one-shot (n-1) x 6 real node array,
        # contracted by the same einsum, bit for bit, and the peak stays
        # below 3.5 grid-length complex arrays (u, v and beta1 at the end,
        # with the finiteness masks)
        # a grid 12 decay lengths of the slow mode past the pulse, as
        # default_grid ran before: its 206,454 points cover more than ten
        # chunks (default_grid's now 2,001)
        p = SimParams.from_ratios(0.02, math.pi / 4)
        t_end = 8 / p.delta + 12 / ((1 - math.cos(math.pi / 4)) * p.gamma)
        src = build_source(p, TimeGrid.from_step(-8 / p.delta, t_end, 0.01 / p.delta))
        cpl = coupling_full(p)
        tracemalloc.start()
        try:
            traj = oracle_modes(src, cpl, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert src.grid.n > 10 * ORACLE_BLOCK
        assert peak < 3.5 * 16 * src.grid.n

        h = src.grid.dt
        tau = 0.5 * h * (_GL6_X + 1.0)
        nodes = src.envelope((src.grid.times[:-1, None] + tau[None, :]).ravel()).reshape(-1, 6)
        modes = []
        for rate, f in ((p.gamma + cpl.m_total, 1.0 + src.phase),
                        (p.gamma - cpl.m_total, 1.0 - src.phase)):
            kernel = np.exp(-rate * (h - tau)) * _GL6_W * (0.5 * h) * (src.peak * f)
            modes.append(_one_pole(-rate * h, np.einsum("kj,j->k", nodes, kernel)))
        u, v = modes
        assert np.array_equal(traj.beta1, (u + v) * 0.5)
        assert np.array_equal(traj.beta2, (u - v) * 0.5)


class TestSystemInvariants:
    @given(st.floats(min_value=0.2, max_value=5.0),
           st.floats(min_value=-math.pi, max_value=math.pi))
    @settings(max_examples=8, deadline=None)
    def test_linearity(self, mag, phase):
        lam = mag * complex(math.cos(phase), math.sin(phase))
        p, src = setup(gamma_over_delta=1.0)
        cpl = coupling_full(p)
        base = integrate_markovian(src, cpl, p)
        scaled_src = src._replace(s1=lam * src.s1, s1_mid=lam * src.s1_mid)
        scaled = integrate_markovian(scaled_src, cpl, p)
        assert np.allclose(scaled.beta1, lam * base.beta1, rtol=1e-13, atol=1e-18)
        assert np.allclose(scaled.beta2, lam * base.beta2, rtol=1e-13, atol=1e-18)

    def test_swap_symmetry(self):
        # exchanging the atoms (and their drives) swaps the trajectories
        # bitwise: the update rule is symmetric in the pair.  With phase = i
        # the exchanged drives (i s1, -i (i s1) = s1) are exact in floating point
        p, src = setup(k0l=1.3)
        cpl = coupling_full(p)
        src = src._replace(phase=1j)
        base = integrate_markovian(src, cpl, p)
        swapped_src = src._replace(s1=1j * src.s1, s1_mid=1j * src.s1_mid, phase=-1j)
        swapped = integrate_markovian(swapped_src, cpl, p)
        assert np.array_equal(swapped.beta1, base.beta2)
        assert np.array_equal(swapped.beta2, base.beta1)

    def test_doubling_window_shrinks_endpoint(self):
        # span 2 runs 8/delta past the pulse section instead of 4/delta, all
        # of it past the source's support: the long end is the short end
        # continued by its tail modes, and smaller (it was 10x smaller,
        # np.abs(long.beta1[-1]) < 0.1 * np.abs(short.beta1[-1]), when the
        # spans were 12 and 24 decay lengths)
        p, src = setup(gamma_over_delta=0.25)
        cpl = coupling_full(p)
        short = integrate_markovian(src, cpl, p)
        grid2 = default_grid(p, span_factor=2.0)
        src2 = build_source(p, grid2)
        long = integrate_markovian(src2, cpl, p)
        later = continued(short, p, long.grid.times[-1] - short.grid.times[-1])
        for b, end in zip((long.beta1, long.beta2), later):
            assert abs(b[-1] - end) <= 1e-12 * np.abs(b).max()
        assert np.abs(long.beta1[-1]) < np.abs(short.beta1[-1])


class TestMarkovGuard:
    """The three ratios against the one limit, MARKOV_LIMIT = 0.2."""

    def test_all_pass(self):
        p = SimParams(gamma=1.0, delta=1.0, omega0=1000.0, l=0.01)
        assert max(markov_guard(p).values()) <= MARKOV_LIMIT == 0.2

    def test_flight_time_warning(self):
        p = SimParams(gamma=1.0, delta=1.0, omega0=1000.0, l=1.0)
        ratios = markov_guard(p)
        assert ratios["retardation"] == 2.0 > MARKOV_LIMIT
        assert [name for name, value in ratios.items() if value > MARKOV_LIMIT] == [
            "retardation"]

    def test_carrier_ratio_warning(self):
        # 0.1 was over the old warning ratio, 0.05; 0.25 is over the limit
        for omega0, over in ((10.0, []), (4.0, ["gamma_over_omega0", "delta_over_omega0"])):
            ratios = markov_guard(SimParams(gamma=1.0, delta=1.0, omega0=omega0, l=0.001))
            assert [name for name, value in ratios.items() if value > MARKOV_LIMIT] == over
