"""Tests for field reconstruction, pulse areas, spectra, and the
frequency-domain transfer oracle."""

import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (full_dft_spectrum, oracle_dip_width, padded_round_trip,
                     reflection_oracle, run_limited, tail_samples)
from wqed.checks import (WRAP_FRACTION, _scatter, pruned_round_trip, round_trip_window,
                         transfer_round_trip)
from wqed.sweep import AREA_FAIL, AREA_PASS, AREA_TRUNCATED, area_verdict, scatter
from wqed.coupling import CouplingModel, SimParams, coupling_full, evaluate_coupling
from wqed.dynamics import (
    PHOTON_SCALE,
    AmplitudeTrajectory,
    TimeGrid,
    build_source,
    default_grid,
    integrate_markovian,
)
from wqed.errors import (
    ConfigurationError,
    GridMismatch,
    NumericalError,
)
from wqed.fields import (
    INCIDENT,
    REFLECTED,
    TRANSMITTED,
    FieldEnvelope,
    _chirp,
    consistency_residuals,
    dip_width,
    fft_length,
    radiation_prefactors,
    reconstruct_fields,
    spectrum,
    spectrum_zones,
    transfer_oracle,
)

COUPLING_RATIOS = (0.02, 0.25, 4.0)
SEPARATIONS = (0.0, math.pi / 4, math.pi / 2)

# regression values for the transmission-dip full width at half depth
# (units of delta), k0l = pi/4, default grid
DIP_WIDTH_ORACLE = {0.02: 0.0525, 0.25: 0.4306, 4.0: 1.0594}

# (N, sigma) of the transfer round trip by (gamma/delta, k0l): on the
# 2,001-point grids the 8n cap binds and the window makes up the decay; the
# (4, pi/4) cell's own decay within 2.19n points leaves it undamped
ROUND_TRIP_WINDOWS = {
    (0.02, math.pi / 4): (16_200, 8.27137745467349),
    (0.25, math.pi / 4): (16_200, 0.42553195261970417),
    (4.0, math.pi / 4): (17_496, 0.0),
    (0.25, 0.3): (16_200, 0.6431006947818455),
}


def run_case(gamma_over_delta, k0l, span_factor=1.0, dt_factor=1.0, model=None):
    """Integrate one scattering event; returns (params, traj, coupling)."""
    p = SimParams.from_ratios(gamma_over_delta, k0l)
    coup = evaluate_coupling(p, model or CouplingModel.full())
    grid = default_grid(p, span_factor=span_factor, dt_factor=dt_factor,
                        m_total=coup.m_total)
    return p, integrate_markovian(build_source(p, grid), coup, p), coup


def at_resonance(spec) -> complex:
    """A spectrum's amplitude at zero detuning, a bin of every spectrum."""
    return complex(spec.amplitude[spec.detuning == 0.0].item())


def gamma_zero_case():
    """A run with the coupling switched off entirely."""
    p = SimParams(gamma=0.0, delta=1.0, omega0=1e4, l=math.pi / 4 * 1e-4)
    coup = evaluate_coupling(p, CouplingModel.full())
    grid = default_grid(p, m_total=coup.m_total)
    return p, integrate_markovian(build_source(p, grid), coup, p), coup


class TestFieldEnvelope:
    def test_pulse_area_matches_recompute(self):
        """Stored area is bitwise the trapezoid of the stored samples plus
        the tail's area."""
        p, traj, coup = run_case(0.25, math.pi / 4)
        for env in reconstruct_fields(traj, p):
            assert env.pulse_area == complex(np.trapezoid(env.samples, env.tau)) + env.tail_area

    def test_kind_guard(self):
        with pytest.raises(ConfigurationError, match="kind"):
            FieldEnvelope(kind="sideways", tau=np.arange(5.0),
                          samples=np.zeros(5, complex), delta=1.0)

    def test_shape_guard(self):
        with pytest.raises(ConfigurationError):
            FieldEnvelope(kind=INCIDENT, tau=np.arange(5.0),
                          samples=np.zeros(4, complex), delta=1.0)
        with pytest.raises(ConfigurationError):
            FieldEnvelope(kind=INCIDENT, tau=np.arange(2.0),
                          samples=np.zeros(2, complex), delta=1.0)

    def test_null_field_counts_as_decayed(self):
        env = FieldEnvelope(kind=REFLECTED, tau=np.linspace(0, 1, 9),
                            samples=np.zeros(9, complex), delta=1.0)
        assert env.end_fraction() == 0.0
        assert env.ends_decayed()

    def test_ends_judged_against_incident_peak_too(self):
        # a peak shrunk to 1e-2 of the incident's: an end of 5e-5 is 5e-3 of
        # its own peak, 5e-5 of the incident's; the larger peak rules
        own = FieldEnvelope(kind=TRANSMITTED, tau=np.arange(4.0),
                            samples=np.array([5e-5, 1e-2, 0, 0], complex), delta=1.0)
        assert not own.ends_decayed()
        assert dataclasses.replace(own, incident_peak=1e-3).end_fraction() == 5e-3
        assert dataclasses.replace(own, incident_peak=1.0).end_fraction() == 5e-5

    def test_prefactor_identity(self):
        """kappa * |G0j| reproduces gamma; G01 is real (atom 1 at z = 0) and
        G02 carries e^{i k0 l}."""
        p = SimParams.from_ratios(0.5, math.pi / 3)
        pref = radiation_prefactors(p)
        assert pref.kappa * abs(pref.g01) == pytest.approx(p.gamma, rel=1e-14)
        assert pref.g01 == pytest.approx(math.sqrt(p.gamma / (2 * math.pi)))
        expected = math.sqrt(p.gamma / (2 * math.pi)) * np.exp(1j * p.k0l)
        assert pref.g02 == pytest.approx(expected, rel=1e-14)


class TestReconstructFields:
    def test_kinds_and_grid(self):
        p, traj, coup = run_case(0.25, math.pi / 4)
        inc, trans, refl = reconstruct_fields(traj, p)
        assert (inc.kind, trans.kind, refl.kind) == (INCIDENT, TRANSMITTED, REFLECTED)
        assert np.array_equal(inc.tau, traj.grid.times)

    def test_incident_is_the_gaussian_envelope(self):
        """A_inc is the closed-form Gaussian, independent of the coupling."""
        p, traj, coup = run_case(4.0, math.pi / 2)
        inc = reconstruct_fields(traj, p)[0]
        expected = (PHOTON_SCALE * math.sqrt(p.delta / 2)
                    * np.exp(-0.25 * (p.delta * inc.tau) ** 2))
        np.testing.assert_allclose(inc.samples, expected, rtol=0, atol=1e-300)

    def test_gamma_zero_transmits_unchanged(self):
        """No scatterer: transmitted equals incident, reflected vanishes."""
        p, traj, coup = gamma_zero_case()
        inc, trans, refl = reconstruct_fields(traj, p)
        assert np.array_equal(trans.samples, inc.samples)
        assert not np.any(refl.samples)

    def test_strong_coupling_suppresses_transmission(self):
        """Fast atoms re-radiate almost everything: peak ratio < 0.3."""
        p, traj, coup = run_case(4.0, math.pi / 4)
        inc, trans, refl = reconstruct_fields(traj, p)
        assert trans.peak() / inc.peak() < 0.3

    def test_strong_coupling_reflects_inverted(self):
        """For gamma >> delta the reflected envelope approaches -A_inc."""
        p, traj, coup = run_case(10.0, math.pi / 4)
        inc, trans, refl = reconstruct_fields(traj, p)
        dev = float(np.max(np.abs(refl.samples + inc.samples))) / inc.peak()
        assert dev < 0.10

    @pytest.mark.parametrize("ratio", [0.25, 4.0])
    def test_transmitted_parts_change_sign(self, ratio):
        """Both quadratures of A_trans cross zero (a vanishing-area shape)."""
        p, traj, coup = run_case(ratio, math.pi / 4)
        trans = reconstruct_fields(traj, p)[1]
        re, im = trans.samples.real, trans.samples.imag
        assert np.any(re[1:] * re[:-1] < 0)
        assert np.any(im[1:] * im[:-1] < 0)

    def test_grid_must_contain_arrival(self):
        p, traj, coup = run_case(0.25, math.pi / 4)
        late = TimeGrid(t_start=5.0 / p.delta, t_end=20.0 / p.delta, n=301)
        z = np.zeros(301, dtype=complex)
        with pytest.raises(GridMismatch, match="arrival"):
            reconstruct_fields(AmplitudeTrajectory(late, z, z), p)


class TestPulseAreas:
    @pytest.mark.parametrize("ratio", COUPLING_RATIOS)
    @pytest.mark.parametrize("k0l", SEPARATIONS)
    def test_area_theorem(self, ratio, k0l):
        """Transmitted area vanishes and reflected cancels incident, for
        every coupling strength and separation."""
        p, traj, coup = run_case(ratio, k0l)
        assert area_verdict(reconstruct_fields(traj, p), p.gamma)[0] == AREA_PASS

    def test_longer_grid_tightens_areas(self):
        """At double the post-pulse window the residuals stay below 1e-5
        (with every decaying mode a tail, the window no longer moves them)."""
        p, traj, coup = run_case(0.02, math.pi / 2, span_factor=2.0)
        check, trans_ratio, refl_ratio = area_verdict(reconstruct_fields(traj, p), p.gamma)
        assert check == AREA_PASS and max(trans_ratio, refl_ratio) <= 1e-5

    def test_incident_area_closed_form(self):
        """S_inc equals the Gaussian integral N sqrt(delta/2) * 2 sqrt(pi)/delta."""
        p, traj, coup = run_case(0.25, 0.0)
        s_inc = reconstruct_fields(traj, p)[0].pulse_area
        expected = PHOTON_SCALE * math.sqrt(p.delta / 2) * 2 * math.sqrt(math.pi) / p.delta
        # the grid starts 8 bandwidths before the peak, cutting a left
        # tail of erfc(4)/2 ~ 7.7e-9 of the area
        assert s_inc == pytest.approx(expected, rel=1e-7)

    def test_gamma_zero_trivial(self):
        p, traj, coup = gamma_zero_case()
        s_inc, s_trans, s_refl = (env.pulse_area for env in reconstruct_fields(traj, p))
        assert s_trans == s_inc
        assert s_refl == 0

    def test_rwa_coupling_breaks_theorem(self):
        """A coupling without the compensating virtual part leaks the
        resonant component into transmission."""
        p, traj, coup = run_case(0.25, math.pi / 4,
                                     model=CouplingModel.rwa_const_g())
        check, trans_ratio, _ = area_verdict(reconstruct_fields(traj, p), p.gamma)
        assert check == AREA_FAIL and trans_ratio > 0.1

    def test_truncated_grid_reads_truncated(self):
        p = SimParams.from_ratios(0.25, math.pi / 4)
        coup = evaluate_coupling(p, CouplingModel.full())
        dt = default_grid(p).dt
        short = TimeGrid.from_step(-8.0 / p.delta, 8.0 / p.delta, dt)
        src = build_source(p, short)
        traj = integrate_markovian(src, coup, p)
        assert area_verdict(reconstruct_fields(traj, p), p.gamma)[0] == AREA_TRUNCATED


def smooth_lengths(limit):
    """Every 2^a 3^b 5^c <= limit, by enumeration."""
    found = {1}
    frontier = [1]
    while frontier:
        k = frontier.pop()
        for p in (2, 3, 5):
            if k * p <= limit and k * p not in found:
                found.add(k * p)
                frontier.append(k * p)
    return sorted(found)


SMOOTH_TO_10K = smooth_lengths(10_000)


def has_only_factors_235(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


class TestFftLength:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=5000))
    def test_smallest_5_smooth_at_least_n(self, n):
        m = fft_length(n)
        assert m >= n
        assert has_only_factors_235(m)
        assert m == min(k for k in SMOOTH_TO_10K if k >= n)

    @pytest.mark.parametrize("n", [6_412_808, 1_651_632, 83_992, 2**20 + 1])
    def test_large_lengths_are_minimal(self, n):
        m = fft_length(n)
        assert m == min(k for k in smooth_lengths(2 * n) if k >= n)

    def test_guard(self):
        with pytest.raises(ConfigurationError, match="FFT length"):
            fft_length(0)


class TestSpectrum:
    def test_parseval(self):
        """Time-domain and spectral energies agree to 1e-6 relative.  The
        grid ends at the source's support, so the time-domain side adds the
        tail's energy in closed form, dtau sum_{k>=1} |sum c e^{-lam k dtau}|^2
        (it was the samples' alone).  The identity is the uniform DFT's: on a
        cell whose lines are all wider than the coarse bins, every spectrum is
        the coarse zone alone (at 0.25, pi/4 the slow line adds a finer zone)."""
        p, traj, coup = run_case(4.0, math.pi / 4)
        for env in reconstruct_fields(traj, p):
            sp = spectrum(env)
            assert len(spectrum_zones(env.dtau, env.delta, env.tail)) == 1
            tail = sum(c * d.conjugate() / np.expm1((lam + mu.conjugate()) * env.dtau)
                       for c, lam in env.tail for d, mu in env.tail)
            lhs = (float(np.sum(np.abs(env.samples) ** 2)) + tail.real) * env.dtau
            d_abs = (sp.detuning[1] - sp.detuning[0]) * env.delta
            rhs = float(np.sum(sp.intensity)) * d_abs / (2 * math.pi)
            assert rhs == pytest.approx(lhs, rel=1e-6)

    def test_incident_spectrum_is_gaussian(self):
        """|A~_inc|^2 falls to e^-2 of its peak at one bandwidth detuning."""
        p, traj, coup = run_case(0.25, math.pi / 4)
        sp = spectrum(reconstruct_fields(traj, p)[0])
        band = np.abs(sp.detuning) <= 2.0
        peak = float(sp.intensity[np.argmin(np.abs(sp.detuning))])
        expected = peak * np.exp(-2.0 * sp.detuning[band] ** 2)
        np.testing.assert_allclose(sp.intensity[band], expected, rtol=1e-5)

    @pytest.mark.parametrize("ratio", COUPLING_RATIOS)
    def test_resonance_never_transmitted(self, ratio):
        """The on-resonance transmitted intensity is suppressed by > 1e6."""
        p, traj, coup = run_case(ratio, math.pi / 4)
        inc, trans, refl = reconstruct_fields(traj, p)
        ratio_i = (abs(at_resonance(spectrum(trans))) ** 2
                   / abs(at_resonance(spectrum(inc))) ** 2)
        assert ratio_i <= 1e-6

    def test_area_equals_resonant_component(self):
        """The pulse area is the zero-detuning Fourier amplitude."""
        p, traj, coup = run_case(0.25, math.pi / 4)
        fields = reconstruct_fields(traj, p)
        s_inc, s_trans, s_refl = (env.pulse_area for env in fields)
        sp_inc, sp_trans, _ = (spectrum(env) for env in fields)
        scale = abs(at_resonance(sp_inc))
        assert abs(s_trans - at_resonance(sp_trans)) / scale <= 1e-6
        assert abs(s_inc - at_resonance(sp_inc)) / scale <= 1e-6

    @staticmethod
    def assert_matches_direct_dft(env, sp):
        """Amplitudes at ~20 detunings within 4 widths equal the direct sum
        sum_j A_j e^{i omega tau_j} dtau, over the samples, the first weighted
        by half, and then the tail's (tail_samples), to 1e-12 of the largest."""
        inside = np.flatnonzero(np.abs(sp.detuning) <= 4.0)
        picks = inside[np.linspace(0, inside.size - 1, 21).astype(int)]
        omega = sp.detuning[picks] * env.delta
        tail_tau, tail = tail_samples(env)
        samples = env.samples.copy()
        samples[0] *= 0.5
        direct = sum(np.exp(1j * np.outer(omega, tau)) @ values * env.dtau
                     for tau, values in ((env.tau, samples), (tail_tau, tail)))
        scale = float(np.max(np.abs(direct)))
        assert float(np.max(np.abs(sp.amplitude[picks] - direct))) <= 1e-12 * scale

    def test_direct_dft_even_padded_length(self):
        p, traj, coup = run_case(0.25, math.pi / 4)
        trans = reconstruct_fields(traj, p)[1]
        sp = spectrum(trans)
        # the coarse DFT is the source's 24/delta support padded 16 times on
        # the grid's step, whatever the samples (it followed the resolved span)
        assert sp.fft_len == round(16 * 24 / (p.delta * trans.dtau)) == 38_400
        assert 0.0 in sp.detuning and sp.detuning.size <= 1_600
        self.assert_matches_direct_dft(trans, sp)

    def test_direct_dft_odd_padded_length(self):
        """A step whose padded support is an odd number of steps: an odd-length
        DFT, whose range of +-pi/dtau clips the +-8 window."""
        tau = np.arange(-12, 13) * (384 / 405)
        samples = np.exp(-0.25 * tau ** 2) * np.exp(0.7j * tau) * (1 + 0.2 * tau)
        env = FieldEnvelope(kind=TRANSMITTED, tau=tau, samples=samples, delta=1.0)
        sp = spectrum(env)
        assert sp.fft_len == sp.detuning.size == 405
        assert sp.detuning[sp.detuning.size // 2] == 0.0
        self.assert_matches_direct_dft(env, sp)

    def test_dip_width_grows_with_coupling(self):
        """The transmission dip widens monotonically with gamma/delta."""
        widths = []
        for ratio in COUPLING_RATIOS:
            p, traj, coup = run_case(ratio, math.pi / 4)
            trans = reconstruct_fields(traj, p)[1]
            widths.append(dip_width(spectrum(trans)))
            assert widths[-1] == pytest.approx(DIP_WIDTH_ORACLE[ratio], rel=2e-2)
        assert widths[0] < widths[1] < widths[2]

    def test_no_dip_raises(self):
        p, traj, coup = gamma_zero_case()
        trans = reconstruct_fields(traj, p)[1]
        with pytest.raises(NumericalError, match="dip"):
            dip_width(spectrum(trans))


class TestWindowedSpectrum:
    """Each zone of spectrum() holds the bins of a plain full DFT of its
    length that lie within +-8 widths, less those a finer zone spans."""

    @staticmethod
    def full_dft_reference(env):
        """(spectrum, the same axis with every bin taken from the full DFT
        of the zone it came from)."""
        spec = spectrum(env)
        amplitude = np.full(spec.amplitude.shape, np.nan, dtype=complex)
        for n, m_lo, m_hi in spectrum_zones(env.dtau, env.delta, env.tail):
            full = full_dft_spectrum(env, n)
            assert full.fft_len == n == full.amplitude.size
            zone = slice(m_lo + n // 2, m_hi + n // 2 + 1)
            mine = np.isin(spec.detuning, full.detuning[zone])
            amplitude[mine] = full.amplitude[zone][np.isin(full.detuning[zone], spec.detuning)]
        assert not np.isnan(amplitude).any()       # every bin comes from one zone
        return spec, spec._replace(amplitude=amplitude)

    @pytest.mark.parametrize("ratio", COUPLING_RATIOS)
    def test_matches_full_spectrum(self, ratio):
        """Both envelopes of a pi/4 cell: the incident one on the coarse zone
        alone, the transmitted one with each line finer than it."""
        inc, trans, _ = _scatter(ratio, math.pi / 4)[3]
        for env in (inc, trans):
            spec, full = self.full_dft_reference(env)
            scale = float(np.max(np.abs(full.amplitude)))
            assert float(np.max(np.abs(spec.amplitude - full.amplitude))) <= 1e-13 * scale
            assert spec.detuning[0] >= -8.0 and spec.detuning[-1] <= 8.0
        assert inc.tail == () and spectrum(inc).detuning.size == 977

    @pytest.mark.parametrize("ratio", COUPLING_RATIOS)
    @pytest.mark.parametrize("k0l", SEPARATIONS)
    def test_dip_width_unchanged(self, ratio, k0l):
        spec, full = self.full_dft_reference(_scatter(ratio, k0l)[3][1])
        assert dip_width(spec) == pytest.approx(dip_width(full), rel=1e-12)

    def test_chirp_phase_reduced_exactly(self):
        """e^{i pi t^2 / n} is periodic in t with period n for even n; exact
        integer reduction keeps far-out chirps bitwise equal to near ones."""
        n = 6_480_000
        t = np.arange(-500, 500)
        assert np.array_equal(_chirp(t + 3 * n, n), _chirp(t, n))

    def test_chirp_past_int64(self):
        """A fine zone's n can pass 2^63 (2e19 at (1e-3, 1e-6)): its chirp is
        taken without the int64 reduction, to round-off of the exact phase."""
        n = 20_106_192_982_974_676_992
        t = np.array([0, 1, -7, 32_000_000, -2_640_000_000, 3_000_000_000])
        exact = np.array([np.exp(1j * math.pi * (int(x) ** 2 / n)) for x in t])
        assert np.max(np.abs(_chirp(t, n) - exact)) <= 1e-15

    def test_memory_scales_with_window_not_padding(self):
        """A spectrum allocates well under one complex buffer of its coarse
        DFT's length (38,400), though its line's DFT has 32,176,612 points."""
        trans = _scatter(0.25, 0.05)[3][1]
        lengths = [n for n, _, _ in spectrum_zones(trans.dtau, trans.delta, trans.tail)]
        assert lengths[0] == 38_400 and max(lengths) == 32_176_612
        tracemalloc.start()
        try:
            spectrum(trans)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * lengths[0]


DIP_CELLS = {   # (gamma/delta, k0l): the transfer oracle's dip width
    (0.25, 0.05): 0.245933, (4.0, 0.05): 0.549979, (0.25, math.pi / 4): 0.430713,
    (0.02, math.pi / 4): 0.052527, (0.25, 1e-3): 0.224900, (4.0, math.pi / 4): 1.059630,
    (1e-3, math.pi / 4): 0.0027599,
}
# next to a dark phase and at it; (0.25, 1.83e-8) brings a line's chirp
# nearest the int64 limit
EDGE_CELLS = [(1e-3, 1e-6), (0.25, 1e-9), (0.25, math.pi - 1e-6),
              (0.25, 2 * math.pi - 1e-6), (0.25, 0.0), (0.25, 1.83e-8)]


class TestSpectrumAxis:
    """The axis follows delta, dtau and the envelope's modes alone: a coarse
    zone and each narrow line's own zones; on it dip_width reads the width
    the transfer oracle gives."""

    @staticmethod
    def assert_well_formed(spec):
        d = spec.detuning
        assert np.all(np.isfinite(spec.amplitude)) and np.all(np.diff(d) > 0)
        assert 0.0 in d and np.max(np.abs(d)) <= 8.0
        assert d.size <= 1_600

    @pytest.mark.parametrize("cell", DIP_CELLS)
    def test_reference_width_table(self, cell):
        params = SimParams.from_ratios(*cell)
        width = oracle_dip_width(params, coupling_full(params).m_total)
        assert width == pytest.approx(DIP_CELLS[cell], abs=5e-7)   # to the last digit

    @pytest.mark.parametrize("cell", DIP_CELLS)
    def test_dip_width_is_the_oracle_width(self, cell):
        params, coupling, _, (_, trans, _) = _scatter(*cell)
        spec = spectrum(trans)
        self.assert_well_formed(spec)
        reference = oracle_dip_width(params, coupling.m_total)
        assert dip_width(spec) == pytest.approx(reference, rel=1e-3)

    @settings(max_examples=25, deadline=None)
    @example(ratio=10.0 ** 0.375, dark=0.0, offset=0.1, sign=-1.0)   # 1.4e-3 off read
    @example(ratio=10.0 ** 0.5625, dark=0.0, offset=0.1, sign=-1.0)  # linearly
    @given(ratio=st.floats(-3.0, math.log10(4.0)).map(lambda x: 10.0 ** x),
           dark=st.sampled_from([0.0, math.pi, 2 * math.pi]),
           offset=st.floats(-6.0, -1.0).map(lambda x: 10.0 ** x),
           sign=st.sampled_from([-1.0, 1.0]))
    def test_dip_width_near_dark_phases(self, ratio, dark, offset, sign):
        params = SimParams.from_ratios(ratio, abs(dark + sign * offset))
        coupling = coupling_full(params)
        trans = scatter(params, coupling)[1][1]
        spec = spectrum(trans)
        self.assert_well_formed(spec)
        reference = oracle_dip_width(params, coupling.m_total)
        assert dip_width(spec) == pytest.approx(reference, rel=1e-3)

    def test_dip_width_on_a_strong_line_skirt(self):
        # at (30, 1e-4) the left crossing lies on coarse bins between the
        # slow line's skirt and its refined zone: read linearly, 2.5e-3 off
        params = SimParams.from_ratios(30.0, 1e-4)
        coupling = coupling_full(params)
        spec = spectrum(scatter(params, coupling)[1][1])
        reference = oracle_dip_width(params, coupling.m_total)
        assert dip_width(spec) == pytest.approx(reference, rel=1e-3)

    @pytest.mark.parametrize("ratio, k0l", EDGE_CELLS)
    def test_edge_cells_are_well_formed(self, ratio, k0l):
        params = SimParams.from_ratios(ratio, k0l)
        for env in scatter(params, coupling_full(params))[1]:
            self.assert_well_formed(spectrum(env))

    def test_overlapping_lines_neither_repeat_nor_interleave(self):
        # at (0.02, pi/4) the zones of the lines at +-0.014 delta overlap,
        # the two refined coarse ones on one lattice: no bin repeats, and
        # inside the finest zone's span every bin is that zone's
        trans = _scatter(0.02, math.pi / 4)[3][1]
        zones = spectrum_zones(trans.dtau, trans.delta, trans.tail)
        assert len(zones) == 6 and zones[2][0] == zones[5][0] == 16 * zones[0][0]
        spec = spectrum(trans)
        self.assert_well_formed(spec)
        n, m_lo, m_hi = max(zones)
        step = 2 * math.pi / (n * trans.dtau) / trans.delta
        inside = spec.detuning[(spec.detuning >= m_lo * step) & (spec.detuning <= m_hi * step)]
        assert inside.size == m_hi - m_lo + 1
        np.testing.assert_allclose(np.diff(inside), step, rtol=1e-6)

    def test_coarse_zone_follows_delta_and_step_alone(self):
        for ratio in (1e-3, 0.25, 1.0):
            trans = _scatter(ratio, math.pi / 2)[3][1]
            assert spectrum_zones(trans.dtau, trans.delta)[0] == (38_400, -488, 488)
            assert spectrum_zones(trans.dtau, trans.delta, trans.tail)[0] == (38_400, -488, 488)


class TestClosedFormTail:
    """Envelopes continued past the grid by their decaying modes' exponentials."""

    @pytest.mark.parametrize("ratio, k0l", [(0.25, 1e-3), (0.25, 0.05),
                                            (0.25, math.pi - 0.05), (4.0, 1e-3)])
    def test_windowed_spectrum_matches_transfer_oracle(self, ratio, k0l):
        # the third oracle pair on tail cells: t(d) times the incident
        # spectrum, the direct sum over its samples, at the transmitted
        # spectrum's bins (its lines' zones included)
        params, coupling, _, (inc, trans, _) = _scatter(ratio, k0l)
        assert trans.tail and not inc.tail
        spec = spectrum(trans)
        omega = spec.detuning * trans.delta
        incident = np.concatenate([np.exp(1j * np.outer(part, inc.tau)) @ inc.samples
                                   for part in np.array_split(omega, 32)]) * inc.dtau
        span = 8.0 * params.delta
        t_vals = transfer_oracle(params, coupling.m_total,
                                 np.concatenate([[-span, span], omega]))[2:]
        scale = float(np.max(np.abs(incident)))
        assert np.max(np.abs(spec.amplitude - t_vals * incident)) <= 1e-6 * scale

    def test_pure_exponential_spectrum_and_area(self):
        # an envelope that is one exponential from tau = 0 on: its tail makes
        # the spectrum's trapezoid infinite, dtau (1/(1 - e^{(i omega - lam)
        # dtau}) - 1/2) at every bin, and the area's, dtau (1/2 + 1/expm1(lam
        # dtau)), its value at omega = 0: 1/lam up to the trapezoid's (lam dtau)^2/12
        lam, dtau, n_time = 0.01 - 0.3j, 0.05, 2001
        tau = np.arange(n_time) * dtau
        samples = np.exp(-lam * tau)
        env = FieldEnvelope(kind=TRANSMITTED, tau=tau, samples=samples,
                            delta=1.0, tail=((samples[-1], lam),))
        spec = spectrum(env)
        expected = -dtau / np.expm1((1j * spec.detuning - lam) * dtau) - 0.5 * dtau
        assert np.max(np.abs(spec.amplitude - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert env.pulse_area == pytest.approx(1 / lam, rel=1e-4)
        trapezoid = dtau * (0.5 + 1 / np.expm1(lam * dtau))
        assert env.pulse_area == pytest.approx(trapezoid, rel=1e-12)
        # the tail continues the trapezoid (it was samples[-1] / lam)
        assert env.tail_area == samples[-1] * dtau * (0.5 + 1 / np.expm1(lam * dtau))

    @pytest.mark.parametrize("ratio, k0l, span_factor", [
        (0.25, 1e-3, 1.0), (0.25, 0.05, 1.0), (4.0, 1e-3, 1.0),
        (0.02, math.pi / 4, 2.0), (0.25, math.pi / 4, 2.0), (4.0, math.pi / 4, 2.0),
        (0.02, math.pi / 4, 1.0), (0.25, math.pi / 4, 1.0), (4.0, math.pi / 4, 1.0),
        (100.0, math.pi / 4, 1.0),
    ])
    def test_resonant_amplitude_is_the_zero_detuning_bin(self, ratio, k0l, span_factor):
        # the zero-detuning bin is the trapezoid over samples and tail as one
        # sequence, the pulse area the sum of the two parts' trapezoids: they
        # differ by the end term dtau/2 (a_last - sum c), to round-off of the
        # incident spectrum's peak.  The transmitted and reflected envelopes
        # have tails at either span, the incident one none
        params = SimParams.from_ratios(ratio, k0l)
        envelopes = scatter(params, coupling_full(params), span_factor=span_factor)[1]
        assert [bool(env.tail) for env in envelopes] == [False, True, True]
        spectra = [spectrum(env) for env in envelopes]
        scale = float(np.max(np.abs(spectra[0].amplitude)))
        for env, spec in zip(envelopes, spectra):
            ends = env.samples[-1] - sum(c for c, _ in env.tail)
            assert abs(at_resonance(spec) - env.pulse_area - 0.5 * env.dtau * ends
                       ) <= 1e-15 * scale

    @pytest.mark.parametrize("ratio, k0l", [(0.02, math.pi / 4), (0.25, 0.05)])
    def test_area_ratios_independent_of_span(self, ratio, k0l):
        # with every decaying mode continued exactly, a longer window does not
        # move the area theorem's ratios off round-off
        params = SimParams.from_ratios(ratio, k0l)
        coupling = coupling_full(params)
        for span_factor in (1.0, 2.0):
            envelopes = scatter(params, coupling, span_factor=span_factor)[1]
            check, trans_ratio, refl_ratio = area_verdict(envelopes, params.gamma)
            assert check == AREA_PASS
            assert trans_ratio <= 1e-10 and refl_ratio <= 1e-10

    def test_end_decay_counts_only_what_the_tail_misses(self):
        params, _, traj, (inc, trans, refl) = _scatter(0.25, 0.05)
        assert traj.grid.n <= 10_000
        for env in (trans, refl):
            assert env.ends_decayed()
            assert not dataclasses.replace(env, tail=()).ends_decayed()
        assert area_verdict((inc, trans, refl), params.gamma)[0] == AREA_PASS


class TestConsistencyResiduals:
    @pytest.mark.parametrize("ratio", COUPLING_RATIOS)
    def test_residuals_small(self, ratio):
        """Local-field identities hold to the differencing error."""
        p, traj, coup = run_case(ratio, math.pi / 4)
        r1, r2 = consistency_residuals(traj, reconstruct_fields(traj, p), p)
        assert r1 <= 1e-3 and r2 <= 1e-3

    def test_second_order_convergence(self):
        """Halving the step shrinks both residuals by ~4x."""
        p, traj, coup = run_case(0.25, math.pi / 4)
        r1, r2 = consistency_residuals(traj, reconstruct_fields(traj, p), p)
        p, traj_h, coup = run_case(0.25, math.pi / 4, dt_factor=0.5)
        r1h, r2h = consistency_residuals(traj_h, reconstruct_fields(traj_h, p), p)
        assert 3.5 < r1 / r1h < 4.5
        assert 3.5 < r2 / r2h < 4.5

    def test_gamma_zero_residuals_vanish(self):
        p, traj, coup = gamma_zero_case()
        assert consistency_residuals(traj, reconstruct_fields(traj, p), p) == (0.0, 0.0)

    def test_grid_mismatch_guard(self):
        p, traj, coup = run_case(0.25, math.pi / 4)
        fields = reconstruct_fields(traj, p)
        p2, traj2, coup2 = run_case(0.25, math.pi / 4, span_factor=2.0)
        with pytest.raises(GridMismatch):
            consistency_residuals(traj2, fields, p)


SUPPORT_CELLS = [(0.02, math.pi / 4), (0.25, 0.05), (4.0, math.pi / 4)]


class TestGridEndsAtSupport:
    """A span-1 grid ends at the source's support: a longer one adds only
    what the span-1 tails carry, and both resolve the same spectrum."""

    @staticmethod
    def spans(ratio, k0l):
        params = SimParams.from_ratios(ratio, k0l)
        coupling = coupling_full(params)
        return [scatter(params, coupling, span_factor=span)[1] for span in (1.0, 3.0)]

    @pytest.mark.parametrize("ratio, k0l", SUPPORT_CELLS)
    def test_longer_grid_adds_only_the_tail(self, ratio, k0l):
        for short, long in zip(*self.spans(ratio, k0l)):
            n, peak = short.samples.size, long.peak()
            assert long.samples.size > n
            assert np.max(np.abs(long.samples[:n] - short.samples)) <= 1e-14 * peak
            tail = tail_samples(short)[1][:long.samples.size - n]   # none for the incident
            extra = long.samples[n:].copy()
            extra[:tail.size] -= tail
            assert np.max(np.abs(extra)) <= 1e-12 * peak

    @pytest.mark.parametrize("ratio, k0l", SUPPORT_CELLS)
    def test_spectrum_independent_of_span(self, ratio, k0l):
        short, long = (spectrum(envelopes[1]) for envelopes in self.spans(ratio, k0l))
        assert short.fft_len == long.fft_len
        np.testing.assert_allclose(long.detuning, short.detuning, rtol=1e-12, atol=0)
        scale = float(np.max(np.abs(short.amplitude)))
        assert np.max(np.abs(long.amplitude - short.amplitude)) <= 1e-12 * scale
        assert dip_width(long) == pytest.approx(dip_width(short), rel=1e-12)

    @pytest.mark.parametrize("ratio", COUPLING_RATIOS)
    @pytest.mark.parametrize("k0l", SEPARATIONS)
    def test_every_coupled_cell_has_a_tail(self, ratio, k0l):
        # (4, 0) and (4, pi/2) ended at 9.5/delta and 11/delta, before the
        # support, and had none
        inc, trans, refl = _scatter(ratio, k0l)[3]
        assert trans.tail and refl.tail and not inc.tail


class TestTransferOracle:
    def detuning_grid(self, p, n=513):
        return np.linspace(-9 * p.delta, 9 * p.delta, n)

    @pytest.mark.parametrize("k0l", SEPARATIONS)
    def test_resonant_component_fully_reflected(self, k0l):
        """t and r at zero detuning are exactly 0 and -1 for any gamma > 0,
        including the removable singularity at zero separation."""
        p = SimParams.from_ratios(0.25, k0l)
        dets = self.detuning_grid(p)
        t_vals, r_vals = (oracle(p, coupling_full(p).m_total, dets)
                          for oracle in (transfer_oracle, reflection_oracle))
        i0 = int(np.argmin(np.abs(dets)))
        assert abs(t_vals[i0]) <= 1e-12
        assert abs(r_vals[i0] + 1.0) <= 1e-12

    @pytest.mark.parametrize("ratio", COUPLING_RATIOS)
    def test_matches_time_domain(self, ratio):
        """Inverse-transformed transfer amplitudes reproduce the integrated
        envelopes."""
        p, traj, coup = run_case(ratio, math.pi / 4)
        inc, trans, refl = reconstruct_fields(traj, p)
        back_t = transfer_round_trip(inc, lambda d: transfer_oracle(p, coup.m_total, d),
                                     p, coup.m_total)
        back_r = transfer_round_trip(inc, lambda d: reflection_oracle(p, coup.m_total, d),
                                     p, coup.m_total)
        assert float(np.max(np.abs(back_t - trans.samples))) <= 1e-4 * trans.peak()
        assert float(np.max(np.abs(back_r - refl.samples))) <= 1e-4 * refl.peak()

    def test_flux_conserved_for_full_coupling(self):
        """|t|^2 + |r|^2 = 1 on the whole grid (lossless scattering)."""
        p = SimParams.from_ratios(4.0, math.pi / 4)
        t_vals, r_vals = (oracle(p, coupling_full(p).m_total, self.detuning_grid(p))
                          for oracle in (transfer_oracle, reflection_oracle))
        dev = np.abs(np.abs(t_vals) ** 2 + np.abs(r_vals) ** 2 - 1.0)
        assert float(dev.max()) <= 1e-12

    def test_rwa_transfer_matches_rwa_areas(self):
        """Even for a theorem-breaking coupling, the oracle's t(0) equals
        the time-domain area ratio."""
        model = CouplingModel.rwa_const_g()
        p, traj, coup = run_case(0.25, math.pi / 4, model=model)
        s_inc, s_trans, s_refl = (env.pulse_area for env in reconstruct_fields(traj, p))
        dets = self.detuning_grid(p)
        t_vals = transfer_oracle(p, coup.m_total, dets)
        t0 = t_vals[int(np.argmin(np.abs(dets)))]
        assert abs(t0) == pytest.approx(abs(s_trans) / abs(s_inc), rel=1e-3)

    def test_gamma_zero_passes_through(self):
        """No coupling: unit transmission, zero reflection, away from the
        singular zero-detuning point."""
        p, traj, coup = gamma_zero_case()
        dets = np.linspace(-9 * p.delta, 9 * p.delta, 512)  # excludes 0
        t_vals, r_vals = (oracle(p, coup.m_total, dets)
                          for oracle in (transfer_oracle, reflection_oracle))
        assert np.array_equal(t_vals, np.ones_like(t_vals))
        assert not np.any(r_vals)

    def test_gamma_zero_singular_at_resonance(self):
        p, traj, coup = gamma_zero_case()
        with pytest.raises(NumericalError, match="singular"):
            transfer_oracle(p, coup.m_total, np.linspace(-9 * p.delta, 9 * p.delta, 513))
        with pytest.raises(NumericalError, match="singular"):
            reflection_oracle(p, coup.m_total, np.linspace(-9 * p.delta, 9 * p.delta, 513))

    def test_span_guard(self):
        p = SimParams.from_ratios(0.25, math.pi / 4)
        with pytest.raises(ConfigurationError, match="cover"):
            transfer_oracle(p, coupling_full(p).m_total,
                            np.linspace(-3 * p.delta, 3 * p.delta, 64))

    def test_round_trip_memory(self):
        """On each validate cell the transfer-oracle round trip's DFT runs in
        blocks of rows and peaks at most where the undamped (4, pi/4) cell
        does: the window adds one damped copy of the samples, the bins'
        imaginary parts and no block-sized temporary.  Each cell runs once
        before it is traced, so numpy's cached FFT plans are not counted."""
        for ratio in (0.02, 0.25, 4.0):
            params, coup, _, (inc, _, _) = _scatter(ratio, math.pi / 4)
            assert round_trip_window(inc, params, coup.m_total)[0] == ROUND_TRIP_WINDOWS[
                ratio, math.pi / 4][0]
            transfer = functools.partial(transfer_oracle, params, coup.m_total)
            transfer_round_trip(inc, transfer, params, coup.m_total)
            tracemalloc.start()
            try:
                transfer_round_trip(inc, transfer, params, coup.m_total)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 885_615, ratio

    @pytest.mark.parametrize("ratio, k0l, undamped", [
        (0.02, math.pi / 4, 480_000), (0.25, math.pi / 4, 40_000),
        (4.0, math.pi / 4, 17_496), (0.25, 0.3, 250_000)])
    @pytest.mark.parametrize("which", [0, 1])
    def test_round_trip_matches_the_padded_dft(self, ratio, k0l, undamped, which):
        """The four-step round trip equals the one padded N-point DFT with
        the same window on the same bins, for t and for r, to round-off; and
        the undamped DFT padded to `undamped` points, where the slowest
        mode's own decay bounds the wrap-around, up to both sides' wrap."""
        params, coup, _, (inc, _, _) = _scatter(ratio, k0l)
        size, sigma = round_trip_window(inc, params, coup.m_total)
        pinned_size, pinned_sigma = ROUND_TRIP_WINDOWS[ratio, k0l]
        assert size == pinned_size and sigma == pytest.approx(pinned_sigma, rel=1e-12, abs=0)

        def transfer(d):
            return (transfer_oracle, reflection_oracle)[which](params, coup.m_total, d)

        direct = padded_round_trip(inc.samples, transfer, size, inc.dtau, sigma)
        pruned = transfer_round_trip(inc, transfer, params, coup.m_total)
        assert np.max(np.abs(pruned - direct)) <= 1e-12 * np.max(np.abs(direct))
        reference = padded_round_trip(inc.samples, transfer, undamped, inc.dtau, 0.0)
        assert np.max(np.abs(pruned - reference)) <= 10 * WRAP_FRACTION * np.max(
            np.abs(reference))

    def test_round_trip_on_a_slow_tail(self):
        """On a cell whose slow mode is left to a closed-form tail, the
        window keeps the wrap-around under transfer-oracle's tolerance;
        fft_length(8n) padding without it measured 2.2e-3 here."""
        params, coup, _, (inc, trans, _) = _scatter(0.25, 0.3)
        assert trans.tail
        back = transfer_round_trip(inc, lambda d: transfer_oracle(params, coup.m_total, d),
                                   params, coup.m_total)
        assert float(np.max(np.abs(back - trans.samples))) <= 1e-4 * trans.peak()

    def test_round_trip_budget(self, monkeypatch):
        """The round trip pads to at most 8n points, so only a grid of more
        than POINT_BUDGET/8 points can exceed the budget: it raises
        ConfigurationError naming that cap, before any allocation."""
        params, coup, _, (inc, _, _) = _scatter(0.25, math.pi / 4)
        n = inc.samples.size
        monkeypatch.setattr("wqed.dynamics.POINT_BUDGET", 8 * n)
        assert round_trip_window(inc, params, coup.m_total)[0] == fft_length(8 * n)
        monkeypatch.setattr("wqed.dynamics.POINT_BUDGET", 8 * n - 1)
        with pytest.raises(ConfigurationError, match=(
                f"needs n = {8 * n:,} points, .*; its padding is capped at 8 times "
                f"the grid's {n:,} points$")):
            transfer_round_trip(inc, lambda d: transfer_oracle(params, coup.m_total, d),
                                params, coup.m_total)

    def test_round_trip_near_dark(self):
        """Near a dark phase, where the slowest mode decays at 5e-7 gamma and
        padding alone would need 2.2e10 points, the window's 8n points match
        the time-domain envelope, in an interpreter capped at 1 GiB."""
        script = ("import numpy as np\n"
                  "from wqed.checks import _scatter, transfer_round_trip\n"
                  "from wqed.fields import transfer_oracle\n"
                  "params, coup, _, (inc, trans, _) = _scatter(0.25, 1e-3)\n"
                  "back = transfer_round_trip(inc, lambda d: transfer_oracle("
                  "params, coup.m_total, d), params, coup.m_total)\n"
                  "err = np.max(np.abs(back - trans.samples)) / trans.peak()\n"
                  "raise SystemExit(0 if err <= 1e-4 else f'error {err:.3e} of the peak')\n")
        code, err = run_limited(["-c", script], entry=())
        assert code == 0, err

    def test_round_trip_without_decay_passes_through(self):
        """Without coupling no mode decays and t = 1 off the real axis, so the
        window alone bounds the wrap-around and the round trip gives back
        the incident samples to round-off."""
        p, traj, coup = gamma_zero_case()
        inc = reconstruct_fields(traj, p)[0]
        size, sigma = round_trip_window(inc, p, coup.m_total)
        assert size == fft_length(8 * inc.samples.size) and sigma > 0
        back = transfer_round_trip(inc, lambda d: transfer_oracle(p, coup.m_total, d),
                                   p, coup.m_total)
        assert float(np.max(np.abs(back - inc.samples))) <= 1e-13 * inc.peak()


class TestTransferProperties:
    @settings(max_examples=60, deadline=None)
    @given(lengths=st.sampled_from([m for m in range(1, 4097) if fft_length(m) == m]).flatmap(
               lambda size: st.tuples(st.integers(1, size), st.just(size))),
           seed=st.integers(0, 2**32 - 1), damping=st.floats(0.0, 1.0))
    @example(lengths=(257, 512), seed=0, damping=0.0)      # W = N, P = 1
    @example(lengths=(100, 729), seed=1, damping=0.0)      # W = 243, P = 3
    @example(lengths=(30, 625), seed=2, damping=1.0)       # W = 125, P = 5
    @example(lengths=(1, 1), seed=3, damping=1.0)
    def test_pruned_round_trip_is_the_padded_dft(self, lengths, seed, damping):
        """For any n and 5-smooth N >= n, pure powers of 2, 3 and 5
        included, and any window up to the round trip's largest, which
        decays by WRAP_FRACTION^{1/8} over the n samples, the four-step round
        trip equals the padded N-point DFT.  The transfer is causal, so it
        has no pole at d + i sigma."""
        n, size = lengths
        rng = np.random.default_rng(seed)
        samples = rng.normal(size=n) + 1j * rng.normal(size=n)
        sigma = damping * math.log(1.0 / WRAP_FRACTION) / (8 * n * 0.1)

        def transfer(d):
            return np.exp(-0.3j * d) / (1.0 - 1j * d)

        direct = padded_round_trip(samples, transfer, size, 0.1, sigma)
        pruned = pruned_round_trip(samples, transfer, size, 0.1, sigma)
        assert np.max(np.abs(pruned - direct)) <= 1e-12 * np.max(np.abs(direct))

    @settings(max_examples=6, deadline=None)
    @given(ratio=st.sampled_from(COUPLING_RATIOS), k0l=st.floats(0.0, 2.0 * math.pi))
    @example(ratio=0.02, k0l=1e-3)
    @example(ratio=0.02, k0l=math.pi + 5e-4)
    @example(ratio=0.02, k0l=2.0 * math.pi - 1e-3)
    @example(ratio=0.25, k0l=1e-3)
    @example(ratio=0.25, k0l=math.pi - 1e-3)
    @example(ratio=0.25, k0l=2.0 * math.pi - 5e-4)
    @example(ratio=4.0, k0l=1e-3)
    @example(ratio=4.0, k0l=math.pi - 1e-3)
    @example(ratio=4.0, k0l=2.0 * math.pi - 1e-3)
    def test_round_trip_matches_time_domain(self, ratio, k0l):
        """Over the whole phase range, the nearly-dark k0l -> 0, pi, 2 pi
        included, where the slowest mode hardly decays over the grid of at
        most 8,001 points, the round trip reproduces the integrated
        transmitted envelope to transfer-oracle's tolerance."""
        p, traj, coup = run_case(ratio, k0l)
        inc, trans, _ = reconstruct_fields(traj, p)
        back = transfer_round_trip(inc, lambda d: transfer_oracle(p, coup.m_total, d),
                                   p, coup.m_total)
        assert float(np.max(np.abs(back - trans.samples))) <= 1e-4 * trans.peak()

    @settings(max_examples=60, deadline=None)
    @given(k0l=st.floats(1e-6, 30.0), ratio=st.floats(0.02, 4.0))
    def test_full_coupling_is_lossless_and_opaque_at_resonance(self, k0l, ratio):
        """For every separation and coupling strength: t(0) = 0, r(0) = -1,
        and |t|^2 + |r|^2 = 1 across the band."""
        p = SimParams.from_ratios(ratio, k0l)
        dets = np.linspace(-9 * p.delta, 9 * p.delta, 257)
        t_vals, r_vals = (oracle(p, coupling_full(p).m_total, dets)
                          for oracle in (transfer_oracle, reflection_oracle))
        i0 = int(np.argmin(np.abs(dets)))
        assert abs(t_vals[i0]) <= 1e-10
        assert abs(r_vals[i0] + 1.0) <= 1e-10
        dev = np.abs(np.abs(t_vals) ** 2 + np.abs(r_vals) ** 2 - 1.0)
        assert float(dev.max()) <= 1e-10
