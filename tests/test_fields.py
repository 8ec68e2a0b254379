"""Tests for field reconstruction, pulse areas, spectra, and the
frequency-domain transfer oracle."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import full_dft_spectrum, run_limited
from wqed.checks import WRAP_FRACTION, _scatter, transfer_round_trip
from wqed.coupling import CouplingModel, SimParams, evaluate_coupling
from wqed.dynamics import (
    AmplitudeTrajectory,
    IncidentWavepacket,
    TimeGrid,
    build_source,
    default_grid,
    driven_modes,
    integrate_markovian,
)
from wqed.errors import (
    ConfigurationError,
    GridMismatch,
    NumericalError,
    TruncationError,
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
    pulse_areas,
    radiation_prefactors,
    reconstruct_fields,
    resonant_amplitude,
    spectrum,
    transfer_oracle,
)

COUPLING_RATIOS = (0.02, 0.25, 4.0)
SEPARATIONS = (0.0, math.pi / 4, math.pi / 2)

# regression values for the transmission-dip full width at half depth
# (units of delta), k0l = pi/4, default grid and zero padding
DIP_WIDTH_ORACLE = {0.02: 0.0525, 0.25: 0.4306, 4.0: 1.0594}


def run_case(gamma_over_delta, k0l, span_factor=1.0, dt_factor=1.0, model=None):
    """Integrate one scattering event; returns (params, wavepacket, traj, coupling)."""
    p = SimParams.from_ratios(gamma_over_delta, k0l)
    coup = evaluate_coupling(p, model or CouplingModel.full())
    grid = default_grid(p, span_factor=span_factor, dt_factor=dt_factor,
                        m_total=coup.m_total)
    wp = IncidentWavepacket(delta=p.delta, omega0=p.omega0)
    return p, wp, integrate_markovian(build_source(wp, p, grid), coup, p), coup


def gamma_zero_case():
    """A run with the coupling switched off entirely."""
    p = SimParams(gamma=0.0, delta=1.0, omega0=1e4, l=math.pi / 4 * 1e-4)
    coup = evaluate_coupling(p, CouplingModel.full())
    grid = default_grid(p, m_total=coup.m_total)
    wp = IncidentWavepacket(delta=p.delta, omega0=p.omega0)
    return p, wp, integrate_markovian(build_source(wp, p, grid), coup, p), coup


class TestFieldEnvelope:
    def test_pulse_area_matches_recompute(self):
        """Stored area is bitwise the trapezoid of the stored samples."""
        p, wp, traj, coup = run_case(0.25, math.pi / 4)
        for env in reconstruct_fields(traj, wp, p):
            assert env.pulse_area == complex(np.trapezoid(env.samples, env.tau))

    def test_kind_guard(self):
        pref = radiation_prefactors(SimParams.from_ratios(1.0, 0.0))
        with pytest.raises(ConfigurationError, match="kind"):
            FieldEnvelope(kind="sideways", tau=np.arange(5.0),
                          samples=np.zeros(5, complex), prefactors=pref, delta=1.0)

    def test_shape_guard(self):
        pref = radiation_prefactors(SimParams.from_ratios(1.0, 0.0))
        with pytest.raises(ConfigurationError):
            FieldEnvelope(kind=INCIDENT, tau=np.arange(5.0),
                          samples=np.zeros(4, complex), prefactors=pref, delta=1.0)
        with pytest.raises(ConfigurationError):
            FieldEnvelope(kind=INCIDENT, tau=np.arange(2.0),
                          samples=np.zeros(2, complex), prefactors=pref, delta=1.0)

    def test_null_field_counts_as_decayed(self):
        pref = radiation_prefactors(SimParams.from_ratios(1.0, 0.0))
        env = FieldEnvelope(kind=REFLECTED, tau=np.linspace(0, 1, 9),
                            samples=np.zeros(9, complex), prefactors=pref, delta=1.0)
        assert env.end_fraction() == 0.0
        assert env.ends_decayed()

    def test_ends_judged_against_incident_peak_too(self):
        # a peak shrunk to 1e-2 of the incident's: an end of 5e-5 is 5e-3 of
        # its own peak, 5e-5 of the incident's; the larger peak rules
        own = FieldEnvelope(kind=TRANSMITTED, tau=np.arange(4.0),
                            samples=np.array([5e-5, 1e-2, 0, 0], complex), delta=1.0,
                            prefactors=radiation_prefactors(SimParams.from_ratios(1.0, 0.0)))
        assert not own.ends_decayed()
        assert dataclasses.replace(own, incident_peak=1e-3).end_fraction() == 5e-3
        assert dataclasses.replace(own, incident_peak=1.0).end_fraction() == 5e-5

    def test_prefactor_identity(self):
        """kappa * |G0j| reproduces gamma; G0j phases are e^{i k0 zj}."""
        p = SimParams.from_ratios(0.5, math.pi / 3)
        pref = radiation_prefactors(p)
        assert pref.kappa * abs(pref.g01) == pytest.approx(p.gamma, rel=1e-14)
        assert pref.g01 == pytest.approx(math.sqrt(p.gamma / (2 * math.pi)))
        k0 = p.omega0 / p.c
        expected = math.sqrt(p.gamma / (2 * math.pi)) * np.exp(1j * k0 * p.z2)
        assert pref.g02 == pytest.approx(expected, rel=1e-14)


class TestReconstructFields:
    def test_kinds_and_grid(self):
        p, wp, traj, coup = run_case(0.25, math.pi / 4)
        inc, trans, refl = reconstruct_fields(traj, wp, p)
        assert (inc.kind, trans.kind, refl.kind) == (INCIDENT, TRANSMITTED, REFLECTED)
        np.testing.assert_allclose(inc.tau, traj.grid.times - p.z1 / p.c)

    def test_incident_is_the_gaussian_envelope(self):
        """A_inc is the closed-form Gaussian, independent of the coupling."""
        p, wp, traj, coup = run_case(4.0, math.pi / 2)
        inc = reconstruct_fields(traj, wp, p)[0]
        expected = (wp.amplitude_scale * math.sqrt(p.delta / 2)
                    * np.exp(-0.25 * (p.delta * inc.tau) ** 2))
        np.testing.assert_allclose(inc.samples, expected, rtol=0, atol=1e-300)

    def test_gamma_zero_transmits_unchanged(self):
        """No scatterer: transmitted equals incident, reflected vanishes."""
        p, wp, traj, coup = gamma_zero_case()
        inc, trans, refl = reconstruct_fields(traj, wp, p)
        assert np.array_equal(trans.samples, inc.samples)
        assert not np.any(refl.samples)

    def test_strong_coupling_suppresses_transmission(self):
        """Fast atoms re-radiate almost everything: peak ratio < 0.3."""
        p, wp, traj, coup = run_case(4.0, math.pi / 4)
        inc, trans, refl = reconstruct_fields(traj, wp, p)
        assert trans.peak() / inc.peak() < 0.3

    def test_strong_coupling_reflects_inverted(self):
        """For gamma >> delta the reflected envelope approaches -A_inc."""
        p, wp, traj, coup = run_case(10.0, math.pi / 4)
        inc, trans, refl = reconstruct_fields(traj, wp, p)
        dev = float(np.max(np.abs(refl.samples + inc.samples))) / inc.peak()
        assert dev < 0.10

    @pytest.mark.parametrize("ratio", [0.25, 4.0])
    def test_transmitted_parts_change_sign(self, ratio):
        """Both quadratures of A_trans cross zero (a vanishing-area shape)."""
        p, wp, traj, coup = run_case(ratio, math.pi / 4)
        trans = reconstruct_fields(traj, wp, p)[1]
        re, im = trans.samples.real, trans.samples.imag
        assert np.any(re[1:] * re[:-1] < 0)
        assert np.any(im[1:] * im[:-1] < 0)

    def test_wavepacket_alignment_guard(self):
        p, wp, traj, coup = run_case(0.25, math.pi / 4)
        off = IncidentWavepacket(delta=2 * p.delta, omega0=p.omega0)
        with pytest.raises(ConfigurationError, match="width"):
            reconstruct_fields(traj, off, p)

    def test_grid_must_contain_arrival(self):
        p, wp, traj, coup = run_case(0.25, math.pi / 4)
        late = TimeGrid(t_start=5.0 / p.delta, t_end=20.0 / p.delta, n=301)
        z = np.zeros(301, dtype=complex)
        with pytest.raises(GridMismatch, match="arrival"):
            reconstruct_fields(AmplitudeTrajectory(late, z, z), wp, p)


class TestPulseAreas:
    @pytest.mark.parametrize("ratio", COUPLING_RATIOS)
    @pytest.mark.parametrize("k0l", SEPARATIONS)
    def test_area_theorem(self, ratio, k0l):
        """Transmitted area vanishes and reflected cancels incident, for
        every coupling strength and separation."""
        p, wp, traj, coup = run_case(ratio, k0l)
        s_inc, s_trans, s_refl = pulse_areas(reconstruct_fields(traj, wp, p))
        assert abs(s_trans) / abs(s_inc) <= 1e-3
        assert abs(s_refl + s_inc) / abs(s_inc) <= 1e-3

    def test_longer_grid_tightens_areas(self):
        """Doubling the post-pulse window pushes residuals below 1e-5."""
        p, wp, traj, coup = run_case(0.02, math.pi / 2, span_factor=2.0)
        s_inc, s_trans, s_refl = pulse_areas(reconstruct_fields(traj, wp, p))
        assert abs(s_trans) / abs(s_inc) <= 1e-5
        assert abs(s_refl + s_inc) / abs(s_inc) <= 1e-5

    def test_incident_area_closed_form(self):
        """S_inc equals the Gaussian integral N sqrt(delta/2) * 2 sqrt(pi)/delta."""
        p, wp, traj, coup = run_case(0.25, 0.0)
        s_inc = pulse_areas(reconstruct_fields(traj, wp, p))[0]
        expected = wp.amplitude_scale * math.sqrt(p.delta / 2) * 2 * math.sqrt(math.pi) / p.delta
        # the grid starts 8 bandwidths before the peak, cutting a left
        # tail of erfc(4)/2 ~ 7.7e-9 of the area
        assert s_inc == pytest.approx(expected, rel=1e-7)

    def test_gamma_zero_trivial(self):
        p, wp, traj, coup = gamma_zero_case()
        s_inc, s_trans, s_refl = pulse_areas(reconstruct_fields(traj, wp, p))
        assert s_trans == s_inc
        assert s_refl == 0

    def test_rwa_coupling_breaks_theorem(self):
        """A coupling without the compensating virtual part leaks the
        resonant component into transmission."""
        p, wp, traj, coup = run_case(0.25, math.pi / 4,
                                     model=CouplingModel.rwa_const_g())
        s_inc, s_trans, s_refl = pulse_areas(reconstruct_fields(traj, wp, p))
        assert abs(s_trans) / abs(s_inc) > 0.1

    def test_truncated_grid_raises(self):
        p = SimParams.from_ratios(0.25, math.pi / 4)
        coup = evaluate_coupling(p, CouplingModel.full())
        dt = default_grid(p).dt
        short = TimeGrid.from_step(-8.0 / p.delta, 8.0 / p.delta, dt)
        wp = IncidentWavepacket(delta=p.delta, omega0=p.omega0)
        src = build_source(wp, p, short)
        traj = integrate_markovian(src, coup, p)
        with pytest.raises(TruncationError, match="decayed"):
            pulse_areas(reconstruct_fields(traj, wp, p))

    def test_wrong_order_guard(self):
        p, wp, traj, coup = run_case(0.25, math.pi / 4)
        inc, trans, refl = reconstruct_fields(traj, wp, p)
        with pytest.raises(ConfigurationError, match="expected"):
            pulse_areas((trans, inc, refl))


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
        """Time-domain and spectral energies agree to 1e-6 relative."""
        p, wp, traj, coup = run_case(0.25, math.pi / 4)
        for env in reconstruct_fields(traj, wp, p):
            sp = spectrum(env)
            lhs = float(np.sum(np.abs(env.samples) ** 2)) * env.dtau
            d_abs = (sp.detuning[1] - sp.detuning[0]) * sp.delta
            rhs = float(np.sum(sp.intensity)) * d_abs / (2 * math.pi)
            assert rhs == pytest.approx(lhs, rel=1e-6)

    def test_incident_spectrum_is_gaussian(self):
        """|A~_inc|^2 falls to e^-2 of its peak at one bandwidth detuning."""
        p, wp, traj, coup = run_case(0.25, math.pi / 4)
        sp = spectrum(reconstruct_fields(traj, wp, p)[0])
        band = np.abs(sp.detuning) <= 2.0
        peak = float(sp.intensity[np.argmin(np.abs(sp.detuning))])
        expected = peak * np.exp(-2.0 * sp.detuning[band] ** 2)
        np.testing.assert_allclose(sp.intensity[band], expected, rtol=1e-5)

    @pytest.mark.parametrize("ratio", COUPLING_RATIOS)
    def test_resonance_never_transmitted(self, ratio):
        """The on-resonance transmitted intensity is suppressed by > 1e6."""
        p, wp, traj, coup = run_case(ratio, math.pi / 4)
        inc, trans, refl = reconstruct_fields(traj, wp, p)
        ratio_i = (abs(spectrum(trans).at_resonance()) ** 2
                   / abs(spectrum(inc).at_resonance()) ** 2)
        assert ratio_i <= 1e-6

    def test_area_equals_resonant_component(self):
        """The pulse area is the zero-detuning Fourier amplitude."""
        p, wp, traj, coup = run_case(0.25, math.pi / 4)
        fields = reconstruct_fields(traj, wp, p)
        s_inc, s_trans, s_refl = pulse_areas(fields)
        sp_inc, sp_trans, _ = (spectrum(env) for env in fields)
        scale = abs(sp_inc.at_resonance())
        assert abs(s_trans - sp_trans.at_resonance()) / scale <= 1e-6
        assert abs(s_inc - sp_inc.at_resonance()) / scale <= 1e-6

    @staticmethod
    def assert_matches_direct_dft(env, sp):
        """Amplitudes at ~20 detunings within 4 widths equal the direct sum
        sum_j A_j e^{i omega tau_j} dtau to 1e-12 of the largest."""
        inside = np.flatnonzero(np.abs(sp.detuning) <= 4.0)
        picks = inside[np.linspace(0, inside.size - 1, 21).astype(int)]
        omega = sp.detuning[picks] * sp.delta
        direct = np.exp(1j * np.outer(omega, env.tau)) @ env.samples * env.dtau
        scale = float(np.max(np.abs(direct)))
        assert float(np.max(np.abs(sp.amplitude[picks] - direct))) <= 1e-12 * scale

    def test_direct_dft_even_padded_length(self):
        p, wp, traj, coup = run_case(0.25, math.pi / 4)
        trans = reconstruct_fields(traj, wp, p)[1]
        sp = spectrum(trans)
        assert sp.fft_len == fft_length(8 * trans.samples.size) and sp.fft_len % 2 == 0
        assert sp.detuning[sp.detuning.size // 2] == 0.0
        self.assert_matches_direct_dft(trans, sp)

    def test_direct_dft_odd_padded_length(self):
        """An odd 5-smooth n_time with no padding: an odd-length DFT."""
        p = SimParams.from_ratios(0.25, math.pi / 4)
        tau = np.linspace(-6.0, 6.0, 405)        # 405 = 3^4 * 5
        samples = np.exp(-0.25 * tau ** 2) * np.exp(0.7j * tau) * (1 + 0.2 * tau)
        env = FieldEnvelope(kind=TRANSMITTED, tau=tau, samples=samples,
                            prefactors=radiation_prefactors(p), delta=1.0)
        sp = spectrum(env, zero_pad_factor=1)
        assert sp.fft_len == 405
        assert sp.detuning[sp.detuning.size // 2] == 0.0
        self.assert_matches_direct_dft(env, sp)

    def test_zero_pad_guard(self):
        p, wp, traj, coup = run_case(0.25, math.pi / 4)
        inc = reconstruct_fields(traj, wp, p)[0]
        with pytest.raises(ConfigurationError, match="zero_pad_factor"):
            spectrum(inc, zero_pad_factor=0)

    def test_dip_width_grows_with_coupling(self):
        """The transmission dip widens monotonically with gamma/delta."""
        widths = []
        for ratio in COUPLING_RATIOS:
            p, wp, traj, coup = run_case(ratio, math.pi / 4)
            trans = reconstruct_fields(traj, wp, p)[1]
            widths.append(dip_width(spectrum(trans)))
            assert widths[-1] == pytest.approx(DIP_WIDTH_ORACLE[ratio], rel=2e-2)
        assert widths[0] < widths[1] < widths[2]

    def test_no_dip_raises(self):
        p, wp, traj, coup = gamma_zero_case()
        trans = reconstruct_fields(traj, wp, p)[1]
        with pytest.raises(NumericalError, match="dip"):
            dip_width(spectrum(trans))


def coarse_envelope(n_time=45, dtau=0.5):
    """A smooth synthetic envelope on a grid so coarse that its DFT spans
    less than +-8 pulse widths."""
    p = SimParams.from_ratios(0.25, math.pi / 4)
    tau = (np.arange(n_time) - n_time // 2) * dtau
    samples = np.exp(-0.25 * tau ** 2) * np.exp(0.7j * tau) * (1 + 0.2 * tau)
    return FieldEnvelope(kind=TRANSMITTED, tau=tau, samples=samples,
                         prefactors=radiation_prefactors(p), delta=1.0)


class TestWindowedSpectrum:
    """spectrum(..., window=w) returns the |detuning| <= w bins of the full DFT."""

    @staticmethod
    def assert_is_window_of_full(env, window, zero_pad_factor=8):
        full = full_dft_spectrum(env, zero_pad_factor)
        win = spectrum(env, zero_pad_factor, window)
        keep = np.abs(full.detuning) <= window
        assert win.fft_len == full.fft_len == full.amplitude.size
        assert np.array_equal(win.detuning, full.detuning[keep])
        scale = float(np.max(np.abs(full.amplitude)))
        assert float(np.max(np.abs(win.amplitude - full.amplitude[keep]))) <= 1e-13 * scale
        return full, win

    @pytest.mark.parametrize("ratio, fft_len", [(0.25, 144_000), (4.0, 84_375)])
    def test_matches_full_spectrum(self, ratio, fft_len):
        """Even and odd padded lengths, both envelopes of a pi/4 cell."""
        inc, trans, _ = _scatter(ratio, math.pi / 4)[4]
        for env in (inc, trans):
            full, win = self.assert_is_window_of_full(env, 8.0)
            assert full.fft_len == fft_len
            assert win.detuning[0] >= -8.0 and win.detuning[-1] <= 8.0
            assert 0 < win.amplitude.size < fft_len // 10

    @pytest.mark.parametrize("zero_pad_factor, fft_len", [(1, 45), (8, 360)])
    def test_window_clipped_to_dft_range(self, zero_pad_factor, fft_len):
        env = coarse_envelope()
        full, win = self.assert_is_window_of_full(env, 8.0, zero_pad_factor)
        assert full.fft_len == fft_len
        assert win.amplitude.size == fft_len        # every bin is inside +-8

    def test_window_narrower_than_a_bin(self):
        inc = _scatter(0.25, math.pi / 4)[4][0]
        bin_width = float(np.diff(spectrum(inc).detuning[:2])[0])
        for window in (0.0, 0.4 * bin_width):
            full, win = self.assert_is_window_of_full(inc, window)
            assert win.detuning.tolist() == [0.0]
            assert win.at_resonance() == pytest.approx(full.at_resonance(), rel=1e-13)

    @pytest.mark.parametrize("ratio", COUPLING_RATIOS)
    @pytest.mark.parametrize("k0l", SEPARATIONS)
    def test_dip_width_unchanged(self, ratio, k0l):
        trans = _scatter(ratio, k0l)[4][1]
        assert (dip_width(spectrum(trans, window=8.0))
                == pytest.approx(dip_width(full_dft_spectrum(trans)), rel=1e-12))

    def test_chirp_phase_reduced_exactly(self):
        """e^{i pi t^2 / n} is periodic in t with period n for even n; exact
        integer reduction keeps far-out chirps bitwise equal to near ones."""
        n = 6_480_000
        t = np.arange(-500, 500)
        assert np.array_equal(_chirp(t + 3 * n, n), _chirp(t, n))

    def test_window_guard(self):
        inc = _scatter(4.0, math.pi / 4)[4][0]
        for window in (-1.0, math.inf, math.nan, None):
            with pytest.raises(ConfigurationError, match="window"):
                spectrum(inc, window=window)

    def test_memory_scales_with_window_not_padding(self):
        """A windowed call allocates well under one N-point complex buffer."""
        inc = _scatter(0.25, math.pi / 4)[4][0]
        n = fft_length(8 * inc.samples.size)
        tracemalloc.start()
        try:
            spectrum(inc, window=8.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * n


class TestClosedFormTail:
    """Envelopes continued past the grid by their slow modes' exponentials."""

    @pytest.mark.parametrize("ratio, k0l", [(0.25, 1e-3), (0.25, 0.05),
                                            (0.25, math.pi - 0.05), (4.0, 1e-3)])
    def test_windowed_spectrum_matches_transfer_oracle(self, ratio, k0l):
        # the third oracle pair on tail cells: t(d) times the incident
        # spectrum at the same bins (a window past +-8 widths, which
        # transfer_oracle requires its grid to reach)
        params, wavepacket, coupling, _, (inc, trans, _) = _scatter(ratio, k0l)
        assert trans.tail and not inc.tail
        spec_inc, spec_trans = (spectrum(env, window=9.0) for env in (inc, trans))
        t_vals, _ = transfer_oracle(params, coupling, wavepacket,
                                    spec_inc.detuning * spec_inc.delta)
        scale = float(np.max(np.abs(spec_inc.amplitude)))
        assert np.max(np.abs(spec_trans.amplitude - t_vals * spec_inc.amplitude)) <= 1e-6 * scale

    def test_pure_exponential_spectrum_and_area(self):
        # an envelope that is one exponential from tau = 0 on: its tail makes
        # the DFT sum infinite, dtau / (1 - e^{(i omega - lam) dtau}) at every
        # bin, and the area 1/lam up to the trapezoid's (lam dtau)^2/12
        lam, dtau, n_time = 0.01 - 0.3j, 0.05, 2001
        tau = np.arange(n_time) * dtau
        samples = np.exp(-lam * tau)
        env = FieldEnvelope(kind=TRANSMITTED, tau=tau, samples=samples,
                            prefactors=radiation_prefactors(SimParams.from_ratios(1.0, 1.0)),
                            delta=1.0, tail=((samples[-1], lam),))
        spec = spectrum(env, window=8.0)
        expected = -dtau / np.expm1((1j * spec.detuning - lam) * dtau)
        assert np.max(np.abs(spec.amplitude - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert env.pulse_area == pytest.approx(1 / lam, rel=1e-4)
        assert env.tail_area == samples[-1] / lam

    @pytest.mark.parametrize("ratio, k0l, span_factor", [
        (0.25, 1e-3, 1.0), (0.25, 0.05, 1.0), (4.0, 1e-3, 1.0),       # with a tail
        (0.02, math.pi / 4, 2.0), (0.25, math.pi / 4, 2.0), (4.0, math.pi / 4, 2.0),
    ])
    def test_resonant_amplitude_is_the_zero_detuning_bin(self, ratio, k0l, span_factor):
        # to round-off of the incident spectrum's peak (measured <= 6.4e-16)
        envelopes = _scatter(ratio, k0l, span_factor=span_factor)[4]
        assert bool(envelopes[1].tail) == (span_factor == 1.0)
        spectra = [spectrum(env, window=8.0) for env in envelopes]
        scale = float(np.max(np.abs(spectra[0].amplitude)))
        for env, spec in zip(envelopes, spectra):
            assert abs(resonant_amplitude(env) - spec.at_resonance()) <= 1e-15 * scale

    def test_end_decay_counts_only_what_the_tail_misses(self):
        _, _, _, traj, (inc, trans, refl) = _scatter(0.25, 0.05)
        assert traj.grid.n <= 10_000
        for env in (trans, refl):
            assert env.ends_decayed()
            assert not dataclasses.replace(env, tail=()).ends_decayed()
        assert pulse_areas((inc, trans, refl))[1] == trans.pulse_area


class TestConsistencyResiduals:
    @pytest.mark.parametrize("ratio", COUPLING_RATIOS)
    def test_residuals_small(self, ratio):
        """Local-field identities hold to the differencing error."""
        p, wp, traj, coup = run_case(ratio, math.pi / 4)
        r1, r2 = consistency_residuals(traj, reconstruct_fields(traj, wp, p), p)
        assert r1 <= 1e-3 and r2 <= 1e-3

    def test_second_order_convergence(self):
        """Halving the step shrinks both residuals by ~4x."""
        p, wp, traj, coup = run_case(0.25, math.pi / 4)
        r1, r2 = consistency_residuals(traj, reconstruct_fields(traj, wp, p), p)
        p, wp, traj_h, coup = run_case(0.25, math.pi / 4, dt_factor=0.5)
        r1h, r2h = consistency_residuals(traj_h, reconstruct_fields(traj_h, wp, p), p)
        assert 3.5 < r1 / r1h < 4.5
        assert 3.5 < r2 / r2h < 4.5

    def test_gamma_zero_residuals_vanish(self):
        p, wp, traj, coup = gamma_zero_case()
        assert consistency_residuals(traj, reconstruct_fields(traj, wp, p), p) == (0.0, 0.0)

    def test_grid_mismatch_guard(self):
        p, wp, traj, coup = run_case(0.25, math.pi / 4)
        fields = reconstruct_fields(traj, wp, p)
        p2, wp2, traj2, coup2 = run_case(0.25, math.pi / 4, span_factor=2.0)
        with pytest.raises(GridMismatch):
            consistency_residuals(traj2, fields, p)


class TestTransferOracle:
    def detuning_grid(self, p, n=513):
        return np.linspace(-9 * p.delta, 9 * p.delta, n)

    @pytest.mark.parametrize("k0l", SEPARATIONS)
    def test_resonant_component_fully_reflected(self, k0l):
        """t and r at zero detuning are exactly 0 and -1 for any gamma > 0,
        including the removable singularity at zero separation."""
        p = SimParams.from_ratios(0.25, k0l)
        wp = IncidentWavepacket(delta=p.delta, omega0=p.omega0)
        dets = self.detuning_grid(p)
        t_vals, r_vals = transfer_oracle(p, CouplingModel.full(), wp, dets)
        i0 = int(np.argmin(np.abs(dets)))
        assert abs(t_vals[i0]) <= 1e-12
        assert abs(r_vals[i0] + 1.0) <= 1e-12

    @pytest.mark.parametrize("ratio", COUPLING_RATIOS)
    def test_matches_time_domain(self, ratio):
        """Inverse-transformed transfer amplitudes reproduce the integrated
        envelopes."""
        p, wp, traj, coup = run_case(ratio, math.pi / 4)
        inc, trans, refl = reconstruct_fields(traj, wp, p)
        back_t = transfer_round_trip(inc, lambda d: transfer_oracle(p, coup, wp, d)[0],
                                     p, coup.m_total)
        back_r = transfer_round_trip(inc, lambda d: transfer_oracle(p, coup, wp, d)[1],
                                     p, coup.m_total)
        assert float(np.max(np.abs(back_t - trans.samples))) <= 1e-4 * trans.peak()
        assert float(np.max(np.abs(back_r - refl.samples))) <= 1e-4 * refl.peak()

    def test_flux_conserved_for_full_coupling(self):
        """|t|^2 + |r|^2 = 1 on the whole grid (lossless scattering)."""
        p = SimParams.from_ratios(4.0, math.pi / 4)
        wp = IncidentWavepacket(delta=p.delta, omega0=p.omega0)
        t_vals, r_vals = transfer_oracle(p, CouplingModel.full(), wp,
                                         self.detuning_grid(p))
        dev = np.abs(np.abs(t_vals) ** 2 + np.abs(r_vals) ** 2 - 1.0)
        assert float(dev.max()) <= 1e-12

    def test_rwa_transfer_matches_rwa_areas(self):
        """Even for a theorem-breaking coupling, the oracle's t(0) equals
        the time-domain area ratio."""
        model = CouplingModel.rwa_const_g()
        p, wp, traj, coup = run_case(0.25, math.pi / 4, model=model)
        s_inc, s_trans, s_refl = pulse_areas(reconstruct_fields(traj, wp, p))
        dets = self.detuning_grid(p)
        t_vals, _ = transfer_oracle(p, coup, wp, dets)
        t0 = t_vals[int(np.argmin(np.abs(dets)))]
        assert abs(t0) == pytest.approx(abs(s_trans) / abs(s_inc), rel=1e-3)

    def test_accepts_raw_coupling_value(self):
        p = SimParams.from_ratios(0.25, math.pi / 4)
        wp = IncidentWavepacket(delta=p.delta, omega0=p.omega0)
        dets = self.detuning_grid(p)
        m = evaluate_coupling(p, CouplingModel.full()).m_total
        t_model, r_model = transfer_oracle(p, CouplingModel.full(), wp, dets)
        t_raw, r_raw = transfer_oracle(p, m, wp, dets)
        assert np.array_equal(t_model, t_raw)
        assert np.array_equal(r_model, r_raw)

    def test_gamma_zero_passes_through(self):
        """No coupling: unit transmission, zero reflection, away from the
        singular zero-detuning point."""
        p, wp, traj, coup = gamma_zero_case()
        dets = np.linspace(-9 * p.delta, 9 * p.delta, 512)  # excludes 0
        t_vals, r_vals = transfer_oracle(p, coup, wp, dets)
        assert np.array_equal(t_vals, np.ones_like(t_vals))
        assert not np.any(r_vals)

    def test_gamma_zero_singular_at_resonance(self):
        p, wp, traj, coup = gamma_zero_case()
        with pytest.raises(NumericalError, match="singular"):
            transfer_oracle(p, coup, wp, np.linspace(-9 * p.delta, 9 * p.delta, 513))

    def test_span_guard(self):
        p = SimParams.from_ratios(0.25, math.pi / 4)
        wp = IncidentWavepacket(delta=p.delta, omega0=p.omega0)
        with pytest.raises(ConfigurationError, match="cover"):
            transfer_oracle(p, CouplingModel.full(), wp,
                            np.linspace(-3 * p.delta, 3 * p.delta, 64))

    def test_round_trip_memory(self):
        """The transfer-oracle round trip on the largest validate cell peaks
        below 6.5 of its own N-point complex buffers: it holds t(d) and one
        N-point spectrum, where a full spectrum and its inverse took 7.0."""
        params, wp, coup, _, (inc, _, _) = _scatter(0.02, math.pi / 4)
        rate = min(lam.real for lam in driven_modes(params, coup.m_total).values())
        n = fft_length(inc.samples.size + math.ceil(
            math.log(1 / WRAP_FRACTION) / (rate * inc.dtau)))
        assert n == 691_200  # 3.35 grid lengths, where fft_length(8n) was 1,658,880
        tracemalloc.start()
        try:
            transfer_round_trip(inc, lambda d: transfer_oracle(params, coup, wp, d)[0],
                                params, coup.m_total)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.5 * 16 * n

    def test_round_trip_on_a_slow_tail(self):
        """On a cell whose slow mode is left to a closed-form tail, padding
        by that mode's decay keeps the wrap-around under transfer-oracle's
        tolerance; fft_length(8n) padding measured 2.2e-3 here."""
        params, wp, coup, _, (inc, trans, _) = _scatter(0.25, 0.3)
        assert trans.tail
        back = transfer_round_trip(inc, lambda d: transfer_oracle(params, coup, wp, d)[0],
                                   params, coup.m_total)
        assert float(np.max(np.abs(back - trans.samples))) <= 1e-4 * trans.peak()

    def test_round_trip_budget(self):
        """Near a dark phase the slowest mode needs more padding than
        POINT_BUDGET allows: ConfigurationError before any allocation, in an
        interpreter capped at 1 GiB."""
        script = ("from wqed.checks import _scatter, transfer_round_trip\n"
                  "from wqed.fields import transfer_oracle\n"
                  "params, wp, coup, _, (inc, _, _) = _scatter(0.25, 1e-3)\n"
                  "transfer_round_trip(inc, lambda d: transfer_oracle(params, coup, wp, d)[0],"
                  " params, coup.m_total)\n")
        code, err = run_limited(["-c", script], entry=())
        assert code == 1
        assert "ConfigurationError: the transfer round trip needs n = " in err
        assert "MemoryError" not in err

    def test_round_trip_without_decay_is_over_budget(self):
        """Without coupling no mode decays, so no padding bounds the wrap-around."""
        p, wp, traj, coup = gamma_zero_case()
        inc = reconstruct_fields(traj, wp, p)[0]
        with pytest.raises(ConfigurationError, match="needs n = Infinity points"):
            transfer_round_trip(inc, lambda d: transfer_oracle(p, coup, wp, d)[0],
                                p, coup.m_total)


class TestTransferProperties:
    @settings(max_examples=60, deadline=None)
    @given(k0l=st.floats(1e-6, 30.0), ratio=st.floats(0.02, 4.0))
    def test_full_coupling_is_lossless_and_opaque_at_resonance(self, k0l, ratio):
        """For every separation and coupling strength: t(0) = 0, r(0) = -1,
        and |t|^2 + |r|^2 = 1 across the band."""
        p = SimParams.from_ratios(ratio, k0l)
        wp = IncidentWavepacket(delta=p.delta, omega0=p.omega0)
        dets = np.linspace(-9 * p.delta, 9 * p.delta, 257)
        t_vals, r_vals = transfer_oracle(p, CouplingModel.full(), wp, dets)
        i0 = int(np.argmin(np.abs(dets)))
        assert abs(t_vals[i0]) <= 1e-10
        assert abs(r_vals[i0] + 1.0) <= 1e-10
        dev = np.abs(np.abs(t_vals) ** 2 + np.abs(r_vals) ** 2 - 1.0)
        assert float(dev.max()) <= 1e-10
