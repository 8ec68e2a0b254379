"""Tests for the coupling models and their quadrature oracle."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqed import coupling
from wqed.coupling import (
    EPS_REF_RATIO,
    ORACLE_TAIL_TOL,
    CouplingModel,
    SimParams,
    _GL_W,
    _GL_X,
    _coupling_parts,
    _subdivide,
    _tail_start,
    coupling_full,
    coupling_oracle,
    coupling_rwa_const_g,
    coupling_rwa_cutoff,
    coupling_rwa_negfreq,
    evaluate_coupling,
)
from wqed.checks import VALIDATION_CHECKS
from wqed.dynamics import MARKOV_LIMIT, markov_guard
from wqed.errors import ConfigurationError, DomainError
from wqed.specfun import si


# the coupling-oracle parts at validate's spots before the oracle integrated
# [0, eps_ref] and took its three-term tail; kept as the record of that change
PARTS_WITHOUT_FLOOR_SEGMENT = {
    math.pi / 4: (0.34488586856647724 + 3.5149257447290347j,
                  0.13777908487991186 - 2.807818966725604j,
                  0.36222091262007033 + 2.807818963542487j,
                  -0.13777908487991186 - 2.807818966725604j),
    math.pi / 2: (-0.32512123431917755 + 3.7361676227305303j,
                  0.17487876068079794 - 2.7361676259136294j,
                  0.32512123431917767 + 2.7361676227305303j,
                  -0.17487876068079794 - 2.7361676259136294j),
    3 * math.pi: (-1.266546603809136 + 2.4811464137074895j,
                  0.23345336619086407 - 2.481146416890565j,
                  0.26654660380913575 + 2.4811464137074895j,
                  -0.23345336619086407 - 2.481146416890565j),
}


def params_at(k0l, gamma_over_delta=4.0, **kw):
    return SimParams.from_ratios(gamma_over_delta, k0l, **kw)


class TestSimParams:
    """Validation and derived quantities of the parameter container."""

    def test_from_ratios_consistency(self):
        p = params_at(math.pi / 4, omega0_over_gamma=1e4)
        assert p.k0l == pytest.approx(math.pi / 4, rel=1e-15)
        assert p.gamma / p.delta == pytest.approx(4.0, rel=1e-15)

    def test_markov_flags(self):
        good = params_at(math.pi / 4, omega0_over_gamma=1e4)
        assert max(markov_guard(good).values()) <= MARKOV_LIMIT
        # omega0 only 4x the bandwidth, flight time 10/gamma: both over the limit
        bad = markov_guard(SimParams(gamma=1.0, delta=5.0, omega0=20.0, l=10.0))
        assert bad["delta_over_omega0"] > MARKOV_LIMIT
        assert bad["retardation"] > MARKOV_LIMIT

    def test_zero_separation_is_valid(self):
        p = SimParams(gamma=1.0, delta=0.25, omega0=1e4, l=0.0)
        assert p.k0l == 0.0 and markov_guard(p)["retardation"] == 0.0

    @pytest.mark.parametrize("kw", [
        dict(gamma=-1.0), dict(delta=0.0), dict(omega0=-5.0),
        dict(l=-1e-3),
    ])
    def test_rejects_bad_fields(self, kw):
        base = dict(gamma=1.0, delta=0.25, omega0=1e4, l=1.0)
        base.update(kw)
        with pytest.raises(ConfigurationError):
            SimParams(**base)


class TestCouplingModel:
    def test_cutoff_requires_epsilon(self):
        with pytest.raises(DomainError):
            CouplingModel.rwa_cutoff(0.0)
        with pytest.raises(DomainError):
            CouplingModel("rwa-cutoff")
        with pytest.raises(DomainError):  # its label, rwa-cutoff:inf, would not parse
            CouplingModel.rwa_cutoff(math.inf)

    def test_epsilon_rejected_elsewhere(self):
        with pytest.raises(ConfigurationError):
            CouplingModel("full", epsilon=1.0)

    def test_dispatch(self):
        p = params_at(1.0)
        assert evaluate_coupling(p, CouplingModel.full()).m_parts != ()
        assert evaluate_coupling(p, CouplingModel.rwa_negfreq()).m_parts == ()


class TestFullCoupling:
    """Closed forms of the four-path coupling."""

    def test_identity_on_grid(self):
        # total equals gamma*e^{i k0l} across 100 separations
        for k0l in np.linspace(0.0, 8 * math.pi, 100):
            p = params_at(float(k0l))
            r = coupling_full(p)
            assert abs(r.m_total - cmath.exp(1j * k0l)) <= 1e-12
            assert abs(r.m_total - sum(r.m_parts)) <= 1e-12

    def test_quarter_wave_value(self):
        r = coupling_full(params_at(math.pi / 4))
        assert r.m_total == pytest.approx(complex(math.sqrt(2) / 2, math.sqrt(2) / 2),
                                          abs=1e-14)

    def test_in_phase_pair(self):
        r = coupling_full(params_at(0.0))
        assert r.m_total == pytest.approx(1.0 + 0.0j, abs=1e-14)
        # superradiant-pair limit: rotating and counter-rotating parts
        # split gamma/2 each with opposite log-divergent constants
        m1, m2, m3, m4 = r.m_parts
        assert m1 == m3 and m2 == m4
        assert m1.real == pytest.approx(0.5, abs=1e-14)
        assert (m1 + m2).imag == pytest.approx(0.0, abs=1e-14)

    @given(st.floats(min_value=1e-6, max_value=40.0),
           st.floats(min_value=-3.0, max_value=3.0),
           st.floats(min_value=-3.0, max_value=3.0))
    @settings(max_examples=150, deadline=None)
    def test_regulariser_convention_invariance(self, k0l, dre, dim):
        # shifting the shared constant in G+- moves every part but not the sum
        base = _coupling_parts(1.0, k0l)
        shifted = _coupling_parts(1.0, k0l, g_const=1j * 0.0 + complex(dre, dim))
        assert abs(sum(base) - sum(shifted)) <= 1e-12
        if abs(complex(dre, dim)) > 1e-6:
            assert abs(base[0] - shifted[0]) > 0

    def test_split_examples(self):
        for k0l, expected in ((math.pi / 2, (0.0, 1.0)), (0.0, (1.0, 0.0)),
                              (math.pi / 4, (math.sqrt(2) / 2, math.sqrt(2) / 2))):
            m = coupling_full(params_at(k0l)).m_total
            assert (m.real, m.imag) == pytest.approx(expected, abs=1e-13)


class TestRwaCutoff:
    """Rotating-wave model with explicit infrared cutoff."""

    def test_real_part_is_cosine(self):
        p = params_at(math.pi / 2)
        for eps in (1e-6 * p.omega0, 1e-2 * p.omega0):
            assert coupling_rwa_cutoff(p, eps).m_total.real == pytest.approx(0.0, abs=1e-13)

    def test_log_ladder(self):
        # one decade of cutoff adds (gamma/pi) ln 10 to the shift
        p = params_at(1.0)
        eps = 1e-5 / p.l
        step = (coupling_rwa_cutoff(p, eps).m_total.imag
                - coupling_rwa_cutoff(p, 10 * eps).m_total.imag)
        assert step == pytest.approx(math.log(10) / math.pi, rel=0.01)

    def test_divergence_law_slope(self):
        p = params_at(1.0)
        eps = np.geomspace(1e-6 / p.l, 1e-2 / p.l, 9)
        ims = [coupling_rwa_cutoff(p, e).m_total.imag for e in eps]
        slope = np.polyfit(np.log(eps), ims, 1)[0]
        assert slope == pytest.approx(-1.0 / math.pi, rel=0.01)

    def test_large_separation_with_large_cutoff(self):
        # eps >> 1/l makes the rotating-wave answer honest
        p = params_at(200.0, omega0_over_gamma=1e6)
        r = coupling_rwa_cutoff(p, 10.0 / p.l)
        assert abs(r.m_total - cmath.exp(1j * 200.0)) <= 0.02
        assert not r.diverged

    def test_diverged_flag(self):
        p = params_at(1.0)
        assert coupling_rwa_cutoff(p, 1e-6 / p.l).diverged
        assert not coupling_rwa_cutoff(p, 10.0 / p.l).diverged

    def test_epsilon_guard(self):
        p = params_at(1.0)
        for eps in (0.0, -1.0, float("nan")):
            with pytest.raises(DomainError):
                coupling_rwa_cutoff(p, eps)


class TestRwaConstG:
    """Rotating-wave model with frequency-independent coupling strength."""

    def test_real_part_exact_cosine(self):
        for k0l in (0.3, math.pi / 4, 2.0, 7.0):
            r = coupling_rwa_const_g(params_at(k0l))
            assert r.m_total.real == pytest.approx(math.cos(k0l), abs=1e-15)

    def test_wrong_shift_at_quarter_wave(self):
        r = coupling_rwa_const_g(params_at(math.pi / 4))
        true_shift = math.sin(math.pi / 4)
        assert abs(r.m_total.imag - true_shift) / true_shift > 0.05

    @pytest.mark.parametrize("k0l", [100.0, 200.0, 500.0])
    def test_large_separation_consistency(self, k0l):
        r = coupling_rwa_const_g(params_at(k0l, omega0_over_gamma=1e6))
        assert abs(r.m_total - cmath.exp(1j * k0l)) <= 0.03

    def test_singular_at_zero_separation(self):
        with pytest.raises(DomainError):
            coupling_rwa_const_g(params_at(0.0))


class TestRwaNegFreq:
    def test_matches_full_everywhere(self):
        for k0l in np.linspace(0.0, 8 * math.pi, 25):
            p = params_at(float(k0l))
            assert abs(coupling_rwa_negfreq(p).m_total
                       - coupling_full(p).m_total) <= 1e-12

    def test_point_values(self):
        assert coupling_rwa_negfreq(params_at(math.pi)).m_total == \
            pytest.approx(-1.0 + 0j, abs=1e-15)
        p = SimParams.from_ratios(4.0, math.pi / 6, gamma=2.0)
        assert coupling_rwa_negfreq(p).m_total == \
            pytest.approx(2 * cmath.exp(1j * math.pi / 6), abs=1e-14)


class TestOracle:
    """Defining-integral quadrature against the closed forms."""

    def test_gauss_legendre_table_is_leggauss(self):
        # written out so that no LAPACK eigensolver runs at import
        x, w = np.polynomial.legendre.leggauss(16)
        assert _GL_X.tobytes() == x.tobytes() and _GL_W.tobytes() == w.tobytes()

    def test_part1_quarter_wave(self):
        p = params_at(math.pi / 4)
        closed = coupling_full(p).m_parts[0]
        assert abs(coupling_oracle(p, 1) - closed) <= 1e-6

    def test_total_third_wave(self):
        p = params_at(math.pi / 3)
        total = sum(coupling_oracle(p, i) for i in (1, 2, 3, 4))
        assert abs(total - cmath.exp(1j * math.pi / 3)) <= 1e-6

    def test_counter_rotating_parts_fix_the_shift(self):
        # with parts 2 and 4 included the total shift is the true one
        p = params_at(2.0)
        total = sum(coupling_oracle(p, i) for i in (1, 2, 3, 4))
        assert total.imag == pytest.approx(math.sin(2.0), abs=1e-6)

    @pytest.mark.parametrize("k0l", [math.pi / 6, 1.0, 5.0])
    def test_pairwise_sums(self, k0l):
        p = params_at(k0l)
        closed = coupling_full(p).m_parts
        pair12 = coupling_oracle(p, 1) + coupling_oracle(p, 2)
        pair34 = coupling_oracle(p, 3) + coupling_oracle(p, 4)
        assert abs(pair12 - (closed[0] + closed[1])) <= 1e-6
        assert abs(pair34 - (closed[2] + closed[3])) <= 1e-6

    def test_zero_separation(self):
        p = params_at(0.0)
        closed = coupling_full(p).m_parts
        for i in (1, 2):
            assert abs(coupling_oracle(p, i) - closed[i - 1]) <= 1e-6

    @pytest.mark.parametrize("wmax", [0.37, 2.0, math.inf])
    def test_subdivide_matches_the_list_builder(self, wmax):
        def list_subdivide(edges, wmax):
            out = [edges[0]]
            for a, b in zip(edges[:-1], edges[1:]):
                n = max(1, math.ceil((b - a) / wmax))
                out.extend(a + (b - a) * (k + 1) / n for k in range(n))
            return np.asarray(out)

        rng = np.random.default_rng(20)
        for size in (2, 3, 17, 200):
            edges = np.sort(rng.uniform(-3.0, 40.0, size)).tolist()
            assert np.array_equal(_subdivide(edges, wmax), list_subdivide(edges, wmax))
        graded = np.geomspace(1e-8, 0.125, 30).tolist() + [0.25, 0.5, 1.0, 2.0, 1e4]
        assert np.array_equal(_subdivide(graded, wmax), list_subdivide(graded, wmax))

    @pytest.mark.parametrize("k0l, parts", [
        (math.pi / 4, (0.34488586856645453 + 3.5149257463206007j,
                       0.13777908487990717 - 2.8078189651340573j,
                       0.36222091262009304 + 2.807818965134053j,
                       -0.13777908487990717 - 2.8078189651340573j)),
        (math.pi / 2, (-0.32512123431919765 + 3.7361676243220816j,
                       0.17487876068080244 - 2.7361676243220785j,
                       0.32512123431919776 + 2.7361676243220816j,
                       -0.17487876068080244 - 2.7361676243220785j)),
        (3 * math.pi, (-1.2665466038091409 + 2.4811464152990164j,
                       0.23345336619085946 - 2.481146415299014j,
                       0.26654660380914075 + 2.4811464152990164j,
                       -0.23345336619085946 - 2.481146415299014j)),
    ])
    def test_parts_match_the_complex_exp_panel_sums(self, k0l, parts):
        # the coupling-oracle check's cells, pinned to their panel sums.  The
        # values in PARTS_WITHOUT_FLOOR_SEGMENT lacked the regular pieces on
        # [0, eps_ref]; adding them moves every part by i*gamma*eps_ref/(2 pi),
        # and the three-term tail from the bound-derived start and the pole's
        # subtraction on [1/2, 3/2] by round-off only
        p = SimParams.from_ratios(1.0, k0l)
        floor = 1j * p.gamma * EPS_REF_RATIO / (2 * math.pi)
        for index, (old, new) in enumerate(zip(PARTS_WITHOUT_FLOOR_SEGMENT[k0l], parts),
                                           start=1):
            value = coupling_oracle(p, index)
            assert abs(value - new) <= 1e-15 * p.gamma
            assert abs(value - old - floor) <= 1e-12 * p.gamma

    @pytest.mark.parametrize("gamma_over_delta, k0l", [
        *((1.0, x) for x in (math.pi / 4, math.pi / 2, 3 * math.pi)),
        *((0.25, x) for x in (math.pi / 8, math.pi / 4, 1.0, math.pi / 2, math.pi,
                              2 * math.pi, 3 * math.pi)),
    ])
    def test_total_has_no_floor(self, gamma_over_delta, k0l):
        # validate's 3 spots and the acceptance gate's 7 phases; the sum sat
        # 2*gamma*eps_ref/pi = 6.4e-9 off while [0, eps_ref] was left out
        p = SimParams.from_ratios(gamma_over_delta, k0l)
        total = sum(coupling_oracle(p, i) for i in (1, 2, 3, 4))
        assert abs(total - coupling_full(p).m_total) <= 3e-14 * p.gamma

    @pytest.mark.parametrize("k0l", [math.pi / 8, math.pi / 4, 1.0, math.pi / 2, math.pi,
                                     2 * math.pi, 3 * math.pi])
    def test_single_parts_differ_by_the_si_offset(self, k0l):
        # the oracle cuts the 1/u piece at eps_ref, where the closed forms'
        # regularisers G+- keep only Ci; the Si term it adds cancels in pairs
        p = SimParams.from_ratios(0.25, k0l)
        offset = p.gamma * si(EPS_REF_RATIO * p.k0l) / (2 * math.pi)
        closed = coupling_full(p).m_parts
        for index, sign in enumerate((1, -1, -1, 1), start=1):
            difference = coupling_oracle(p, index) - closed[index - 1]
            assert abs(difference - sign * offset) <= 1e-13 * p.gamma

    def test_validate_spots_take_at_most_40000_nodes(self, monkeypatch):
        # validate's three spots take 34,688 nodes in one pass with the pole subtracted
        nodes = []

        def counting(f, edges, phase):
            nodes.append(_GL_X.size * (len(edges) - 1))
            return gl_panels(f, edges, phase)

        gl_panels = coupling._gl_panels
        monkeypatch.setattr(coupling, "_gl_panels", counting)
        assert VALIDATION_CHECKS["coupling-oracle"]().ok
        assert 0 < sum(nodes) <= 40_000

    @pytest.mark.parametrize("k0l", [0.3, math.pi / 4, math.pi / 2, 3 * math.pi])
    def test_doubling_the_tail_start_stays_within_the_tail_bound(self, k0l):
        # each part's tail error is at most ORACLE_TAIL_TOL*gamma from the
        # default start on, so two sums of four parts differ by at most 8 of it
        p = SimParams.from_ratios(0.25, k0l)
        start = _tail_start(k0l) * p.omega0
        sums = [sum(coupling_oracle(p, i, omega_max=scale * start) for i in (1, 2, 3, 4))
                for scale in (1, 2)]
        assert abs(sums[1] - sums[0]) <= 8 * ORACLE_TAIL_TOL * p.gamma

    def test_argument_guards(self):
        p = params_at(1.0)
        with pytest.raises(ConfigurationError):
            coupling_oracle(p, 5)
        with pytest.raises(ConfigurationError):
            coupling_oracle(p, 1, omega_max=10 * p.omega0)
