"""Tests for the sine/cosine integral primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from wqed.checks import si_ci_reference
from wqed.errors import DomainError
from wqed.specfun import ci, si

# Oracle values frozen from independent quadrature / series evaluation
# (regenerate with the _oracle_* helpers below).
SI_2_ORACLE = 1.6054129768026946  # adaptive quadrature of sin(t)/t on [0, 2]
CI_1_ORACLE = 0.33740392290096816  # convergent series at x = 1
EULER_GAMMA = 0.5772156649015328606


def _oracle_si(x: float) -> float:
    """Adaptive quadrature of the defining integral."""
    val, _ = quad(lambda t: np.sinc(t / np.pi), 0.0, x, limit=max(200, int(20 * x)))
    return val


def _oracle_ci(x: float) -> float:
    """Direct quadrature of either defining form of Ci.

    For small x the tail rule loses accuracy on the huge 1/t endpoint, so
    use gamma + ln x + int_0^x (cos t - 1)/t dt (smooth integrand) there
    and -int_x^inf cos(t)/t dt (Fourier-weighted rule) for large x.
    """
    if x <= 6.0:
        val, _ = quad(lambda t: (math.cos(t) - 1.0) / t, 0.0, x)
        return EULER_GAMMA + math.log(x) + val
    val, _ = quad(lambda t: 1.0 / t, x, np.inf, weight="cos", wvar=1.0)
    return -val


class TestSi:
    """Point values and limits of the sine integral."""

    def test_zero(self):
        assert si(0.0) == 0.0

    def test_large_argument_limit(self):
        assert abs(si(1e6) - math.pi / 2) < 2e-6

    def test_matches_quadrature_oracle_at_2(self):
        r = si(2.0)
        assert abs(r - SI_2_ORACLE) < 1e-10
        assert abs(r - _oracle_si(2.0)) < 1e-10

    @pytest.mark.parametrize("x", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_rejected(self, x):
        with pytest.raises(DomainError):
            si(x)


class TestCi:
    """Point values, limits, and the divergence guard of the cosine integral."""

    def test_large_argument_limit(self):
        assert abs(ci(1e6)) < 2e-6

    def test_matches_series_oracle_at_1(self):
        r = ci(1.0)
        assert abs(r - CI_1_ORACLE) < 1e-10

    def test_log_divergence_near_zero(self):
        # leading behaviour gamma + ln x; the series correction is O(x^2)
        assert abs(ci(1e-8) - (EULER_GAMMA + math.log(1e-8))) < 1e-12

    @pytest.mark.parametrize("x", [0.0, -1.0, -1e-30, float("nan"), float("inf")])
    def test_domain_guard(self, x):
        with pytest.raises(DomainError):
            ci(x)


class TestInvariants:
    """Symmetry, asymptotics, and agreement with direct quadrature."""

    @given(st.floats(min_value=1e-12, max_value=1e6))
    @settings(max_examples=200, deadline=None)
    def test_si_odd_symmetry(self, x):
        assert si(-x) == -si(x)

    @pytest.mark.parametrize("x", [30.0, 50.0, 100.0, 300.0, 1000.0])
    def test_asymptotic_band(self, x):
        # one-term asymptotics: Si ~ pi/2 - cos(x)/x, Ci ~ sin(x)/x, both
        # with remainder below 2/x^2
        assert abs(si(x) - math.pi / 2 + math.cos(x) / x) <= 2.0 / x**2
        assert abs(ci(x) - math.sin(x) / x) <= 2.0 / x**2

    @pytest.mark.parametrize("x", np.logspace(-3, 3, 19).tolist())
    def test_agreement_with_defining_integrals(self, x):
        assert abs(si(x) - _oracle_si(x)) < 1e-10
        assert abs(ci(x) - _oracle_ci(x)) < 1e-10

    @pytest.mark.parametrize("x", np.logspace(-3, 3, 12).tolist())
    def test_gauss_legendre_reference_converged(self, x):
        # the specfun check's references: halving the panel width moves
        # them by round-off only, at most 2 ulps of an O(1) value
        coarse, fine = si_ci_reference(x), si_ci_reference(x, width=0.25)
        for a, b in zip(coarse, fine):
            assert abs(b - a) <= 2 * np.spacing(max(1.0, abs(a)))
        assert abs(coarse[0] - _oracle_si(x)) < 1e-10
        assert abs(coarse[1] - _oracle_ci(x)) < 1e-10

    def test_continued_fraction_regime_against_series_at_cutoff(self):
        # both regimes must agree where they meet
        assert abs(si(6.0) - si(6.0 + 1e-12)) < 1e-11
        assert abs(ci(6.0) - ci(6.0 + 1e-12)) < 1e-11
