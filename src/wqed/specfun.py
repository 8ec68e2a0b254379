"""Sine and cosine integrals Si(x), Ci(x) to near machine precision.

    Si(x) = int_0^x sin(t)/t dt
    Ci(x) = euler_gamma + ln(x) + int_0^x (cos(t) - 1)/t dt,  x > 0

Two regimes, split at |x| = 6:

* |x| <= 6: the alternating power series.  Worst-case cancellation at
  x = 6 loses ~2 digits, leaving ~2e-15 absolute error.
* |x| > 6: modified-Lentz continued fraction for the exponential
  integral at imaginary argument, E1(ix), then

      Ci(x) = -Re E1(ix),    Si(x) = pi/2 + Im E1(ix).

  The fraction converges for every x > 0 and needs only a few dozen
  terms once x > 6.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError, DomainError

EULER_GAMMA = 0.5772156649015328606

# Regime split: the series below, the continued fraction above.
SERIES_CUTOFF = 6.0

_CF_MAX_ITER = 300
_CF_EPS = 1e-15
_CF_TINY = 1e-300


def _e1_imag_axis(x: float) -> complex:
    """E1(i*x) for x > 0 by the contracted continued fraction

        E1(z) = exp(-z) / (z + 1 - 1/(z + 3 - 4/(z + 5 - 9/(...))))

    evaluated with the modified Lentz algorithm at z = i*x.
    """
    z = complex(0.0, x)
    b = z + 1.0
    c = complex(1.0 / _CF_TINY)
    d = 1.0 / b
    h = d
    for i in range(1, _CF_MAX_ITER + 1):
        a = -float(i * i)
        b += 2.0
        d = a * d + b
        if abs(d) < _CF_TINY:
            d = complex(_CF_TINY)
        c = b + a / c
        if abs(c) < _CF_TINY:
            c = complex(_CF_TINY)
        d = 1.0 / d
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h * complex(math.cos(x), -math.sin(x))
    raise ConvergenceError(
        f"continued fraction for E1(i*{x!r}) did not converge",
        residual=abs(delta - 1.0),
    )


def _si_series(x: float) -> float:
    """Si(x) = sum_k (-1)^k x^(2k+1) / ((2k+1) (2k+1)!), |x| <= 6."""
    total = 0.0
    u = x  # (-1)^k x^(2k+1) / (2k+1)!
    k = 0
    while True:
        term = u / (2 * k + 1)
        total += term
        if abs(term) <= 1e-17 * max(1.0, abs(total)):
            return total
        u *= -x * x / ((2 * k + 2) * (2 * k + 3))
        k += 1


def _ci_series(x: float) -> float:
    """Ci(x) = gamma + ln x + sum_{k>=1} (-1)^k x^(2k) / (2k (2k)!), 0 < x <= 6."""
    total = EULER_GAMMA + math.log(x)
    u = -x * x / 2.0  # (-1)^k x^(2k) / (2k)!
    k = 1
    while True:
        term = u / (2 * k)
        total += term
        if abs(term) <= 1e-17 * max(1.0, abs(total)):
            return total
        u *= -x * x / ((2 * k + 1) * (2 * k + 2))
        k += 1


def si(x: float) -> float:
    """Sine integral Si(x).

    Parameters
    ----------
    x : float
        Any finite real argument.  Odd symmetry si(-x) = -si(x) holds
        exactly because negative arguments are folded to positive ones.

    Raises
    ------
    DomainError
        If x is NaN or infinite.
    """
    if not math.isfinite(x):
        raise DomainError(f"si() requires a finite argument, got {x!r}")
    ax = abs(x)
    if ax <= SERIES_CUTOFF:
        return math.copysign(1.0, x) * _si_series(ax)
    return math.copysign(1.0, x) * (math.pi / 2 + _e1_imag_axis(ax).imag)


def ci(x: float) -> float:
    """Cosine integral Ci(x) for x > 0.

    Ci diverges logarithmically at 0 and is complex for x < 0; callers
    wanting the even extension Ci(|x|) must take the absolute value
    themselves.

    Raises
    ------
    DomainError
        If x <= 0, NaN, or infinite.  The divergence at 0 is reported,
        never returned as an infinity.
    """
    if not math.isfinite(x):
        raise DomainError(f"ci() requires a finite argument, got {x!r}")
    if x <= 0.0:
        raise DomainError(f"ci() requires x > 0, got {x!r} (Ci diverges at 0)")
    if x <= SERIES_CUTOFF:
        return _ci_series(x)
    return -_e1_imag_axis(x).real
