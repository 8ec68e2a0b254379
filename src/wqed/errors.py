"""Exception hierarchy shared by all wqed modules.

Every failure mode raised on purpose by this package derives from
WqedError, so callers can catch one base class at the CLI boundary.
"""

from __future__ import annotations


class WqedError(Exception):
    """Base class for all errors raised deliberately by wqed."""


class DomainError(WqedError):
    """An input lies outside the mathematical domain of the requested
    quantity (e.g. Ci(x) for x <= 0, or a coupling model evaluated at a
    separation where it is singular)."""


class ConfigurationError(WqedError):
    """Inconsistent or unusable configuration: bad parameter ranges,
    grids too coarse for the requested integration, malformed config
    files, clashing output paths."""


class GridMismatch(ConfigurationError):
    """Two objects that must share a time or frequency grid do not."""


class ConvergenceError(WqedError):
    """An iterative or extrapolated numerical scheme failed to reach the
    requested tolerance.  Carries the last residual estimate."""

    def __init__(self, message: str, residual: float | None = None):
        if residual is not None:
            message = f"{message} (residual={residual:.3e})"
        super().__init__(message)
        self.residual = residual


class NumericalError(WqedError):
    """A computation produced non-finite values or an otherwise
    meaningless result."""
