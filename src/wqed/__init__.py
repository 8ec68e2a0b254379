"""wqed: one-photon pulse scattering by a pair of two-level atoms
coupled to a lossless one-dimensional waveguide.

The package is organized bottom-up:

    specfun   sine/cosine integrals with certified error bounds
    coupling  inter-atomic coupling constants (full and RWA variants)
    dynamics  excitation amplitudes driven by an incident wavepacket
    fields    transmitted/reflected envelopes, spectra, pulse areas
    farfield  out-of-band detector diagnostics
    sweep     the scatter pipeline, sweeps, coupling-model comparisons
    checks    the validation check registry (validate and the gate)
    cli       command-line front end

All quantities use waveguide units: c = 1 and rates measured against
the single-atom emission rate gamma.
"""

from .errors import (
    ConfigurationError,
    ConvergenceError,
    DomainError,
    GridMismatch,
    NumericalError,
    TruncationError,
    WqedError,
)

__all__ = [
    "WqedError",
    "DomainError",
    "ConfigurationError",
    "GridMismatch",
    "ConvergenceError",
    "TruncationError",
    "NumericalError",
]

__version__ = "0.1.0"
