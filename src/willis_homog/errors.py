"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: 0 success, 1 verification failure,
2 configuration error, 3 numerical error.
"""

from __future__ import annotations


class WillisHomogError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(WillisHomogError):
    """Invalid input data (non-positive moduli, bad cell geometry, ...)."""


class ConfigError(WillisHomogError):
    """Malformed run configuration or CLI arguments."""


class NumericalError(WillisHomogError):
    """A solve produced an unacceptable residual or failed to converge."""


class ResonanceError(NumericalError):
    """The driving frequency sits inside the resonance window of an eigenvalue."""


class SolvabilityError(NumericalError):
    """A static cell problem was posed with a source of nonzero mean, so it
    has no periodic solution."""


class ZeroMeanImpedanceError(NumericalError):
    """The cell average of the monopole response is numerically zero, so the
    effective impedance Z = det/N, N = det <w>, is not representable here."""
