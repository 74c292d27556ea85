"""Effective dynamic homogenization of 1D periodic media.

Subpackage map:

- ``material``: piecewise-constant unit cells and closed-form Fourier data
- ``spectral``: plane-wave Bloch operator, eigensystem, resolvent solves
- ``cell_functions``: monopole/dipole cell responses (spectral and exact)
- ``willis``: effective impedance, Willis-type parameters, visibility
- ``asymptotics``: static corrector chain, expansion coefficients,
  second-order impedance and source-modulation factor
- ``dispersion``: exact/asymptotic acoustic-branch cross-validation
- ``verify``: the verification report, one table of check groups
- ``cli``: command line front end (``willis-homog``)
"""

from .material import (
    Phase,
    UnitCell1D,
    FourierField,
    bilaminate,
    homogeneous,
    fourier_coefficients,
)

__version__ = "0.1.0"

__all__ = [
    "Phase",
    "UnitCell1D",
    "FourierField",
    "bilaminate",
    "homogeneous",
    "fourier_coefficients",
    "__version__",
]
