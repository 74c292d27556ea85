"""Piecewise-constant periodic material cells and their Fourier data.

The unit cell is the interval Y = (0, 1); a cell is an ordered list of
phases, each with a length, a shear modulus G > 0 and a mass density
rho > 0.  Fourier coefficients of the coefficient fields are evaluated in
closed form from the segment geometry, so the spectral assembly downstream
carries no quadrature error.

Conventions: c_m = int_0^1 f(x) exp(-2*pi*i*m*x) dx, stored for
m = -N..N with index m + N.  For real fields c_{-m} = conj(c_m) and c_0 is
the cell average.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "Phase",
    "UnitCell1D",
    "FourierField",
    "bilaminate",
    "homogeneous",
    "fourier_coefficients",
    "sample",
    "cell_digest",
    "cell_from_dict",
    "cell_to_dict",
]

#: admissible closed-form coefficient fields
FIELD_NAMES = ("G", "rho", "1/G")

_LENGTH_TOL = 1e-12


@dataclass(frozen=True)
class Phase:
    """One homogeneous segment of the cell: length, modulus G, density rho."""

    length: float
    G: float
    rho: float

    def __post_init__(self) -> None:
        if not (self.length > 0.0):
            raise ValidationError(f"phase length must be > 0, got {self.length}")
        if not (self.G > 0.0):
            raise ValidationError(f"phase modulus G must be > 0, got {self.G}")
        if not (self.rho > 0.0):
            raise ValidationError(f"phase density rho must be > 0, got {self.rho}")


@dataclass(frozen=True, eq=False)
class UnitCell1D:
    """Ordered phases tiling the unit interval (lengths sum to 1)."""

    phases: tuple[Phase, ...]

    def __post_init__(self) -> None:
        if len(self.phases) == 0:
            raise ValidationError("cell needs at least one phase")
        total = sum(p.length for p in self.phases)
        if abs(total - 1.0) > _LENGTH_TOL:
            raise ValidationError(
                f"phase lengths must sum to 1 within {_LENGTH_TOL}, got {total!r}"
            )

    @property
    def breakpoints(self) -> np.ndarray:
        """Segment boundaries 0 = x_0 < x_1 < ... < x_P = 1."""
        return np.concatenate(([0.0], np.cumsum([p.length for p in self.phases])))

    def values(self, field: str) -> np.ndarray:
        """Per-segment values of one of the fields 'G', 'rho' or '1/G'."""
        if field == "G":
            return np.array([p.G for p in self.phases])
        if field == "rho":
            return np.array([p.rho for p in self.phases])
        if field == "1/G":
            return np.array([1.0 / p.G for p in self.phases])
        raise ValidationError(f"unknown field {field!r}, expected one of {FIELD_NAMES}")

    def mean(self, field: str) -> float:
        """Cell average of a coefficient field."""
        lengths = np.array([p.length for p in self.phases])
        return float(np.dot(lengths, self.values(field)))


def bilaminate(gamma_rho: float, gamma_G: float) -> UnitCell1D:
    """Two equal half-cells: (G, rho) = (1, 1) on (0, 1/2) and
    (gamma_G, gamma_rho) on (1/2, 1)."""
    return UnitCell1D(
        (
            Phase(length=0.5, G=1.0, rho=1.0),
            Phase(length=0.5, G=float(gamma_G), rho=float(gamma_rho)),
        )
    )


def homogeneous(G: float = 1.0, rho: float = 1.0) -> UnitCell1D:
    """Single-phase cell; every effective quantity has a closed form."""
    return UnitCell1D((Phase(length=1.0, G=float(G), rho=float(rho)),))


@dataclass(frozen=True, eq=False)
class FourierField:
    """Complex Fourier coefficients c_m, m = -N..N, of a periodic function."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size % 2 == 0:
            raise ValidationError("coefficient array must be 1-D with odd length")
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        """Truncation order N (coefficients cover m = -N..N)."""
        return (self.coeffs.size - 1) // 2

    @property
    def mean(self) -> complex:
        """Cell average, i.e. the m = 0 coefficient."""
        return complex(self.coeffs[self.order])

    def coefficient(self, m: int) -> complex:
        """c_m for |m| <= N."""
        n = self.order
        if abs(m) > n:
            raise ValidationError(f"harmonic {m} outside truncation |m| <= {n}")
        return complex(self.coeffs[m + n])

    def __call__(self, x: np.ndarray | float) -> np.ndarray | complex:
        """Evaluate sum_m c_m exp(2*pi*i*m*x) pointwise."""
        x = np.asarray(x, dtype=float)
        n = self.order
        m = np.arange(-n, n + 1)
        vals = np.exp(2j * np.pi * np.multiply.outer(x, m)) @ self.coeffs
        return vals if vals.shape else complex(vals)

    def conjugate_symmetry_defect(self) -> float:
        """max_m |c_{-m} - conj(c_m)|; zero for real-valued functions."""
        return float(np.max(np.abs(self.coeffs[::-1] - np.conj(self.coeffs))))


def fourier_coefficients(cell: UnitCell1D, field: str, N: int) -> FourierField:
    """Closed-form Fourier coefficients of G, rho or 1/G up to order N.

    Each segment [a, b] with value v contributes v*(b - a) to c_0 and
    v*(exp(-2*pi*i*m*b) - exp(-2*pi*i*m*a)) / (-2*pi*i*m) to c_m.
    """
    if N < 0:
        raise ValidationError(f"truncation order must be >= 0, got {N}")
    vals = cell.values(field)
    breaks = cell.breakpoints
    a, b = breaks[:-1], breaks[1:]

    m = np.arange(-N, N + 1)
    coeffs = np.zeros(2 * N + 1, dtype=complex)
    nonzero = m != 0
    mm = m[nonzero]
    phase = np.exp(-2j * np.pi * np.multiply.outer(mm, b)) - np.exp(
        -2j * np.pi * np.multiply.outer(mm, a)
    )
    coeffs[nonzero] = (phase @ vals) / (-2j * np.pi * mm)
    coeffs[N] = np.dot(b - a, vals)
    return FourierField(coeffs)


def segment_index(breaks: np.ndarray, x: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
    """(x mod 1, index of the segment holding it), right-continuous at interfaces."""
    xw = np.mod(np.asarray(x, dtype=float), 1.0)
    idx = np.clip(np.searchsorted(breaks, xw, side="right") - 1, 0, len(breaks) - 2)
    return xw, idx


def sample(cell: UnitCell1D, x: np.ndarray | float, field: str = "G") -> np.ndarray | float:
    """Pointwise field value, right-continuous at interfaces, periodic in x."""
    _, idx = segment_index(cell.breakpoints, x)
    out = cell.values(field)[idx]
    return out if out.shape else float(out)


def cell_to_dict(cell: UnitCell1D) -> dict:
    """JSON-ready description of the cell."""
    return {
        "phases": [
            {"length": p.length, "G": p.G, "rho": p.rho} for p in cell.phases
        ]
    }


def cell_from_dict(data: dict) -> UnitCell1D:
    """Build a cell from the {'phases': [{'length', 'G', 'rho'}, ...]} schema."""
    try:
        phases = tuple(
            Phase(length=float(p["length"]), G=float(p["G"]), rho=float(p["rho"]))
            for p in data["phases"]
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed cell description: {exc!r}") from exc
    return UnitCell1D(phases)


def cell_digest(cell: UnitCell1D) -> str:
    """Short stable hash of the cell geometry, used in artifact headers."""
    payload = json.dumps(cell_to_dict(cell), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]
