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
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ValidationError

__all__ = [
    "Phase",
    "UnitCell1D",
    "FourierField",
    "bilaminate",
    "homogeneous",
    "fourier_coefficients",
    "cell_digest",
    "cell_from_dict",
    "cell_to_dict",
]

#: admissible closed-form coefficient fields
FIELD_NAMES = ("G", "rho", "1/G")

_LENGTH_TOL = 1e-12


def _require_finite(**values: float) -> None:
    """ValidationError naming the first of ``values`` (k, omega) whose square is not finite."""
    for name, value in values.items():
        value = float(value)
        if not math.isfinite(value * value):
            raise ValidationError(f"{name}{'^2' if math.isfinite(value) else ''} must be finite, got {value!r}")


@dataclass(frozen=True)
class Phase:
    """One homogeneous segment of the cell: length, modulus G, density rho."""

    length: float
    G: float
    rho: float

    def __post_init__(self) -> None:
        for name, value in (("length", self.length), ("modulus G", self.G), ("density rho", self.rho)):
            if not (0.0 < value < math.inf):
                raise ValidationError(f"phase {name} must be finite and > 0, got {value}")


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

    @cached_property
    def breakpoints(self) -> np.ndarray:
        """Segment boundaries 0 = x_0 < x_1 < ... < x_P = 1, one read-only array per cell."""
        breaks = np.concatenate(([0.0], np.cumsum([p.length for p in self.phases])))
        breaks.flags.writeable = False
        return breaks

    def values(self, field: str) -> np.ndarray:
        """Per-segment values of one of the fields 'G', 'rho' or '1/G'."""
        if field == "G":
            return np.array([p.G for p in self.phases])
        if field == "rho":
            return np.array([p.rho for p in self.phases])
        if field == "1/G":
            return np.array([1.0 / p.G for p in self.phases])
        raise ValidationError(f"unknown field {field!r}, expected one of {FIELD_NAMES}")

    @cached_property
    def _means(self) -> dict[str, float]:
        lengths = np.array([p.length for p in self.phases])
        return {field: float(np.dot(lengths, self.values(field))) for field in FIELD_NAMES}

    def mean(self, field: str) -> float:
        """Cell average of a coefficient field, formed once per cell."""
        if field not in FIELD_NAMES:
            self.values(field)  # raises ValidationError
        return self._means[field]

    @cached_property
    def scales(self) -> dict[str, float]:
        """The cell's size of an average of each dimension, which every tolerance
        floor reads: mu_h = <1/G>^-1 for moduli ("G"), rho0 = <rho> for
        densities ("rho"), rho0 / mu_h for "rho/G" and 1 for the dimensionless."""
        mu_h, rho0 = 1.0 / self.mean("1/G"), self.mean("rho")
        return {"G": mu_h, "rho": rho0, "rho/G": rho0 / mu_h, "1": 1.0}

    def impedance_scale(self, k: float, omega: float) -> float:
        """<G> k^2 + <rho> omega^2 = <rho> ((c k)^2 + omega^2): the size of the
        two terms whose difference is an impedance at (k, omega); inf where it overflows."""
        ck = self.c * k
        return self.scales["rho"] * (ck * ck + omega * omega)

    @cached_property
    def c(self) -> float:
        """Rayleigh speed sqrt(<G>/<rho>); the lowest branch lies below |k| c."""
        return float(np.sqrt(self.mean("G") / self.mean("rho")))

    @cached_property
    def c0(self) -> float:
        """Quasistatic speed sqrt(mu_h / rho0), the branch's slope at k = 0 and a
        bound on it, omega_1(k) <= c0 |k| (``dispersion._scan_grid``)."""
        return float(np.sqrt(self.scales["G"] / self.scales["rho"]))


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


class FourierField:
    """Complex Fourier coefficients c_m, m = -N..N, of a periodic function; ``order`` is N.

    Only the constructor checks its array (1-D, odd length).  The operators' direct
    paths, scalar ``+ - *`` and same-order ``+ -`` on the coefficient array alone and
    ``antiderivative`` by the order's table of 2 pi i m, equal the checked path (a
    constructed field, neg-then-add, c_m / (2 pi i m)) bit for bit."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs) -> None:
        c = np.asarray(coeffs, dtype=complex)
        if c.ndim != 1 or c.size % 2 == 0:
            raise ValidationError("coefficient array must be 1-D with odd length")
        self.coeffs, self.order = c, (c.size - 1) // 2

    @property
    def mean(self) -> complex:
        """Cell average, i.e. the m = 0 coefficient."""
        return complex(self.coeffs[self.order])

    def _shift(self, coeffs: np.ndarray, constant) -> "FourierField":
        """The field of ``coeffs``, a fresh array of this order, plus a constant."""
        coeffs[self.order] += constant
        return _field(coeffs, self.order)

    def __add__(self, other) -> "FourierField":
        """Sum; of two fields, truncated to the lower of their orders."""
        if isinstance(other, FourierField):
            if other.order == self.order:
                return _field(self.coeffs + other.coeffs, self.order)
            n = min(self.order, other.order)
            return _field(_centre(self.coeffs, n) + _centre(other.coeffs, n), n)
        if not isinstance(other, _SCALARS) and np.ndim(other):
            return self + FourierField(other)  # checked: an array is a coefficient array
        return self._shift(self.coeffs.copy(), other)

    __radd__ = __add__

    def __neg__(self) -> "FourierField":
        return _field(-self.coeffs, self.order)

    def __sub__(self, other) -> "FourierField":
        if isinstance(other, FourierField) and other.order == self.order:
            return _field(self.coeffs - other.coeffs, self.order)
        return self._shift(self.coeffs.copy(), -other) if isinstance(other, _SCALARS) else self + (-other)

    def __rsub__(self, other) -> "FourierField":
        return self._shift(-self.coeffs, other) if isinstance(other, _SCALARS) else (-self) + other

    def __mul__(self, other) -> "FourierField":
        """Product; of two fields, truncated to the lower of their orders."""
        if not isinstance(other, FourierField):
            c = self.coeffs * other  # checked unless a scalar: ``other`` may be an array
            return _field(c, self.order) if isinstance(other, _SCALARS) else FourierField(c)
        a, b = (self, other) if self.order >= other.order else (other, self)
        n = b.order
        if a.order >= 2 * n:
            # the harmonics |m| <= n draw on those of a up to 2n only
            return _field(np.convolve(_centre(a.coeffs, 2 * n), b.coeffs, mode="valid"), n)
        return _field(_centre(np.convolve(a.coeffs, b.coeffs), n), n)

    __rmul__ = __mul__

    def derivative(self) -> "FourierField":
        m = np.arange(-self.order, self.order + 1)
        return _field(2j * np.pi * m * self.coeffs, self.order)

    def antiderivative(self) -> "FourierField":
        """The zero-mean antiderivative c_m / (2 pi i m); the mean c_0 has none and is dropped."""
        c = self.coeffs / _two_pi_im(self.order)
        c[self.order] = 0.0
        return _field(c, self.order)

    def zero_mean(self) -> "FourierField":
        return self - self.mean

    def bound(self) -> float:
        """sum_m |c_m|, a bound on |f(x)| over the cell."""
        return float(np.abs(self.coeffs).sum())


_SCALARS = (int, float, complex)  #: taken unchecked, numpy's float64 and complex128 too


def _field(coeffs: np.ndarray, order: int) -> FourierField:
    """The field of an order-N complex array (size 2N + 1) an operation just built, unchecked."""
    field = object.__new__(FourierField)
    field.coeffs, field.order = coeffs, order
    return field


@lru_cache(maxsize=None)
def _two_pi_im(order: int) -> np.ndarray:
    """2 pi i m for m = -order..order (1 at m = 0), a constant of the order alone like
    ``exact._INV_FACTORIAL``; a product with its reciprocal could flip a zero's sign."""
    divisor = 2j * np.pi * np.arange(-order, order + 1)
    divisor[order] = 1.0
    divisor.flags.writeable = False
    return divisor


def _centre(coeffs: np.ndarray, order: int) -> np.ndarray:
    """The harmonics |m| <= order of a centred coefficient array."""
    mid = coeffs.size // 2
    return coeffs[mid - order : mid + order + 1]


def fourier_coefficients(cell: UnitCell1D, names: tuple[str, ...], N: int) -> tuple[FourierField, ...]:
    """Closed-form Fourier coefficients up to order N of each named field
    ('G', 'rho' or '1/G'), all from one table of exponentials.

    Each segment [a, b] with value v contributes v*(b - a) to c_0 and
    v*(exp(-2*pi*i*m*b) - exp(-2*pi*i*m*a)) / (-2*pi*i*m) to c_m; each
    exponential is taken once, at its breakpoint.
    """
    if N < 0:
        raise ValidationError(f"truncation order must be >= 0, got {N}")
    breaks = cell.breakpoints
    m = np.arange(-N, N + 1)
    nonzero = m != 0
    mm = m[nonzero]
    exps = np.exp(-2j * np.pi * np.multiply.outer(mm, breaks))
    phase = exps[:, 1:] - exps[:, :-1]
    lengths, divisor = breaks[1:] - breaks[:-1], -2j * np.pi * mm
    fields = []
    for name in names:
        vals = cell.values(name)
        coeffs = np.empty(2 * N + 1, dtype=complex)
        coeffs[nonzero] = (phase @ vals) / divisor
        coeffs[N] = np.dot(lengths, vals)
        fields.append(_field(coeffs, N))
    return tuple(fields)


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
