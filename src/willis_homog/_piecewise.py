"""Exact piecewise-polynomial calculus on the cell partition.

The static corrector problems have piecewise-polynomial data on a
piecewise-constant cell, so their solutions stay piecewise polynomial.
A field is one complex array of shape (segments, degree + 1): row j holds
the ascending coefficients of p_j(x - x_j), in the local coordinate for
conditioning.  Antiderivatives, products and cell averages are then exact
up to roundoff, and do not depend on how wide the array is padded:
products convolve the nonzero leading part of each row, and values come
from Horner's rule started at the top coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .material import _SCALARS, UnitCell1D

__all__ = ["PiecewisePoly", "piecewise_constant"]


def _horner(coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Row j of ``coeffs`` at t[j]."""
    value = coeffs[:, -1]
    for i in range(2, coeffs.shape[1] + 1):
        value = coeffs[:, -i] + value * t
    return value


def _lead_sizes(coeffs: np.ndarray) -> list[int]:
    """Per row, the number of coefficients up to the last nonzero one (at least one)."""
    nonzero = coeffs != 0
    last = coeffs.shape[1] - np.argmax(nonzero[:, ::-1], axis=1)
    return np.where(nonzero.any(axis=1), last, 1).tolist()


@dataclass(frozen=True, eq=False)
class PiecewisePoly:
    """Per-segment polynomials p_j(x - x_j) on shared breakpoints."""

    breaks: np.ndarray
    coeffs: np.ndarray
    lengths: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        breaks = np.asarray(self.breaks, dtype=float)
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.ndim != 2 or coeffs.shape[0] != breaks.size - 1 or coeffs.shape[1] == 0:
            raise ValidationError("need one coefficient row per segment")
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "lengths", np.diff(breaks))

    def _new(self, coeffs: np.ndarray) -> "PiecewisePoly":
        """The field on this partition of a coefficient array an operation just built, unchecked."""
        out = object.__new__(PiecewisePoly)
        out.__dict__.update(breaks=self.breaks, coeffs=coeffs, lengths=self.lengths)
        return out

    def _operand(self, other) -> np.ndarray:
        """Coefficient array of a field on the same partition, or of an array."""
        if isinstance(other, PiecewisePoly):
            if other.breaks is not self.breaks and not np.array_equal(self.breaks, other.breaks):
                raise ValidationError("piecewise operands live on different partitions")
            return other.coeffs
        return PiecewisePoly(self.breaks, other).coeffs  # checked: an array is a coefficient array

    def _shift(self, coeffs: np.ndarray, constant) -> "PiecewisePoly":
        """The field of ``coeffs``, a fresh array on this partition, plus a constant."""
        coeffs[:, 0] += constant
        return self._new(coeffs)

    def __add__(self, other) -> "PiecewisePoly":
        if isinstance(other, _SCALARS) or (not isinstance(other, PiecewisePoly) and not np.ndim(other)):
            return self._shift(self.coeffs.copy(), other)
        a, b = self.coeffs, self._operand(other)
        if a.shape[1] < b.shape[1]:
            a, b = b, a
        out = a.copy()
        out[:, : b.shape[1]] += b
        return self._new(out)

    __radd__ = __add__

    def __neg__(self) -> "PiecewisePoly":
        return self._new(-self.coeffs)

    def __sub__(self, other) -> "PiecewisePoly":
        return self._shift(self.coeffs.copy(), -other) if isinstance(other, _SCALARS) else self + (-other)

    def __rsub__(self, other) -> "PiecewisePoly":
        return self._shift(-self.coeffs, other) if isinstance(other, _SCALARS) else (-self) + other

    def __mul__(self, other) -> "PiecewisePoly":
        if not isinstance(other, PiecewisePoly):
            c = self.coeffs * other  # checked unless a scalar: ``other`` may be an array
            return self._new(c) if isinstance(other, _SCALARS) else PiecewisePoly(self.breaks, c)
        a, b = self.coeffs, self._operand(other)
        la, lb = _lead_sizes(a), _lead_sizes(b)
        out = np.zeros((a.shape[0], max(map(sum, zip(la, lb))) - 1), dtype=complex)
        for row, x, y, i, j in zip(out, a, b, la, lb):
            row[: i + j - 1] = np.convolve(x[:i], y[:j])
        return self._new(out)

    __rmul__ = __mul__

    def _primitive(self) -> tuple[np.ndarray, np.ndarray]:
        """(primitives vanishing at each x_j, integrals from 0 to each x_{j+1}); notes the mean."""
        c = self.coeffs
        prim = np.zeros((c.shape[0], c.shape[1] + 1), dtype=complex)
        prim[:, 1:] = c / np.arange(1, c.shape[1] + 1)
        ends = np.cumsum(_horner(prim, self.lengths))
        self.__dict__["_mean"] = complex(ends[-1])
        return prim, ends

    def antiderivative(self) -> "PiecewisePoly":
        """Continuous antiderivative, zero at x = 0."""
        prim, ends = self._primitive()
        prim[1:, 0] = ends[:-1]
        return self._new(prim)

    @property
    def mean(self) -> complex:
        """Exact integral over the unit cell (computed once)."""
        if "_mean" not in self.__dict__:
            self._primitive()
        return self.__dict__["_mean"]

    def zero_mean(self) -> "PiecewisePoly":
        return self - self.mean

    def bound(self) -> float:
        """max_j sum_i |c_ji| h_j^i, a bound on |p(x)| over the cell."""
        powers = self.lengths[:, None] ** np.arange(self.coeffs.shape[1])
        return float(np.max(np.sum(np.abs(self.coeffs) * powers, axis=1)))


def piecewise_constant(cell: UnitCell1D, values: Sequence[float]) -> PiecewisePoly:
    """Piecewise-constant function on the cell partition."""
    vals = np.asarray(values)
    if vals.size != len(cell.phases):
        raise ValidationError("need one value per phase")
    return PiecewisePoly(cell.breakpoints, vals.reshape(-1, 1))
