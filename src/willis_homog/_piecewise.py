"""Exact piecewise-polynomial calculus on the cell partition.

The static corrector problems have piecewise-polynomial data on a
piecewise-constant cell, so their solutions stay piecewise polynomial.
Carrying them as per-segment polynomials (in the local coordinate
x - x_j for conditioning) makes every antiderivative, product and cell
average exact up to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import Polynomial

from .errors import ValidationError
from .material import UnitCell1D

__all__ = ["PiecewisePoly", "piecewise_constant"]


def _as_poly(p) -> Polynomial:
    return p if isinstance(p, Polynomial) else Polynomial([p])


@dataclass(frozen=True, eq=False)
class PiecewisePoly:
    """Per-segment polynomials p_j(x - x_j) on shared breakpoints."""

    breaks: np.ndarray
    polys: tuple[Polynomial, ...]

    def __post_init__(self) -> None:
        if len(self.polys) != len(self.breaks) - 1:
            raise ValidationError("need one polynomial per segment")

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.breaks)

    def _check_compatible(self, other: "PiecewisePoly") -> None:
        if not np.array_equal(self.breaks, other.breaks):
            raise ValidationError("piecewise operands live on different partitions")

    def map(self, fn: Callable[[Polynomial, int], Polynomial]) -> "PiecewisePoly":
        return PiecewisePoly(self.breaks, tuple(fn(p, j) for j, p in enumerate(self.polys)))

    def __add__(self, other):
        if isinstance(other, PiecewisePoly):
            self._check_compatible(other)
            return self.map(lambda p, j: p + other.polys[j])
        return self.map(lambda p, j: p + other)

    __radd__ = __add__

    def __neg__(self):
        return self.map(lambda p, j: -p)

    def __sub__(self, other):
        return self + (-other if isinstance(other, PiecewisePoly) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, PiecewisePoly):
            self._check_compatible(other)
            return self.map(lambda p, j: p * other.polys[j])
        return self.map(lambda p, j: p * other)

    __rmul__ = __mul__

    def derivative(self) -> "PiecewisePoly":
        return self.map(lambda p, j: p.deriv())

    def antiderivative(self, start: float = 0.0) -> "PiecewisePoly":
        """Continuous antiderivative with value ``start`` at x = 0."""
        polys = []
        acc = complex(start)
        for p, length in zip(self.polys, self.lengths):
            prim = p.integ()
            prim = prim - prim(0.0) + acc
            polys.append(prim)
            acc = prim(length)
        return PiecewisePoly(self.breaks, tuple(polys))

    def mean(self) -> complex:
        """Exact integral over the unit cell."""
        total = 0.0 + 0.0j
        for p, length in zip(self.polys, self.lengths):
            prim = p.integ()
            total += prim(length) - prim(0.0)
        return complex(total)

    def __call__(self, x: np.ndarray | float) -> np.ndarray | complex:
        xw = np.mod(np.asarray(x, dtype=float), 1.0)
        idx = np.clip(
            np.searchsorted(self.breaks, xw, side="right") - 1, 0, len(self.polys) - 1
        )
        out = np.empty(xw.shape, dtype=complex)
        flat_x, flat_i, flat_o = xw.ravel(), idx.ravel(), out.ravel()
        for j, p in enumerate(self.polys):
            sel = flat_i == j
            if np.any(sel):
                flat_o[sel] = p(flat_x[sel] - self.breaks[j])
        return out if out.shape else complex(out)

    def end_value(self) -> complex:
        """Value at x = 1 from the last segment (left limit)."""
        return complex(self.polys[-1](self.lengths[-1]))

    def start_value(self) -> complex:
        return complex(self.polys[0](0.0))

    def periodicity_defect(self) -> float:
        """|p(1-) - p(0+)|; zero for a continuous periodic function."""
        return abs(self.end_value() - self.start_value())

    def zero_mean(self) -> "PiecewisePoly":
        return self - self.mean()

    def max_abs(self, samples_per_segment: int = 64) -> float:
        """L-infinity norm estimated on a per-segment grid (exact enough for
        the low-degree polynomials appearing here)."""
        worst = 0.0
        for p, length in zip(self.polys, self.lengths):
            t = np.linspace(0.0, length, samples_per_segment)
            worst = max(worst, float(np.max(np.abs(p(t)))))
        return worst


def piecewise_constant(cell: UnitCell1D, values: Sequence[float]) -> PiecewisePoly:
    """Piecewise-constant function on the cell partition."""
    vals = np.asarray(values)
    if vals.size != len(cell.phases):
        raise ValidationError("need one value per phase")
    return PiecewisePoly(cell.breakpoints, tuple(Polynomial([v]) for v in vals))
