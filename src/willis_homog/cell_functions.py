"""Monopole and dipole cell responses on either route.

``responses`` is the one place that picks a route: closed-form
``ExactField``s (``method="exact"``) or ``CellSolution``s of one assembled
operator (``method="spectral"``), which share one field interface: ``mean``,
``mean_rho``, ``mean_flux`` and ``mean_G``.  On the spectral route the loads
at one omega share one resonance certificate and one factorization.
``solve_w``, ``solve_v``, ``solve_zeta`` and their ``_exact`` twins solve
one response each; the static dipole ``zeta`` is the dipole response at
omega = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResonanceError, ValidationError
from .exact import (
    ExactField,
    solve_dipole_exact,
    solve_monopole_exact,
    solve_static_dipole_exact,
)
from .material import UnitCell1D, cell_digest
from .spectral import DEFAULT_ORDER, BlochOperator, assemble, resolvent_solve

__all__ = [
    "CellSolution",
    "solve_w",
    "solve_v",
    "solve_zeta",
    "solve_w_exact",
    "solve_v_exact",
    "solve_zeta_exact",
    "averages",
]


@dataclass(eq=False)
class CellSolution:
    """Spectral cell response and its load data."""

    operator: BlochOperator
    coeffs: np.ndarray

    @property
    def mean(self) -> complex:
        return self.operator.mean(self.coeffs)

    @property
    def mean_rho(self) -> complex:
        return self.operator.mean_rho(self.coeffs)

    @property
    def mean_flux(self) -> complex:
        return self.operator.mean_flux(self.coeffs)

    @property
    def mean_G(self) -> float:
        return self.operator.mean_G


def _solve(operator: BlochOperator, omega: float, kinds: tuple[str, ...]) -> list[CellSolution]:
    """Responses to the loads ``kinds`` at one omega, through one resolvent solve."""
    load = {"monopole": operator.monopole_load, "dipole": operator.dipole_load}
    loads = [load[kind]() for kind in kinds]
    coeffs = np.ascontiguousarray(resolvent_solve(operator, omega, np.stack(loads, axis=1)).T)
    return [CellSolution(operator, c) for c in coeffs]


def _require_nonzero_k(cell: UnitCell1D, k: float) -> None:
    k = float(k)
    if abs(k - 2.0 * np.pi * np.rint(k / (2.0 * np.pi))) < 1e-12:
        raise ResonanceError(
            "static dipole response is undefined at k = 0 "
            f"(constants span the kernel): k = {k!r} on cell {cell_digest(cell)}"
        )


def responses(
    cell: UnitCell1D,
    k: float,
    omega: float,
    kinds: tuple[str, ...],
    method: str,
    order: int = DEFAULT_ORDER,
) -> list:
    """The responses ``kinds`` ("monopole" and/or "dipole") at (k, omega).

    ``kinds`` is a non-empty tuple of those names and ``method`` is "exact"
    or "spectral" (truncation ``order``); anything else raises
    ValidationError.
    """
    if not (isinstance(kinds, tuple) and kinds and all(kind in ("monopole", "dipole") for kind in kinds)):
        raise ValidationError(f"kinds must be a non-empty tuple of 'monopole' and 'dipole', got {kinds!r}")
    if method == "exact":
        solve = {"monopole": solve_w_exact, "dipole": solve_v_exact}
        return [solve[kind](cell, k, omega) for kind in kinds]
    if method != "spectral":
        raise ValidationError(f"method must be 'exact' or 'spectral', got {method!r}")
    return _solve(assemble(cell, k, order), omega, kinds)


def solve_w(operator: BlochOperator, omega: float) -> CellSolution:
    """Response to the unit mean load f = 1 at frequency omega."""
    return _solve(operator, omega, ("monopole",))[0]


def solve_v(operator: BlochOperator, omega: float) -> CellSolution:
    """Response to the unit dipole load at frequency omega."""
    return _solve(operator, omega, ("dipole",))[0]


def solve_zeta(operator: BlochOperator) -> CellSolution:
    """Static dipole response (the omega = 0 dipole solve).

    Undefined at k = 0, where the static operator has the constants in its
    kernel; that case raises ResonanceError.
    """
    _require_nonzero_k(operator.cell, operator.k)
    return _solve(operator, 0.0, ("dipole",))[0]


def solve_w_exact(cell: UnitCell1D, k: float, omega: float) -> ExactField:
    """Closed-form monopole response (reference route)."""
    return solve_monopole_exact(cell, k, omega)


def solve_v_exact(cell: UnitCell1D, k: float, omega: float) -> ExactField:
    """Closed-form dipole response (reference route)."""
    return solve_dipole_exact(cell, k, omega)


def solve_zeta_exact(cell: UnitCell1D, k: float) -> ExactField:
    """Closed-form static dipole response (reference route)."""
    _require_nonzero_k(cell, k)
    return solve_static_dipole_exact(cell, k)


def averages(w, v) -> dict[str, complex]:
    """The seven cell averages the effective model is built from.

    Accepts any pair of responses exposing mean / mean_rho / mean_flux /
    mean_G (spectral CellSolution or closed-form ExactField).  ``mean_G``
    is <G> as the route forms G times a strain: exact on the exact route,
    and on the spectral route the constant mode of T(1/G)^{-1} e_0, which
    pairs with <G D_k v> so that their difference, the mean flux of the
    dipole response, converges at the rate of Li's rule.
    """
    return {
        "mean_w": complex(w.mean),
        "mean_v": complex(v.mean),
        "mean_rho_w": complex(w.mean_rho),
        "mean_rho_v": complex(v.mean_rho),
        "mean_G_dkw": complex(w.mean_flux),
        "mean_G_dkv": complex(v.mean_flux),
        "mean_G": complex(v.mean_G),
    }
