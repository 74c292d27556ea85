"""Monopole and dipole cell responses on either route.

``responses`` is the one place that picks a route: the closed forms
(``method="exact"``) or one assembled operator (``method="spectral"``).
Either returns each response as a ``CellResponse``, the three averages
``mean``, ``mean_rho`` and ``mean_flux`` (the mean of the response's own
flux, which for the dipole excludes its unit strain), read where the solve
ends; :mod:`~willis_homog.willis` reads the records as they are.  On the
spectral route the loads at one omega share one resonance certificate and
one factorization.
``solve_w``, ``solve_v``, ``solve_zeta`` and their ``_exact`` twins solve
one response each; the static dipole ``zeta`` is the dipole response at
omega = 0.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ResonanceError, ValidationError
from .exact import (
    _LOADS,
    CellResponse,
    solve_dipole_exact,
    solve_monopole_exact,
    solve_static_dipole_exact,
)
from .material import UnitCell1D, cell_digest
from .spectral import DEFAULT_ORDER, BlochOperator, assemble, resolvent_solve

__all__ = [
    "CellResponse",
    "solve_w",
    "solve_v",
    "solve_zeta",
    "solve_w_exact",
    "solve_v_exact",
    "solve_zeta_exact",
]


def _solve(operator: BlochOperator, omega: float, kinds: tuple[str, ...]) -> list[CellResponse]:
    """Responses to the loads ``kinds`` at one omega, through one resolvent solve."""
    loads = [_LOADS[kind] for kind in kinds]
    rhs = np.stack([operator.load(g) for g in loads], axis=1)
    coeffs = np.ascontiguousarray(resolvent_solve(operator, omega, rhs).T)
    return [operator.response(c, g) for g, c in zip(loads, coeffs)]


def _is_zero_mod_2pi(k: float) -> bool:
    """k within 1e-12 of a multiple of 2 pi, where the constants span the static
    kernel; a non-finite k is none, and is left to the kernel's own check."""
    return math.isfinite(k) and abs(k - 2.0 * np.pi * np.rint(k / (2.0 * np.pi))) < 1e-12


def _require_nonzero_k(cell: UnitCell1D, k: float) -> None:
    k = float(k)
    if _is_zero_mod_2pi(k):
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
) -> list[CellResponse]:
    """The responses ``kinds`` ("monopole" and/or "dipole") at (k, omega).

    ``kinds`` is a non-empty tuple of those names, ``method`` is "exact"
    or "spectral" (truncation ``order``) and k and omega are finite;
    anything else raises ValidationError.
    """
    if not (isinstance(kinds, tuple) and kinds and all(kind in _LOADS for kind in kinds)):
        raise ValidationError(f"kinds must be a non-empty tuple of 'monopole' and 'dipole', got {kinds!r}")
    if method == "exact":
        solve = {"monopole": solve_w_exact, "dipole": solve_v_exact}
        return [solve[kind](cell, k, omega) for kind in kinds]
    if method != "spectral":
        raise ValidationError(f"method must be 'exact' or 'spectral', got {method!r}")
    return _solve(assemble(cell, k, order), omega, kinds)


def solve_w(operator: BlochOperator, omega: float) -> CellResponse:
    """Response to the unit mean load f = 1 at frequency omega."""
    return _solve(operator, omega, ("monopole",))[0]


def solve_v(operator: BlochOperator, omega: float) -> CellResponse:
    """Response to the unit dipole load at frequency omega."""
    return _solve(operator, omega, ("dipole",))[0]


def solve_zeta(operator: BlochOperator) -> CellResponse:
    """Static dipole response (the omega = 0 dipole solve).

    Undefined at k = 0, where the static operator has the constants in its
    kernel; that case raises ResonanceError.
    """
    _require_nonzero_k(operator.cell, operator.k)
    return _solve(operator, 0.0, ("dipole",))[0]


def solve_w_exact(cell: UnitCell1D, k: float, omega: float) -> CellResponse:
    """Closed-form monopole response (reference route)."""
    return solve_monopole_exact(cell, k, omega)


def solve_v_exact(cell: UnitCell1D, k: float, omega: float) -> CellResponse:
    """Closed-form dipole response (reference route)."""
    return solve_dipole_exact(cell, k, omega)


def solve_zeta_exact(cell: UnitCell1D, k: float) -> CellResponse:
    """Closed-form static dipole response (reference route)."""
    _require_nonzero_k(cell, k)
    return solve_static_dipole_exact(cell, k)

