"""Monopole, dipole and static-dipole cell responses on either route.

``responses`` is the one place that picks a route: closed-form
``ExactField``s (``method="exact"``) or ``CellSolution``s of one assembled
operator (``method="spectral"``), which share one field interface: ``mean``,
``mean_rho``, ``mean_flux`` and ``mean_rho_conj`` against the static dipole.
On the spectral route the loads at one omega share one resonance
certificate and one factorization.  ``solve_w``, ``solve_v``, ``solve_zeta``
and their ``_exact`` twins solve one response each.
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
    "homogeneous_means",
]


@dataclass(eq=False)
class CellSolution:
    """Spectral cell response and its load data."""

    operator: BlochOperator
    coeffs: np.ndarray
    kind: str
    omega: float

    @property
    def mean(self) -> complex:
        return self.operator.mean(self.coeffs)

    @property
    def mean_rho(self) -> complex:
        return self.operator.mean_rho(self.coeffs)

    @property
    def mean_flux(self) -> complex:
        return self.operator.mean_flux(self.coeffs)

    def mean_rho_conj(self, zeta: "CellSolution") -> complex:
        """<rho u conj(zeta)> for the static dipole response ``zeta`` of this operator."""
        if zeta.kind != "static_dipole" or zeta.operator is not self.operator:
            raise ValidationError("mean_rho_conj needs the static dipole of the same operator")
        return complex(zeta.coeffs.conj() @ self.operator.mass @ self.coeffs)


def _solve(operator: BlochOperator, omega: float, kinds: tuple[str, ...]) -> list[CellSolution]:
    """Responses to the loads ``kinds`` at one omega, through one resolvent solve."""
    loads = [operator.monopole_load() if kind == "monopole" else operator.dipole_load() for kind in kinds]
    coeffs = np.ascontiguousarray(resolvent_solve(operator, omega, np.stack(loads, axis=1)).T)
    return [CellSolution(operator, c, kind, float(omega)) for c, kind in zip(coeffs, kinds)]


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
    """The responses ``kinds`` ("monopole", "dipole", "static_dipole") at (k, omega).

    ``method`` is "exact" or "spectral" (truncation ``order``); any other
    value raises ValidationError.  The static dipole ignores omega.
    """
    if method == "exact":
        dynamic = {"monopole": solve_w_exact, "dipole": solve_v_exact}
        return [
            solve_zeta_exact(cell, k) if kind == "static_dipole" else dynamic[kind](cell, k, omega)
            for kind in kinds
        ]
    if method != "spectral":
        raise ValidationError(f"method must be 'exact' or 'spectral', got {method!r}")
    op = assemble(cell, k, order)
    dynamic = tuple(kind for kind in kinds if kind != "static_dipole")
    out = dict(zip(dynamic, _solve(op, omega, dynamic))) if dynamic else {}
    if "static_dipole" in kinds:
        out["static_dipole"] = solve_zeta(op)
    return [out[kind] for kind in kinds]


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
    return _solve(operator, 0.0, ("static_dipole",))[0]


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


def averages(w, v, cell: UnitCell1D) -> dict[str, complex]:
    """The seven cell averages the effective model is built from.

    Accepts any pair of responses exposing mean / mean_rho / mean_flux
    (spectral CellSolution or closed-form ExactField).
    """
    return {
        "mean_w": complex(w.mean),
        "mean_v": complex(v.mean),
        "mean_rho_w": complex(w.mean_rho),
        "mean_rho_v": complex(v.mean_rho),
        "mean_G_dkw": complex(w.mean_flux),
        "mean_G_dkv": complex(v.mean_flux),
        "mean_G": complex(cell.mean("G")),
    }


def homogeneous_means(G: float, rho: float, k: float, omega: float) -> dict[str, complex]:
    """Closed-form averages for a uniform cell.

    w = 1/(G k^2 - rho omega^2), v = i k G/(rho omega^2 - G k^2) and
    zeta = -i/k are constants, so every average is elementary.
    """
    disp = G * k**2 - rho * omega**2
    if abs(disp) < 1e-14:
        raise ResonanceError("uniform cell is resonant where G k^2 = rho omega^2")
    w = 1.0 / disp
    v = 1j * k * G / (-disp)
    return {
        "mean_w": w,
        "mean_v": v,
        "mean_rho_w": rho * w,
        "mean_rho_v": rho * v,
        "mean_G_dkw": G * 1j * k * w,
        "mean_G_dkv": G * 1j * k * v,
        "mean_G": complex(G),
    }
