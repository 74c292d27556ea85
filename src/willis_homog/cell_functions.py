"""Monopole, dipole and static-dipole cell responses.

Wraps the spectral solves (and the closed-form propagator route) behind one
interface: ``solve_w`` returns the response to a unit mean load, ``solve_v``
the response to a unit dipole load, ``solve_zeta`` the static dipole.  Any
returned object exposes ``mean``, ``mean_rho`` and ``mean_flux``; those
three averages (plus <G>) are all the effective-medium layer needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResonanceError
from .exact import (
    ExactField,
    solve_dipole_exact,
    solve_monopole_exact,
    solve_static_dipole_exact,
)
from .material import UnitCell1D
from .spectral import BlochOperator, resolvent_solve

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
    def k(self) -> float:
        return self.operator.k

    @property
    def mean(self) -> complex:
        return self.operator.mean(self.coeffs)

    @property
    def mean_rho(self) -> complex:
        return self.operator.mean_rho(self.coeffs)

    @property
    def mean_flux(self) -> complex:
        return self.operator.mean_flux(self.coeffs)


def _solve(operator: BlochOperator, omega: float, kind: str) -> CellSolution:
    load = operator.monopole_load() if kind == "monopole" else operator.dipole_load()
    coeffs = resolvent_solve(operator, omega, load)
    return CellSolution(operator=operator, coeffs=coeffs, kind=kind, omega=float(omega))


def _require_nonzero_k(k: float) -> None:
    if abs(float(k) % (2.0 * np.pi)) < 1e-12:
        raise ResonanceError(
            "static dipole response is undefined at k = 0 "
            "(constants span the kernel)"
        )


def solve_w(operator: BlochOperator, omega: float) -> CellSolution:
    """Response to the unit mean load f = 1 at frequency omega."""
    return _solve(operator, omega, "monopole")


def solve_v(operator: BlochOperator, omega: float) -> CellSolution:
    """Response to the unit dipole load at frequency omega."""
    return _solve(operator, omega, "dipole")


def solve_zeta(operator: BlochOperator) -> CellSolution:
    """Static dipole response (the omega = 0 dipole solve).

    Undefined at k = 0, where the static operator has the constants in its
    kernel; that case raises ResonanceError.
    """
    _require_nonzero_k(operator.k)
    return _solve(operator, 0.0, "static_dipole")


def solve_w_exact(cell: UnitCell1D, k: float, omega: float) -> ExactField:
    """Closed-form monopole response (reference route)."""
    return solve_monopole_exact(cell, k, omega)


def solve_v_exact(cell: UnitCell1D, k: float, omega: float) -> ExactField:
    """Closed-form dipole response (reference route)."""
    return solve_dipole_exact(cell, k, omega)


def solve_zeta_exact(cell: UnitCell1D, k: float) -> ExactField:
    """Closed-form static dipole response (reference route)."""
    _require_nonzero_k(k)
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
