"""Fourier-Galerkin discretization of the Bloch cell problem.

The cell equation is projected on the plane-wave basis e_m = exp(2 pi i m x),
m = -N..N.  With shifted wavenumbers k_m = 2 pi m + k the stiffness and mass
matrices are Toeplitz in the coefficient sequences of G and rho,

    A[m, n] = G_hat[m - n] k_n k_m,      B[m, n] = rho_hat[m - n],

both Hermitian and B positive definite, so the generalized eigenproblem
A c = lambda B c has a real spectrum with rho-orthonormal eigenvectors.
Cell responses come either from the resolvent (direct solve of
(A - omega^2 B) c = r) or from the modal expansion, which must agree to
roundoff when all 2N+1 modes are kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import NumericalError, ResonanceError, SolvabilityError, ValidationError
from .material import FourierField, UnitCell1D, cell_digest, fourier_coefficients

__all__ = [
    "BlochOperator",
    "BlochEigensystem",
    "assemble",
    "solve_eigensystem",
    "resolvent_solve",
    "projected_solve",
]

#: smallest admissible truncation half-order
MIN_ORDER = 4

#: relative half-width of the resonance window around discrete eigenvalues
RESONANCE_RTOL = 1e-8

#: relative residual bound enforced on every resolvent solve
RESIDUAL_RTOL = 1e-10

#: relative gap under which neighbouring eigenvalues form one cluster
CLUSTER_RTOL = 1e-8


def _where(operator: "BlochOperator", omega_sq: float) -> str:
    """Location of a solve, for error messages."""
    return (
        f"(k, omega) = ({operator.k!r}, {float(np.sqrt(omega_sq))!r}), "
        f"N = {operator.order}, cell {cell_digest(operator.cell)}"
    )


@dataclass(eq=False)
class BlochOperator:
    """Assembled Galerkin matrices for one (cell, k, N) triple."""

    cell: UnitCell1D
    k: float
    order: int
    wavenumbers: np.ndarray
    stiffness: np.ndarray
    mass: np.ndarray
    G_hat: FourierField
    rho_hat: FourierField

    @property
    def size(self) -> int:
        return 2 * self.order + 1

    @property
    def index0(self) -> int:
        """Row/column of the constant mode."""
        return self.order

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Discrete Bloch eigenvalues, ascending (cached)."""
        return scipy.linalg.eigh(
            self.stiffness, self.mass, eigvals_only=True
        )

    def resonance_distance(self, omega_sq: float) -> tuple[float, float]:
        """(relative distance, nearest eigenvalue) for a squared frequency."""
        lam = self.eigenvalues
        rel = np.abs(lam - omega_sq) / (1.0 + np.abs(lam))
        j = int(np.argmin(rel))
        return float(rel[j]), float(lam[j])

    def check_resonance(self, omega_sq: float) -> None:
        """Raise ResonanceError inside the resonance window of an eigenvalue."""
        rel, lam_near = self.resonance_distance(omega_sq)
        if rel < RESONANCE_RTOL:
            raise ResonanceError(
                f"omega^2 = {omega_sq!r} within the resonance window of "
                f"eigenvalue {lam_near!r} at {_where(self, omega_sq)}"
            )

    def monopole_load(self) -> np.ndarray:
        """Coefficients of the unit mean load f = 1."""
        r = np.zeros(self.size, dtype=complex)
        r[self.index0] = 1.0
        return r

    def dipole_load(self) -> np.ndarray:
        """Weak-form load of the unit dipole, r_m = -i k_m G_hat[m]."""
        orders = np.arange(-self.order, self.order + 1)
        g = np.array([self.G_hat.coefficient(int(m)) for m in orders])
        return -1j * self.wavenumbers * g

    def mean(self, coeffs: np.ndarray) -> complex:
        return complex(coeffs[self.index0])

    def mean_rho(self, coeffs: np.ndarray) -> complex:
        """<rho u> read off the mass matrix row of the constant mode."""
        return complex((self.mass @ coeffs)[self.index0])

    def mean_flux(self, coeffs: np.ndarray) -> complex:
        """<G D_k u>, the constant mode of G times the covariant gradient."""
        orders = np.arange(-self.order, self.order + 1)
        g = np.array([self.G_hat.coefficient(int(-m)) for m in orders])
        return complex(np.sum(g * 1j * self.wavenumbers * coeffs))

    def rho_norm(self, coeffs: np.ndarray) -> float:
        """Norm induced by the mass matrix."""
        return float(np.sqrt(np.real(np.vdot(coeffs, self.mass @ coeffs))))


def assemble(cell: UnitCell1D, k: float, order: int) -> BlochOperator:
    """Build the Galerkin matrices at Bloch wavenumber k.

    Parameters
    ----------
    cell : UnitCell1D
    k : float
        Bloch wavenumber (real).
    order : int
        Truncation half-order N; the basis holds 2N+1 modes.
    """
    if order < MIN_ORDER:
        raise ValidationError(f"order must be >= {MIN_ORDER}, got {order}")
    G_hat = fourier_coefficients(cell, "G", 2 * order)
    rho_hat = fourier_coefficients(cell, "rho", 2 * order)
    m = np.arange(-order, order + 1)
    km = 2.0 * np.pi * m + float(k)
    diff = m[:, None] - m[None, :] + 2 * order
    A = G_hat.coeffs[diff] * km[None, :] * km[:, None]
    B = rho_hat.coeffs[diff].copy()
    return BlochOperator(
        cell=cell,
        k=float(k),
        order=order,
        wavenumbers=km,
        stiffness=A,
        mass=B,
        G_hat=G_hat,
        rho_hat=rho_hat,
    )


@dataclass(eq=False)
class BlochEigensystem:
    """rho-orthonormal eigenpairs of one assembled operator.

    ``vectors[:, m]`` is the coefficient vector of the m-th mode; the phase
    is fixed so that its cell mean (or, failing that, its largest entry) is
    real and nonnegative, which makes repeated solves reproducible.
    """

    operator: BlochOperator
    eigenvalues: np.ndarray
    vectors: np.ndarray

    @property
    def means(self) -> np.ndarray:
        """Cell means of all modes."""
        return self.vectors[self.operator.index0, :]

    def projection(self, load: np.ndarray) -> np.ndarray:
        """Modal load amplitudes (phi_m^H r)."""
        return self.vectors.conj().T @ np.asarray(load, dtype=complex)

    def cluster(self, index: int) -> np.ndarray:
        """Indices of the near-degenerate group containing one mode."""
        lam = self.eigenvalues
        lo = index
        while lo > 0 and abs(lam[lo] - lam[lo - 1]) < CLUSTER_RTOL * (1.0 + abs(lam[lo])):
            lo -= 1
        hi = index
        while hi + 1 < lam.size and abs(lam[hi + 1] - lam[hi]) < CLUSTER_RTOL * (
            1.0 + abs(lam[hi])
        ):
            hi += 1
        return np.arange(lo, hi + 1)

    def modal_solution(self, load: np.ndarray, omega_sq: float) -> np.ndarray:
        """Coefficients of (A - omega^2 B)^{-1} r through the eigenbasis."""
        self.operator.check_resonance(omega_sq)
        amps = self.projection(load) / (self.eigenvalues - omega_sq)
        return self.vectors @ amps


def solve_eigensystem(operator: BlochOperator) -> BlochEigensystem:
    """Solve A c = lambda B c; modes come back ascending and rho-orthonormal."""
    lam, vec = scipy.linalg.eigh(operator.stiffness, operator.mass)
    idx0 = operator.index0
    for m in range(vec.shape[1]):
        col = vec[:, m]
        anchor = col[idx0]
        if abs(anchor) <= 1e-12 * np.linalg.norm(col):
            anchor = col[int(np.argmax(np.abs(col)))]
        vec[:, m] = col * (anchor.conjugate() / abs(anchor))
    return BlochEigensystem(operator=operator, eigenvalues=lam, vectors=vec)


def resolvent_solve(
    operator: BlochOperator, omega: float, load: np.ndarray
) -> np.ndarray:
    """Direct solve of (A - omega^2 B) c = r with a residual check.

    Refuses to solve inside the resonance window; raises NumericalError if
    the relative residual of the factorized solve exceeds RESIDUAL_RTOL.
    """
    omega_sq = float(omega) ** 2
    operator.check_resonance(omega_sq)
    load = np.asarray(load, dtype=complex)
    K = operator.stiffness - omega_sq * operator.mass
    lu, piv = scipy.linalg.lu_factor(K)
    coeffs = scipy.linalg.lu_solve((lu, piv), load)
    residual = np.linalg.norm(K @ coeffs - load)
    bound = RESIDUAL_RTOL * (
        np.linalg.norm(K, np.inf) * np.linalg.norm(coeffs) + np.linalg.norm(load)
    )
    if residual > bound:
        raise NumericalError(
            f"resolvent solve residual {residual:.3e} exceeds backward-error "
            f"bound {bound:.3e} at {_where(operator, omega_sq)}"
        )
    return coeffs


def projected_solve(
    eigensystem: BlochEigensystem,
    omega_sq: float,
    load: np.ndarray,
    solvability_rtol: float = 1e-8,
) -> np.ndarray:
    """Solve at an eigenfrequency on the complement of its eigencluster.

    The load must be orthogonal to the resonant cluster (a solvability
    condition); SolvabilityError otherwise.  The returned particular
    solution has no component along the cluster modes.
    """
    lam = eigensystem.eigenvalues
    rel = np.abs(lam - omega_sq) / (1.0 + np.abs(lam))
    j = int(np.argmin(rel))
    if rel[j] >= RESONANCE_RTOL:
        raise ValidationError(
            f"omega^2 = {omega_sq} is not at a discrete eigenvalue; "
            "use resolvent_solve or modal_solution"
        )
    group = eigensystem.cluster(j)
    amps = eigensystem.projection(load)
    scale = np.linalg.norm(load)
    bad = np.abs(amps[group]).max()
    if scale > 0 and bad > solvability_rtol * scale:
        raise SolvabilityError(
            f"load has amplitude {bad:.3e} on the resonant cluster; "
            "the cell problem is not solvable at this frequency"
        )
    amps = amps.copy()
    amps[group] = 0.0
    keep = np.setdiff1d(np.arange(lam.size), group)
    amps[keep] = amps[keep] / (lam[keep] - omega_sq)
    return eigensystem.vectors @ amps
