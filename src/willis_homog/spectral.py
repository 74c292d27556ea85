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

The hot paths never form the whole spectrum.  By Sylvester's law of
inertia a Cholesky factorization of A - sigma B succeeds exactly when every
eigenvalue lies above sigma, so one factorization certifies that a
frequency is off resonance, and one certifies the lowest eigenvalue found
by block inverse iteration.  The full spectrum (``eigenvalues``,
``solve_eigensystem``) comes from the pencil reduced by the Cholesky
factor of B.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

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

#: smallest admissible truncation half-order, and the default one
MIN_ORDER = 4
DEFAULT_ORDER = 128

#: relative half-width of the resonance window around discrete eigenvalues
RESONANCE_RTOL = 1e-8

#: relative residual bound enforced on every resolvent solve
RESIDUAL_RTOL = 1e-10

#: relative gap under which neighbouring eigenvalues form one cluster
CLUSTER_RTOL = 1e-8

#: largest load amplitude on the resonant cluster of a projected solve,
#: relative to the load norm
SOLVABILITY_RTOL = 1e-8

#: lowest eigenvalue: block size and iteration cap of the inverse iteration
LOWEST_BLOCK = 4
LOWEST_MAXITER = 50

#: lowest eigenvalue: certified margin, relative to the eigenvalue plus this
#: many roundoff units of ||A|| / lambda_min(B), the pencil's absolute floor
LOWEST_RTOL = 1e-10
LOWEST_FLOOR_ULPS = 64.0


def _where(operator: "BlochOperator", omega_sq: float | None = None) -> str:
    """Location of a solve, for error messages."""
    if omega_sq is None:
        at = f"k = {operator.k!r}"
    else:
        at = f"(k, omega) = ({operator.k!r}, {float(np.sqrt(omega_sq))!r})"
    return f"{at}, N = {operator.order}, cell {cell_digest(operator.cell)}"


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

    def _by_wavenumber(self) -> np.ndarray:
        """Mode indices ordered by |k_m| ascending: the lowest Fourier modes first."""
        return np.argsort(np.abs(self.wavenumbers), kind="stable")

    def _reduced(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(C, L, p): the Hermitian C = L^-1 A[p, p] L^-H with B[p, p] = L L^H.

        p orders the modes by |k_m| ascending.  A grows as k_m^2 along it,
        and on a matrix graded that way the Hermitian eigensolver keeps the
        small eigenvalues accurate relative to themselves, not to ||A||.
        """
        p = self._by_wavenumber()
        L = np.linalg.cholesky(self.mass[np.ix_(p, p)])
        C = np.linalg.solve(L, np.linalg.solve(L, self.stiffness[np.ix_(p, p)]).conj().T)
        return 0.5 * (C + C.conj().T), L, p

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Discrete Bloch eigenvalues, ascending (cached)."""
        return np.linalg.eigvalsh(self._reduced()[0])

    def _all_above(self, sigma: float) -> bool:
        """True when a Cholesky factorization proves every eigenvalue > sigma."""
        try:
            np.linalg.cholesky(self.stiffness - sigma * self.mass)
        except np.linalg.LinAlgError:
            return False
        return True

    def lowest_eigenvalue(self) -> float:
        """Lowest discrete eigenvalue, without the rest of the spectrum.

        Block inverse iteration on the positive definite A - s B (s < 0, so
        k = 0 works too) from the lowest Fourier modes, with Rayleigh-Ritz
        on the block.  The Ritz value lam bounds the eigenvalue from above;
        a Cholesky factorization of A - (lam - margin) B bounds it from
        below.  NumericalError if the iteration stalls or the bound fails.
        """
        A, B = self.stiffness, self.mass
        rho_min = float(np.min(self.cell.values("rho")))
        floor = LOWEST_FLOOR_ULPS * np.finfo(float).eps * np.linalg.norm(A, np.inf) / rho_min
        # minus the quasistatic scale c0^2 (k^2 + 1), k folded into the first zone
        shift = -(float(np.min(np.abs(self.wavenumbers))) ** 2 + 1.0) / (
            self.cell.mean("1/G") * self.cell.mean("rho")
        )
        K = A - shift * B
        X = np.eye(self.size, dtype=complex)[:, self._by_wavenumber()[:LOWEST_BLOCK]]
        lam = np.inf
        for _ in range(LOWEST_MAXITER):
            X = np.linalg.qr(np.linalg.solve(K, B @ X))[0]
            ritz, X = _rayleigh_ritz(A, B, X)
            step, lam = lam - ritz[0], float(ritz[0])
            margin = LOWEST_RTOL * abs(lam) + floor
            # the Ritz value falls geometrically, so a step this small
            # leaves far less than the margin to go
            if step <= 1e-3 * margin:
                break
        else:
            raise NumericalError(
                f"lowest eigenvalue: inverse iteration did not converge in "
                f"{LOWEST_MAXITER} steps at {_where(self)}"
            )
        if not self._all_above(lam - margin):
            raise NumericalError(
                f"lowest eigenvalue: an eigenvalue lies below the Ritz value {lam!r} "
                f"minus its margin {margin:.3e} at {_where(self)}"
            )
        return lam

    def resonance_distance(self, omega_sq: float) -> tuple[float, float]:
        """(relative distance, nearest eigenvalue) for a squared frequency."""
        lam = self.eigenvalues
        rel = np.abs(lam - omega_sq) / (1.0 + np.abs(lam))
        j = int(np.argmin(rel))
        return float(rel[j]), float(lam[j])

    def check_resonance(self, omega_sq: float) -> None:
        """Raise ResonanceError inside the resonance window of an eigenvalue.

        The window |lam - omega^2| < RESONANCE_RTOL (1 + |lam|) lies below
        sigma = (omega^2 + RESONANCE_RTOL) / (1 - RESONANCE_RTOL), so one
        Cholesky factorization of A - sigma B clears it; the eigenvalue
        list is read only when that factorization fails.
        """
        sigma = (omega_sq + RESONANCE_RTOL) / (1.0 - RESONANCE_RTOL)
        if self._all_above(sigma):
            return
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
        """Weak-form load of the unit dipole, r_m = -i k_m G_hat[m] (G_hat runs to order 2N)."""
        return -1j * self.wavenumbers * self.G_hat.coeffs[self.order : 3 * self.order + 1]

    def mean(self, coeffs: np.ndarray) -> complex:
        return complex(coeffs[self.index0])

    def mean_rho(self, coeffs: np.ndarray) -> complex:
        """<rho u> read off the mass matrix row of the constant mode."""
        return complex((self.mass @ coeffs)[self.index0])

    def mean_flux(self, coeffs: np.ndarray) -> complex:
        """<G D_k u>, the constant mode of G times the covariant gradient."""
        g = self.G_hat.coeffs[self.order : 3 * self.order + 1][::-1]  # G_hat[-m], m = -N..N
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
    B = rho_hat.coeffs[diff]
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


def _rayleigh_ritz(A: np.ndarray, B: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ritz values (ascending) and B-orthonormal Ritz vectors of the pencil on span(X)."""
    Linv = np.linalg.inv(np.linalg.cholesky(X.conj().T @ (B @ X)))
    c = Linv @ (X.conj().T @ (A @ X)) @ Linv.conj().T
    vals, Y = np.linalg.eigh(0.5 * (c + c.conj().T))
    return vals, X @ (Linv.conj().T @ Y)


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
    C, L, p = operator._reduced()
    lam, Y = np.linalg.eigh(C)
    vec = np.empty_like(Y)
    vec[p] = np.linalg.solve(L.conj().T, Y)
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

    ``load`` is one right-hand side (size,) or columns (size, m) that share
    the resonance certificate and the factorization.  Refuses to solve inside
    the resonance window; raises NumericalError if the relative residual of
    any column exceeds RESIDUAL_RTOL.
    """
    omega_sq = float(omega) ** 2
    operator.check_resonance(omega_sq)
    load = np.asarray(load, dtype=complex)
    K = operator.stiffness - omega_sq * operator.mass
    coeffs = np.linalg.solve(K, load)
    residual = np.atleast_1d(np.linalg.norm(K @ coeffs - load, axis=0))
    bound = RESIDUAL_RTOL * np.atleast_1d(
        np.linalg.norm(K, np.inf) * np.linalg.norm(coeffs, axis=0) + np.linalg.norm(load, axis=0)
    )
    j = int(np.argmax(residual - bound))
    if residual[j] > bound[j]:
        raise NumericalError(
            f"resolvent solve residual {residual[j]:.3e} exceeds backward-error "
            f"bound {bound[j]:.3e} at {_where(operator, omega_sq)}"
        )
    return coeffs


def projected_solve(eigensystem: BlochEigensystem, omega_sq: float, load: np.ndarray) -> np.ndarray:
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
    if scale > 0 and bad > SOLVABILITY_RTOL * scale:
        raise SolvabilityError(
            f"load has amplitude {bad:.3e} on the resonant cluster; "
            "the cell problem is not solvable at this frequency"
        )
    amps = amps.copy()
    amps[group] = 0.0
    keep = np.setdiff1d(np.arange(lam.size), group)
    amps[keep] = amps[keep] / (lam[keep] - omega_sq)
    return eigensystem.vectors @ amps
