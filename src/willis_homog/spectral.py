"""Fourier-Galerkin discretization of the Bloch cell problem.

The cell equation is projected on the plane-wave basis e_m = exp(2 pi i m x),
m = -N..N.  With shifted wavenumbers k_m = 2 pi m + k the stiffness and mass
matrices are

    A = K T(1/G)^{-1} K,      B[m, n] = rho_hat[m - n],

with K = diag(k_m) and T(f) the Toeplitz matrix T[m, n] = f_hat[m - n].
The flux G D_k u is continuous across the interfaces while G and D_k u
jump, so G multiplies a strain by Li's inverse rule, T(1/G)^{-1} (L. Li,
JOSA A 13 (1996) 1870), not by Laurent's T(G), whose product converges only
like 1/N on a discontinuous cell.  The stiffness, the dipole load and the
mean flux all read that one matrix, formed by ``toeplitz_inverse``: up to
N = 32 by one LAPACK LU, above it by the O(N^2) Levinson-Trench recurrence,
whose N Python steps cost more than the O(N^3) LAPACK call at small N.
The static chain (``asymptotics``) divides by G through its inverse T(1/G),
so it solves this system at k = 0 without a factorization and never forms
Li's G: ``assemble`` is the only caller of ``toeplitz_inverse``.  Both A and B
are Hermitian and B is positive definite, so A c = lambda B c has a real
spectrum with rho-orthonormal eigenvectors.  Cell responses come either
from the resolvent (direct solve of (A - omega^2 B) c = r) or from the
modal expansion, which must agree to roundoff when all 2N+1 modes are kept.

The resolvent never forms the spectrum.  By Sylvester's law of inertia a
Cholesky factorization of A - sigma B succeeds exactly when every
eigenvalue lies above sigma, so one factorization certifies that a
frequency is off resonance.  The spectrum (``eigenvalues``,
``solve_eigensystem``) comes from the pencil reduced by the Cholesky
factor of B, graded so that the lowest eigenvalue is accurate relative to
itself.  The acoustic branch alone (``_lowest_eigenvalues``, behind
``dispersion.spectral_acoustic_branch``) reads the compliance pencil: Li's
rule makes the inverse of the stiffness free, A^{-1} = K^{-1} T(1/G) K^{-1},
and the largest eigenvalue of that pencil, 1 / lam_1, comes out of a
Hermitian eigensolver to roundoff relative to itself, at any contrast.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import NumericalError, ResonanceError, ValidationError
from .exact import CellResponse
from .material import UnitCell1D, _require_finite, cell_digest, fourier_coefficients

__all__ = [
    "BlochOperator",
    "BlochEigensystem",
    "assemble",
    "check_order",
    "solve_eigensystem",
    "resolvent_solve",
    "toeplitz_inverse",
]

#: smallest admissible truncation half-order, and the default one: the
#: smallest power of two at which the acoustic branch of every cell of 1-6
#: phases, each at least 1/16 of the cell, with G and rho spread over up to
#: 1e3, lies within BRANCH_RTOL of the exact branch at k = 0.5 and 1.5
#: (measured worst 1.6e-4 at N = 32 and 1.0e-3 at N = 16)
MIN_ORDER = 4
DEFAULT_ORDER = 32

#: relative gap between the spectral and the exact acoustic branch that
#: verify accepts, at any N
BRANCH_RTOL = 1e-3

#: relative half-width of the resonance window around discrete eigenvalues,
#: |lam - omega^2| < RESONANCE_RTOL (|lam| + c0^2) with c0 the quasistatic
#: speed, the scale of the acoustic branch (omega_1(k) <= c0 |k|)
RESONANCE_RTOL = 1e-8

#: relative residual bound enforced on every resolvent solve
RESIDUAL_RTOL = 1e-10

#: largest Toeplitz size n = 2N + 1 that toeplitz_inverse inverts by one dense
#: LU.  Measured on a 2-core VM with one BLAS thread (median over 6 cells of
#: the best of 20): one inverse at N = 8, 16, 24, 32 takes about 37, 70, 150,
#: 280 us by LU against 135, 190, 350, 460 us by Levinson-Durbin and Trench;
#: at N = 48 the two are even and at N = 64 LU takes 1.7 ms against 0.9 ms
_DENSE_MAX_SIZE = 65


def _where(operator: "BlochOperator", omega_sq: float) -> str:
    """Location of a solve, for error messages."""
    at = f"(k, omega) = ({operator.k!r}, {float(np.sqrt(omega_sq))!r})"
    return f"{at}, N = {operator.order}, cell {cell_digest(operator.cell)}"


def _factor_mass(mass: np.ndarray, cell: UnitCell1D, k: float, order: int) -> np.ndarray:
    """Cholesky factor L of the mass matrix, B = L L^H; NumericalError where
    B is not positive definite in floating point."""
    try:
        return np.linalg.cholesky(mass)
    except np.linalg.LinAlgError as exc:
        where = f"k = {k!r}, N = {order}, cell {cell_digest(cell)}"
        raise NumericalError(f"spectral eigenvalues: the mass matrix is not positive definite at {where}") from exc


@dataclass(eq=False)
class BlochOperator:
    """Assembled Galerkin matrices for one (cell, k, N) triple.

    ``G_matrix`` is T(1/G)^{-1}: Li's rule for G times a strain, which the
    stiffness, the dipole load and the mean flux share.
    """

    cell: UnitCell1D
    k: float
    order: int
    wavenumbers: np.ndarray
    stiffness: np.ndarray
    mass: np.ndarray
    G_matrix: np.ndarray

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
        L = _factor_mass(self.mass[np.ix_(p, p)], self.cell, self.k, self.order)
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

    def resonance_distance(self, omega_sq: float) -> tuple[float, float]:
        """(relative distance, nearest eigenvalue) for a squared frequency."""
        lam = self.eigenvalues
        rel = np.abs(lam - omega_sq) / (np.abs(lam) + self.cell.c0**2)
        j = int(np.argmin(rel))
        return float(rel[j]), float(lam[j])

    def check_resonance(self, omega_sq: float) -> None:
        """Raise ResonanceError inside the resonance window of an eigenvalue.

        The window |lam - omega^2| < RESONANCE_RTOL (|lam| + c0^2), with c0
        the cell's quasistatic speed, lies below sigma = (omega^2 +
        RESONANCE_RTOL c0^2) / (1 - RESONANCE_RTOL), so one Cholesky
        factorization of A - sigma B clears it; the eigenvalue list is read
        only when that factorization fails.
        """
        sigma = (omega_sq + RESONANCE_RTOL * self.cell.c0**2) / (1.0 - RESONANCE_RTOL)
        if self._all_above(sigma):
            return
        rel, lam_near = self.resonance_distance(omega_sq)
        if rel < RESONANCE_RTOL:
            raise ResonanceError(
                f"omega^2 = {omega_sq!r} within the resonance window of "
                f"eigenvalue {lam_near!r} at {_where(self, omega_sq)}"
            )

    def load(self, g: tuple[float, float]) -> np.ndarray:
        """Coefficients of the load g = (gamma, -f) of ``exact._LOADS``:
        f e_0 - i gamma K T(1/G)^{-1} e_0, the mean load f plus the weak form
        of G times the strain gamma."""
        gamma, minus_f = g
        r = -1j * gamma * self.wavenumbers * self.G_matrix[:, self.index0]
        r[self.index0] -= minus_f
        return r

    def response(self, coeffs: np.ndarray, g: tuple[float, float]) -> CellResponse:
        """The averages of the response ``coeffs`` to the load g = (gamma, -f):
        <u> is the constant mode, <rho u> the constant mode of B c and
        <G (D_k u - gamma)> that of T(1/G)^{-1} times the strain iK c - gamma e_0."""
        i0 = self.index0
        strain = 1j * self.wavenumbers * coeffs
        strain[i0] -= g[0]
        return CellResponse(
            complex(coeffs[i0]), complex((self.mass @ coeffs)[i0]), complex(self.G_matrix[i0] @ strain)
        )


def _levinson(t: np.ndarray) -> np.ndarray:
    """First column x of T^{-1}, T the positive definite Hermitian Toeplitz
    matrix with first column t (Levinson-Durbin, O(n^2)).

    The forward vector a_k of the leading k x k block solves
    T_k a_k = eps_k (1, 0, ..., 0) with a_k[0] = 1; the backward vector is its
    conjugate reversal, so a_{k+1} = (a_k, 0) + mu (0, conj(a_k) reversed)
    with mu = -sum_j t_{k-j} a_k[j] / eps_k, and eps_{k+1} = eps_k (1 - |mu|^2).
    """
    n = t.size
    a = np.zeros(n, dtype=complex)
    a[0] = 1.0
    eps = float(t[0].real)
    t_rev = t[::-1].copy()  # t_rev[n - 1 - j] = t[j]
    dot = np.dot
    for k in range(1, n):
        mu = -dot(t_rev[n - 1 - k : n - 1], a[:k]) / eps
        a[1 : k + 1] += mu * a[k - 1 :: -1].conj()
        eps *= 1.0 - abs(mu) ** 2
    return a / eps


def _dense_inverse(t: np.ndarray) -> np.ndarray:
    """Inverse of the Hermitian Toeplitz matrix with first column t by one LU
    (``numpy.linalg.inv``), returned as its Hermitian part, which has a real
    diagonal.  LU, not Cholesky: a Cholesky inverse fails on admissible cells
    whose G spans 1e18 (``verify`` on G = 1e-9 | 1e9)."""
    j = np.arange(t.size)
    full = np.concatenate((t[:0:-1].conj(), t))  # full[n - 1 + i - j] = T[i, j]
    inverse = np.linalg.inv(full[j[:, None] - j[None, :] + t.size - 1])
    return 0.5 * (inverse + inverse.conj().T)


def _trench(t: np.ndarray) -> np.ndarray:
    """Inverse of the positive definite Hermitian Toeplitz matrix with first
    column t in O(n^2): Levinson-Durbin gives the first column x, and the
    Gohberg-Semencul form T^{-1} = (L(x) L(x)^H - L(y) L(y)^H) / x_0, with
    L(v) the lower triangular Toeplitz matrix of v and
    y = (0, conj(x_{n-1}), ..., conj(x_1)), gives every diagonal d >= 0 as a
    running sum (Trench's recurrence):
    T^{-1}[i, i + d] = sum_{s <= i} (x_s conj(x_{s+d}) - y_s conj(y_{s+d})) / x_0.
    """
    n = t.size
    x = _levinson(t)
    scale = 1.0 / x[0].real
    y = np.zeros(n, dtype=complex)
    y[1:] = x[:0:-1].conj()
    # row i of an (n, n + 1) array read as (n, n) is shifted right by i, so
    # the running sums [i, d] land on [i, i + d]; what wraps into the strict
    # lower triangle is overwritten from the upper one
    shear = np.empty((n, n + 1), dtype=complex)
    sums = shear[:, :n]
    padded = np.zeros((2, 2 * n - 1), dtype=complex)  # windows [v, s, d] = conj(v[s + d]), zero past the end
    padded[0, :n], padded[1, :n] = x.conj(), y.conj()
    step, item = padded.strides
    windows = as_strided(padded, (2, n, n), (step, item, item), writeable=False)
    np.multiply((x * scale)[:, None], windows[0], out=sums)
    sums -= (y * scale)[:, None] * windows[1]
    np.cumsum(sums, axis=0, out=sums)
    inverse = shear.ravel()[: n * n].reshape(n, n)
    np.copyto(inverse, inverse.T.conj(), where=np.tri(n, k=-1, dtype=bool))
    inverse.flat[:: n + 1] = inverse.diagonal().real
    return inverse


def toeplitz_inverse(t: np.ndarray) -> np.ndarray:
    """Inverse of the positive definite Hermitian Toeplitz matrix with first column t.

    Up to n = _DENSE_MAX_SIZE (N = 32) one LAPACK LU inverse (``_dense_inverse``);
    above it Levinson-Durbin and Trench's recurrence (``_trench``), which is
    O(n^2) but takes n Python steps, whose overhead outweighs the O(n^3)
    LAPACK call at small n.  Either result is exactly Hermitian with a real
    diagonal.
    """
    t = np.asarray(t, dtype=complex)
    return _dense_inverse(t) if t.size <= _DENSE_MAX_SIZE else _trench(t)


def check_order(order) -> int:
    """``order`` as an int if it is an integer (not a bool) >= MIN_ORDER, else ValidationError."""
    if isinstance(order, (int, np.integer)) and not isinstance(order, bool) and order >= MIN_ORDER:
        return int(order)
    raise ValidationError(f"order must be an integer >= {MIN_ORDER}, got {order!r}")


def _require_wavenumber(cell: UnitCell1D, k: float) -> None:
    """ValidationError unless k, its square and <G> k^2 (``UnitCell1D.impedance_scale``) are finite."""
    _require_finite(k=k)
    if cell.impedance_scale(k, 0.0) == np.inf:
        raise ValidationError(f"<G> k^2 must be finite, got k = {float(k)!r}")


def _lowest_eigenvalues(cell: UnitCell1D, ks: list[float], order: int) -> np.ndarray:
    """Lowest eigenvalue of the pencil (A, B) of :func:`assemble` at each k of ``ks``.

    Li's rule makes the inverse of the stiffness free, A^{-1} = K^{-1} T(1/G) K^{-1}
    (K = diag(k_m), no k_m = 0 where cos k != 1).  With B = L L^H and M = K^{-1} L,
    A c = lam B c reads C y = y / lam for the Hermitian C = M^H T(1/G) M and
    y = L^H c, so lam_1 = 1 / mu_max(C).  A Hermitian eigensolver returns mu_max
    to roundoff relative to itself, so lam_1 is accurate relative to itself at
    any contrast, with no inverse and no triangular solve (J. Demmel et al.,
    Linear Algebra Appl. 299 (1999) 21).  T(1/G), B and L do not depend on k,
    so they are formed once for the whole list.  Each k is gated as in
    :func:`assemble`; a mass matrix that is not positive definite raises
    NumericalError naming the first k.
    """
    for k in ks:
        _require_wavenumber(cell, k)
    inv_G_hat, rho_hat = fourier_coefficients(cell, ("1/G", "rho"), 2 * order)
    m = np.arange(-order, order + 1)
    toeplitz = m[:, None] - m[None, :] + 2 * order
    T, L = inv_G_hat.coeffs[toeplitz], _factor_mass(rho_hat.coeffs[toeplitz], cell, ks[0], order)
    lam = np.empty(len(ks))
    for i, k in enumerate(ks):
        M = L / (2.0 * np.pi * m + k)[:, None]
        C = M.conj().T @ T @ M
        lam[i] = 1.0 / np.linalg.eigvalsh(0.5 * (C + C.conj().T))[-1]
    return lam


def assemble(cell: UnitCell1D, k: float, order: int) -> BlochOperator:
    """Build the Galerkin matrices at Bloch wavenumber k.

    Parameters
    ----------
    cell : UnitCell1D
    k : float
        Bloch wavenumber (real).
    order : int
        Truncation half-order N; the basis holds 2N+1 modes.

    A k whose square, or <G> k^2 (``UnitCell1D.impedance_scale``), is not finite raises
    ValidationError.
    """
    _require_wavenumber(cell, k)
    order = check_order(order)
    inv_G_hat, rho_hat = fourier_coefficients(cell, ("1/G", "rho"), 2 * order)
    G_matrix = toeplitz_inverse(inv_G_hat.coeffs[2 * order :])
    m = np.arange(-order, order + 1)
    km = 2.0 * np.pi * m + float(k)
    B = rho_hat.coeffs[m[:, None] - m[None, :] + 2 * order]
    return BlochOperator(
        cell=cell,
        k=float(k),
        order=order,
        wavenumbers=km,
        stiffness=G_matrix * np.outer(km, km),
        mass=B,
        G_matrix=G_matrix,
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
        """Indices of the near-degenerate group containing one mode: neighbours
        within the resonance window, |lam_j - lam_{j+1}| < RESONANCE_RTOL (|lam| + c0^2)."""
        lam = self.eigenvalues
        c0_sq = self.operator.cell.c0**2
        lo = index
        while lo > 0 and abs(lam[lo] - lam[lo - 1]) < RESONANCE_RTOL * (abs(lam[lo]) + c0_sq):
            lo -= 1
        hi = index
        while hi + 1 < lam.size and abs(lam[hi + 1] - lam[hi]) < RESONANCE_RTOL * (
            abs(lam[hi]) + c0_sq
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
    the resonance certificate and the factorization.  A non-finite omega
    raises ValidationError.  Refuses to solve inside the resonance window;
    raises NumericalError unless the relative residual of every column is
    within RESIDUAL_RTOL, so a NaN residual fails too.
    """
    _require_finite(omega=omega)
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
    if not residual[j] <= bound[j]:
        raise NumericalError(
            f"resolvent solve residual {residual[j]:.3e} exceeds backward-error "
            f"bound {bound[j]:.3e} at {_where(operator, omega_sq)}"
        )
    return coeffs
