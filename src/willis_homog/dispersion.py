"""Bloch dispersion of the 1D cell and its long-wave approximations.

Three independent ways to the lowest (acoustic) branch: the transfer-matrix
relation trace(M)/2 = cos k solved by bisection, the root in omega of the
exact effective impedance, and the truncated Fourier eigenvalue problem.
Next to them sit the two long-wave approximations, the quasistatic cone and
the fourth-order two-scale branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asymptotics import HomogCoefficients, two_scale_root
from .errors import NumericalError, ResonanceError
from .exact import dispersion_function
from .material import UnitCell1D, cell_digest
from .spectral import DEFAULT_ORDER, assemble
from .willis import effective_impedance

__all__ = [
    "DispersionBranch",
    "effective_speed",
    "exact_branch",
    "order2_branch",
    "quasistatic_branch",
    "spectral_acoustic_branch",
    "willis_exact_root",
]

#: omega scan step when bracketing roots, in units of the Rayleigh speed c
SCAN_STEP = 0.01

#: bisection tolerance on omega, in units of c
ROOT_TOL = 1e-12


@dataclass(frozen=True)
class DispersionBranch:
    """Sampled branch omega(k) with a label naming the method.

    ``terminated_at`` records the first wavenumber where a truncated model
    stops being real-valued (None when the branch covers the whole grid).
    """

    label: str
    k: np.ndarray
    omega: np.ndarray
    terminated_at: float | None = None


def _bisect(fn, a: float, b: float, fa: float, tol: float) -> float:
    """Bisect fn's sign change on [a, b], given fa = fn(a)."""
    for _ in range(200):
        mid = 0.5 * (a + b)
        if b - a <= tol:
            return mid
        fm = fn(mid)
        if fa * fm <= 0.0:
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def _scan_points(start: float, step: float, limit: float):
    """Scan points start, then min(a + step, limit) accumulated up to ``limit``."""
    a = start
    yield a
    while a < limit:
        a = min(a + step, limit)
        yield a


def _rayleigh_bound(cell: UnitCell1D, k) -> float:
    """(1.1 max|k| + 0.05) c, above the lowest branch (``UnitCell1D.c``)."""
    return (1.1 * float(np.max(np.abs(k), initial=0.0)) + 0.05) * cell.c


def exact_branch(
    cell: UnitCell1D,
    k_grid: np.ndarray,
    omega_max: float | None = None,
    relation=None,
) -> DispersionBranch:
    """Lowest branch from the transfer-matrix relation D(omega) = cos k.

    ``omega_max`` defaults to the Rayleigh bound (``_rayleigh_bound``); the
    scan step and the bisection tolerance are ``SCAN_STEP`` and ``ROOT_TOL``
    times the cell's Rayleigh speed c.

    ``relation`` maps an array of omega to D(omega), with D(0) = 1 as for
    every half-trace; it defaults to the general trace-based
    :func:`~willis_homog.exact.dispersion_function`.

    D does not depend on k, so it is evaluated once on the whole scan grid
    [0, omega_max].  As D(0) = 1, the first sign change of D - cos k is at
    the first grid point where the running minimum of D reaches cos k; all
    k are then bisected together.  Each root equals that of a scan plus
    bisection run for one k at a time, bit for bit.
    """
    rel = relation if relation is not None else (lambda w: dispersion_function(cell, w))
    k_grid = np.atleast_1d(np.asarray(k_grid, dtype=float))
    if omega_max is None:
        omega_max = _rayleigh_bound(cell, k_grid)
    targets = np.cos(k_grid)
    omegas = np.zeros_like(k_grid)
    todo = np.flatnonzero(~(np.abs(targets - 1.0) < 1e-15))

    # scan: brackets [a, b] with fa = D(a) - cos k, first sign change per k;
    # the running minimum of D never rises, so its first point <= cos k is a sorted search
    w = np.fromiter(_scan_points(0.0, SCAN_STEP * cell.c, omega_max), dtype=float)
    d, t = rel(w), targets[todo]
    hit = np.searchsorted(-np.minimum.accumulate(d), -t)
    unbracketed = hit == w.size
    if unbracketed.any():
        k_bad = k_grid[todo[np.argmax(unbracketed)]]
        raise NumericalError(
            f"exact_branch scan: no branch crossing found below omega_max = {omega_max:.6g} "
            f"for k = {float(k_bad)!r} ({int(unbracketed.sum())} of {k_grid.size} k unresolved) "
            f"in cell {cell_digest(cell)}"
        )
    a, b, fa = w[hit - 1], w[hit], d[hit - 1] - t

    # lockstep bisection; a root is final once its bracket is within ROOT_TOL c
    live, tol = np.arange(t.size), ROOT_TOL * cell.c
    for _ in range(200):
        mid = 0.5 * (a + b)
        done = b - a <= tol
        omegas[todo[live[done]]] = mid[done]
        keep = ~done
        live, a, b, fa, t, mid = live[keep], a[keep], b[keep], fa[keep], t[keep], mid[keep]
        if live.size == 0:
            break
        fm = rel(mid) - t
        left = fa * fm <= 0.0
        a, b, fa = np.where(left, a, mid), np.where(left, mid, b), np.where(left, fa, fm)
    omegas[todo[live]] = 0.5 * (a + b)
    return DispersionBranch(label="exact", k=k_grid, omega=omegas)


def spectral_acoustic_branch(
    cell: UnitCell1D, k_grid: np.ndarray, order: int = DEFAULT_ORDER
) -> DispersionBranch:
    """Acoustic branch from the lowest Galerkin eigenvalue per wavenumber.

    The eigenvalues come from the graded reduced pencil
    (``BlochOperator.eigenvalues``), whose lowest one is accurate relative
    to itself.
    """
    k_grid = np.atleast_1d(np.asarray(k_grid, dtype=float))
    omegas = np.empty_like(k_grid)
    for i, k in enumerate(k_grid):
        lam = float(assemble(cell, float(k), order).eigenvalues[0])
        omegas[i] = np.sqrt(max(lam, 0.0))
    return DispersionBranch(label="spectral_acoustic", k=k_grid, omega=omegas)


def order2_branch(c: HomogCoefficients, k_grid: np.ndarray) -> DispersionBranch:
    """Two-scale fourth-order branch; stops where the radicand turns negative."""
    k_grid = np.atleast_1d(np.asarray(k_grid, dtype=float))
    omegas = []
    terminated_at = None
    for k in k_grid:
        try:
            omegas.append(two_scale_root(c, float(k)))
        except NumericalError:
            terminated_at = float(k)
            break
    n = len(omegas)
    return DispersionBranch(
        label="order2",
        k=k_grid[:n],
        omega=np.asarray(omegas),
        terminated_at=terminated_at,
    )


def quasistatic_branch(c: HomogCoefficients, k_grid: np.ndarray) -> DispersionBranch:
    """Leading-order nondispersive cone omega = k * sqrt(mu0/rho0)."""
    k_grid = np.atleast_1d(np.asarray(k_grid, dtype=float))
    return DispersionBranch(
        label="quasistatic", k=k_grid, omega=effective_speed(c) * k_grid
    )


def effective_speed(c: HomogCoefficients) -> float:
    """Long-wave sound speed sqrt(mu0/rho0)."""
    return float(np.sqrt(c.mu0 / c.rho0))


def willis_exact_root(
    cell: UnitCell1D,
    k: float,
    omega_max: float | None = None,
) -> float:
    """Lowest positive root in omega of the exact effective impedance.

    Scans the (real) impedance a point at a time from 1e-9 c, on the
    accumulated grid of :func:`exact_branch`, and bisects its first sign change.
    In the eigenfunction form <w> = sum_m |<phi_m>|^2 / (lam_m - omega^2)
    (J. R. Willis, Proc. R. Soc. A 467 (2011) 1865) only the visible modes,
    <phi_m> != 0, contribute, so <w> is positive from omega = 0 up to the
    lowest visible eigenvalue, where it blows up and changes sign.  Z = 1/<w>
    is there finite and positive, and first changes sign through zero at
    that eigenvalue, the acoustic root; its poles, the zeros of <w>, lie
    above it, and invisible eigenvalues leave it finite.  So a point the
    exact route finds resonant before the first sign change lies on that
    branch, where Z = 0.  So the bisection ends at the low edge of the exact
    route's resonance window, not within ``ROOT_TOL`` c: the root is known to
    the window's half-width, about 1e-10 of omega; ``Z`` in pole-free form
    (ROADMAP.md, item 2) would remove the window.  ``omega_max`` defaults to
    the Rayleigh bound, and the scan step is in units of c, as in
    :func:`exact_branch`.
    """
    if omega_max is None:
        omega_max = _rayleigh_bound(cell, k)

    def z(w: float) -> float:
        try:
            return effective_impedance(cell, k, w, method="exact").real
        except ResonanceError:
            return 0.0

    c = cell.c
    points = _scan_points(1e-9 * c, SCAN_STEP * c, omega_max)
    w_lo = next(points)
    fa = z(w_lo)
    for w_hi in points:
        fb = z(w_hi)
        if fa * fb <= 0.0:
            return float(_bisect(z, w_lo, w_hi, fa, ROOT_TOL * c))
        w_lo, fa = w_hi, fb
    raise NumericalError(
        f"willis_exact_root: no impedance root found below omega_max = {omega_max:.6g} "
        f"for k = {float(k)!r} in cell {cell_digest(cell)}"
    )
