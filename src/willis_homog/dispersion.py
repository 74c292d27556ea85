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
from .errors import NumericalError, ResonanceError, ValidationError
from .exact import dispersion_function
from .material import UnitCell1D, cell_digest
from .spectral import DEFAULT_ORDER, assemble
from .willis import effective_impedance

__all__ = [
    "DispersionBranch",
    "effective_speed",
    "exact_bilaminate_relation",
    "exact_branch",
    "order2_branch",
    "quasistatic_branch",
    "spectral_acoustic_branch",
    "willis_exact_root",
]

#: default omega scan step when bracketing roots
SCAN_STEP = 0.01

#: bisection tolerance on omega
ROOT_TOL = 1e-12

#: omega points per D(omega) evaluation while scanning for brackets
SCAN_CHUNK = 256


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


def exact_bilaminate_relation(cell: UnitCell1D, omega) -> np.ndarray | float:
    """Closed-form dispersion function of a two-phase cell.

    Returns cos(k) as a function of omega:
    cos(w h1/c1) cos(w h2/c2) - (z1/z2 + z2/z1)/2 * sin(..) sin(..)
    with c_j the phase speeds and z_j the phase impedances.
    """
    if len(cell.phases) != 2:
        raise ValidationError("closed form needs exactly two phases")
    p1, p2 = cell.phases
    c1, c2 = np.sqrt(p1.G / p1.rho), np.sqrt(p2.G / p2.rho)
    z1, z2 = np.sqrt(p1.G * p1.rho), np.sqrt(p2.G * p2.rho)
    a1 = np.asarray(omega) * p1.length / c1
    a2 = np.asarray(omega) * p2.length / c2
    val = np.cos(a1) * np.cos(a2) - 0.5 * (z1 / z2 + z2 / z1) * np.sin(a1) * np.sin(a2)
    return val if np.ndim(omega) else float(val)


def _bisect(fn, a: float, b: float, tol: float) -> float:
    fa = fn(a)
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


def _scan_chunks(limit: float, step: float):
    """Scan points 0, step, 2 step, ... up to ``limit``, in chunks.

    The points come from the repeated ``min(a + step, limit)`` accumulation
    of a point-by-point scan, so they carry the same bits.
    """
    a, chunk = 0.0, [0.0]
    while a < limit:
        a = min(a + step, limit)
        chunk.append(a)
        if len(chunk) == SCAN_CHUNK:
            yield np.array(chunk)
            chunk = []
    if chunk:
        yield np.array(chunk)


def exact_branch(
    cell: UnitCell1D,
    k_grid: np.ndarray,
    omega_max: float = 20.0,
    step: float = SCAN_STEP,
    relation=None,
) -> DispersionBranch:
    """Lowest branch from the transfer-matrix relation D(omega) = cos k.

    ``relation`` maps an array of omega to D(omega); it defaults to the
    general trace-based :func:`~willis_homog.exact.dispersion_function`.
    Pass ``lambda w: exact_bilaminate_relation(cell, w)`` to use the
    two-phase closed form.

    D does not depend on k, so it is scanned once, in chunks, until every
    k has its first sign change of D - cos k; then all k are bisected
    together.  Each root equals that of a scan plus bisection run for one
    k at a time, bit for bit.
    """
    rel = relation if relation is not None else (lambda w: dispersion_function(cell, w))
    k_grid = np.atleast_1d(np.asarray(k_grid, dtype=float))
    targets = np.cos(k_grid)
    omegas = np.zeros_like(k_grid)
    todo = np.flatnonzero(~(np.abs(targets - 1.0) < 1e-15))

    # scan: brackets [a, b] with fa = D(a) - cos k, first sign change per k
    t = targets[todo]
    a, b, fa = np.empty_like(t), np.empty_like(t), np.empty_like(t)
    unbracketed = np.ones(t.size, dtype=bool)
    w_last = d_last = None
    for w in _scan_chunks(omega_max, step):
        if not unbracketed.any():
            break
        d = rel(w)
        if w_last is not None:
            w, d = np.concatenate(([w_last], w)), np.concatenate(([d_last], d))
        w_last, d_last = w[-1], d[-1]
        if w.size < 2:
            continue
        rows = np.flatnonzero(unbracketed)
        f = d[None, :] - t[rows, None]
        cross = f[:, :-1] * f[:, 1:] <= 0.0
        hit = cross.any(axis=1)
        rows, first = rows[hit], cross[hit].argmax(axis=1)
        a[rows], b[rows], fa[rows] = w[first], w[first + 1], f[hit, first]
        unbracketed[rows] = False
    if unbracketed.any():
        k_bad = k_grid[todo[np.argmax(unbracketed)]]
        raise NumericalError(
            f"exact_branch scan: no branch crossing found below omega_max = {omega_max:.6g} "
            f"for k = {float(k_bad)!r} ({int(unbracketed.sum())} of {k_grid.size} k unresolved) "
            f"in cell {cell_digest(cell)}"
        )

    # lockstep bisection; a root is final once its bracket is within ROOT_TOL
    live = np.arange(t.size)
    for _ in range(200):
        mid = 0.5 * (a + b)
        done = b - a <= ROOT_TOL
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
    """Acoustic branch from the lowest Galerkin eigenvalue per wavenumber."""
    k_grid = np.atleast_1d(np.asarray(k_grid, dtype=float))
    omegas = np.empty_like(k_grid)
    for i, k in enumerate(k_grid):
        lam = assemble(cell, float(k), order).lowest_eigenvalue()
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
    omega_max: float = 20.0,
    step: float = SCAN_STEP,
) -> float:
    """Lowest positive root in omega of the exact effective impedance.

    Scans for sign changes of the (real) impedance and bisects.  Sign
    changes across impedance poles are rejected by the magnitude of the
    limit, so invisible eigenvalues, which leave the impedance finite and
    rootless, are passed over automatically.
    """

    def z(w: float) -> float:
        for nudge in (0.0, 0.31 * step, -0.29 * step):
            try:
                return effective_impedance(cell, k, w + nudge, method="exact").real
            except ResonanceError:
                continue
        raise NumericalError(
            f"willis_exact_root: impedance not evaluable near omega = {w:.6g} at k = {float(k)!r} "
            f"(omega_max = {omega_max:.6g}) in cell {cell_digest(cell)}"
        )

    a = 1e-9 if k == 0.0 else 0.0
    fa = z(a) if a else z(1e-9)
    w_lo = a if a else 1e-9
    while w_lo < omega_max:
        w_hi = min(w_lo + step, omega_max)
        fb = z(w_hi)
        if fa * fb <= 0.0:
            root = _bisect(z, w_lo, w_hi, ROOT_TOL)
            # a pole also flips the sign but blows up instead of vanishing
            if abs(z(root)) < 1.0:
                return float(root)
        w_lo, fa = w_hi, fb
    raise NumericalError(
        f"willis_exact_root: no impedance root found below omega_max = {omega_max:.6g} "
        f"for k = {float(k)!r} in cell {cell_digest(cell)}"
    )
