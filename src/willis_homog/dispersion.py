"""Bloch dispersion of the 1D cell and its long-wave approximations.

Two independent ways to the lowest (acoustic) branch: the transfer-matrix
relation trace(M)/2 = cos k solved by bisection, and the truncated Fourier
eigenvalue problem; the exact effective impedance changes sign at the first.
Next to them sit the two long-wave approximations, the quasistatic cone and
the fourth-order two-scale branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import HomogCoefficients, two_scale_root
from .errors import NumericalError, ValidationError
from .exact import dispersion_function
from .material import UnitCell1D, cell_digest
from .spectral import DEFAULT_ORDER, _lowest_eigenvalues, check_order
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

#: omega scan step when bracketing roots, in units of the scan speed
#: s = min(c, 2 c0) (``_scan_grid``)
SCAN_STEP = 0.01

#: bisection tolerance on omega, in units of s
ROOT_TOL = 1e-12

#: willis_exact_root's bracket half-width relative to the branch root; verify's triangle tolerance
ROOT_BRACKET = 1e-6


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


def _bisect(fn, a, b, fa, tol: float) -> np.ndarray:
    """Bisect fn's sign changes on the brackets [a, b] in lockstep to within tol,
    given fa = fn(a); a closed bracket keeps its ends.  Each root is bit for
    bit that of its bracket bisected alone."""
    a, b, fa = np.atleast_1d(a, b, fa)
    for _ in range(200):
        open_ = b - a > tol
        if not open_.any():
            break
        mid = 0.5 * (a + b)
        fm = fn(mid)
        left = fa * fm <= 0.0
        a, b, fa = np.where(open_ & ~left, mid, a), np.where(open_ & left, mid, b), np.where(left, fa, fm)
    return 0.5 * (a + b)


def _golden_min(fn, a: float, b: float, tol: float) -> tuple[float, float]:
    """(x, fn(x)) at the minimum of fn, unimodal on [a, b], by golden section to within tol."""
    g = 0.5 * (np.sqrt(5.0) - 1.0)
    x1, x2 = b - g * (b - a), a + g * (b - a)
    f1, f2 = fn(x1), fn(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - g * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + g * (b - a)
            f2 = fn(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def _cos_k_is_one(cos_k):
    """cos k = 1 within 1e-15, where every branch is 0; built-in abs spares a float a numpy call."""
    return abs(cos_k - 1.0) < 1e-15


def _finite_k(k_grid) -> np.ndarray:
    """``k_grid`` as a 1D float array; ValidationError naming its first non-finite k."""
    k_grid = np.atleast_1d(np.asarray(k_grid, dtype=float))
    if not all(map(math.isfinite, k_grid.tolist())):  # faster than np.isfinite on a short grid
        raise ValidationError(f"k must be finite, got {float(k_grid[~np.isfinite(k_grid)][0])!r}")
    return k_grid


def _scan_grid(cell: UnitCell1D, k, omega_max: float | None) -> tuple[np.ndarray, float, float]:
    """(grid, omega_max, s): the scan grid of :func:`exact_branch`, 0 then a + SCAN_STEP s
    accumulated up to a finite omega_max > 0, by default and at most the bound
    (1.1 max|k~| + 0.05) c0 with k~ the wavenumber folded into [-pi, pi].

    The trial Bloch function exp(ik~ theta(x)), theta' = (1/G) / <1/G>, has
    Rayleigh quotient (c0 k~)^2, so the lowest branch omega_1(k) = omega_1(k~)
    lies below c0 |k~|.  |k~| is |k| up to pi and arccos(cos k) past it, the
    fold of the target cos k that the roots solve for, so the grid of a
    |k| <= pi is the same as unfolded and a large |k| never grows it.
    The speed s = min(c, 2 c0) lies in [c0, 2 c0] (c >= c0), so the step is at
    most 1% of the first band's top omega_1(pi), which tends to 2 c0 in the
    mass-spring limit and was measured no lower; s = c keeps the grid of the
    cells where c <= 2 c0.
    """
    c0 = cell.c0
    folded = np.where(np.abs(k) <= np.pi, np.abs(k), np.arccos(np.cos(k)))
    bound = (1.1 * float(np.max(folded, initial=0.0)) + 0.05) * c0
    if omega_max is None:
        omega_max = bound
    elif not (math.isfinite(omega_max) and omega_max > 0.0):
        raise ValidationError(f"omega_max must be finite and > 0, got {omega_max!r}")
    else:
        omega_max = min(omega_max, bound)
    s = min(cell.c, 2.0 * c0)

    def points():
        a = 0.0
        yield a
        while a < omega_max:
            a = min(a + SCAN_STEP * s, omega_max)
            yield a

    return np.fromiter(points(), dtype=float), omega_max, s


def exact_branch(
    cell: UnitCell1D,
    k_grid: np.ndarray,
    omega_max: float | None = None,
) -> DispersionBranch:
    """Lowest branch from the transfer-matrix relation D(omega) = cos k.

    ``omega_max`` defaults to, and is capped at, the bound (1.1 max|k~| + 0.05)
    c0, k~ the wavenumber folded into [-pi, pi] (``_scan_grid``), and the scan
    step and the bisection tolerance are ``SCAN_STEP`` and ``ROOT_TOL`` times
    the scan speed s = min(c, 2 c0) (``_scan_grid``).

    D is the half-trace :func:`~willis_homog.exact.dispersion_function`.
    It does not depend on k, so it is evaluated once on the whole scan grid
    [0, omega_max].  As D(0) = 1, the first sign change of D - cos k is at
    the first grid point where the running minimum of D reaches cos k; all
    k are then bisected together.  Each root equals that of a scan plus
    bisection run for one k at a time, bit for bit.  A k that the running
    minimum does not reach by D's first sampled dip crosses inside that dip,
    or touches its minimum where the gap is closed; it is bisected from the
    grid point before the dip up to the minimum, found once per call by
    golden section, so a touch returns the minimum, good to about sqrt(eps).
    A non-finite k or omega_max, or an omega_max <= 0, raises ValidationError.
    """
    k_grid = _finite_k(k_grid)
    w, omega_max, s = _scan_grid(cell, k_grid, omega_max)
    targets = np.cos(k_grid)
    omegas = np.zeros_like(k_grid)
    todo = np.flatnonzero(~_cos_k_is_one(targets))

    # scan: brackets [a, b] with fa = D(a) - cos k, first sign change per k;
    # the running minimum of D never rises, so its first point <= cos k is a sorted search
    d, t = dispersion_function(cell, w), targets[todo]
    hit = np.searchsorted(-np.minimum.accumulate(d), -t)
    # D's first sampled dip is at ``last``; a k past it that the dip's minimum reaches
    # within roundoff is bracketed up to that minimum
    rises = np.flatnonzero(np.diff(d) > 0.0)
    last = rises[0] if rises.size else w.size - 1
    past, b = hit > last, w[np.minimum(hit, w.size - 1)]
    if rises.size and past.any():
        w_e, d_e = _golden_min(
            lambda x: dispersion_function(cell, np.array([x]))[0], w[last - 1], w[last + 1], ROOT_TOL * s
        )
        past &= d_e - t <= 1e-12
        hit[past], b[past] = last, w_e
    unbracketed = hit > last
    if unbracketed.any():
        k_bad = k_grid[todo[np.argmax(unbracketed)]]
        raise NumericalError(
            f"exact_branch scan: no branch crossing found below omega_max = {omega_max:.6g} "
            f"for k = {float(k_bad)!r} ({int(unbracketed.sum())} of {k_grid.size} k unresolved) "
            f"in cell {cell_digest(cell)}"
        )
    a, fa = w[hit - 1], d[hit - 1] - t
    omegas[todo] = _bisect(lambda mid: dispersion_function(cell, mid) - t, a, b, fa, ROOT_TOL * s)
    return DispersionBranch(label="exact", k=k_grid, omega=omegas)


def spectral_acoustic_branch(
    cell: UnitCell1D, k_grid: np.ndarray, order: int = DEFAULT_ORDER
) -> DispersionBranch:
    """Acoustic branch from the lowest Galerkin eigenvalue per wavenumber.

    The eigenvalues come from the compliance pencil
    (``spectral._lowest_eigenvalues``), accurate relative to themselves at
    any contrast, with the matrices that do not depend on k formed once per
    call.  Where cos k = 1 within 1e-15 the branch is 0, as in
    :func:`exact_branch`, and nothing is formed; elsewhere a lowest
    eigenvalue <= 0 raises NumericalError, and so does a mass matrix that is
    not positive definite.  A non-finite k or an invalid order raises
    ValidationError.
    """
    k_grid, order = _finite_k(k_grid), check_order(order)
    omegas = np.zeros(k_grid.size)
    todo = np.flatnonzero(~_cos_k_is_one(np.cos(k_grid)))
    if todo.size:
        ks = k_grid[todo].tolist()
        lam = _lowest_eigenvalues(cell, ks, order)
        for k, lam_k in zip(ks, lam.tolist()):
            if not lam_k > 0.0:
                raise NumericalError(
                    f"spectral_acoustic_branch eigenvalue: lowest lam = {lam_k:.3e} is not positive "
                    f"at k = {k!r}, N = {order} in cell {cell_digest(cell)}"
                )
        omegas[todo] = np.sqrt(lam)
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


def willis_exact_root(cell: UnitCell1D, k: float, omega: float) -> float:
    """Secant root in omega of exact Re Z across :func:`exact_branch`'s root ``omega`` at k.

    Z = det/N with det = 2 exp(-ik) (cos k - D), so Z vanishes on the branch
    unless N does too: in <w> = sum_m |<phi_m>|^2 / (lam_m - omega^2)
    (J. R. Willis, Proc. R. Soc. A 467 (2011) 1865) Z = 1/<w> changes sign at a
    visible eigenvalue, <phi_m> != 0, and keeps it at an invisible one (0/0).
    A Z that keeps its sign over omega (1 -+ ``ROOT_BRACKET``) raises
    NumericalError.  Where cos k = 1 within 1e-15 the root is 0, as on the
    branch.  A non-finite k, or else a non-finite or non-positive omega,
    raises ValidationError.
    """
    _finite_k(k)
    if _cos_k_is_one(np.cos(k)):
        return 0.0
    if not (math.isfinite(omega) and omega > 0.0):
        raise ValidationError(f"omega must be finite and > 0, got {omega!r}")
    lo, hi = omega * (1.0 - ROOT_BRACKET), omega * (1.0 + ROOT_BRACKET)
    z_lo, z_hi = (effective_impedance(cell, k, x, method="exact").real for x in (lo, hi))
    if not z_lo * z_hi < 0.0:
        raise NumericalError(
            f"willis_exact_root sign test: Re Z = {z_lo:.3e}, {z_hi:.3e} does not change sign "
            f"within a relative {ROOT_BRACKET:g} of omega = {float(omega)!r} for k = {float(k)!r} "
            f"in cell {cell_digest(cell)}"
        )
    return float(lo - z_lo * (hi - lo) / (z_hi - z_lo))
