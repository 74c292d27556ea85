"""Static corrector chain and second-order effective polynomials.

The long-wave low-frequency behaviour of a 1D periodic cell is carried by
a chain of periodic zero-mean correctors, each solving a flux-form balance
law ``(G(u' + F))' = r`` on the cell, and by the coefficient table built
from their averages.  From the table three polynomial observables in
(k, omega) are formed: the fourth-order two-scale impedance, the
modulation factor that multiplies it in the mean-field expansion, and the
dipole mean polynomial.

The chain is written once, in ``solve_static_chain``, as a recipe of sums,
products and means of fields, and every corrector comes from one flux-form
solve, ``_solve``.  Each route supplies only its field algebra, and the
routes certify each other where those differ: the exact route integrates
piecewise polynomials in closed form (``_piecewise``), the spectral route
multiplies Fourier series truncated at order N (``material.FourierField``)
and divides by G through T_N(1/G), the inverse of Li's-rule G in the
stiffness of ``spectral.assemble``.  So its correctors are that Galerkin
system's solution at k = 0, reached without a factorization or Li's G
itself, and mu0 is the harmonic mean <1/G>^-1 at any N.  Two oracles share
no code with the recipe:
the frozen rational coefficients of ``bilaminate(0.1, 0.1)`` in the tests,
and ``verify``'s ``polynomial/*_matches_oracle`` checks against the exact
dynamic impedance of the transfer-matrix route.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from ._piecewise import PiecewisePoly, piecewise_constant
from .errors import NumericalError, SolvabilityError, ValidationError
from .material import FourierField, Phase, UnitCell1D, cell_digest, fourier_coefficients
from .spectral import DEFAULT_ORDER, check_order

__all__ = [
    "HomogCoefficients",
    "StaticCellFunctions",
    "StaticSolve",
    "coefficients",
    "dipole_mean_n2",
    "homogenize",
    "identity_suite",
    "modulation_m2",
    "solve_static_chain",
    "two_scale_impedance",
    "two_scale_root",
    "willis_impedance_order2",
]

#: relative tolerance on the source mean of a cell problem, against the
#: larger of the source's bound and the cell's size for its dimension
SOLVABILITY_RTOL = 1e-9

#: denominators smaller than this abort a polynomial ratio
MODULATION_FLOOR = 1e-12

#: a difference of like-sized terms below this fraction of their magnitude
#: is cancellation noise; on two-scale roots z0 shrinks like k^4 against a
#: k^2 scale and must not trip the guard while digits remain
CANCELLATION_FLOOR = 64.0 * np.finfo(float).eps

StaticField = PiecewisePoly | FourierField


# ---------------------------------------------------------------------------
# static flux-form solves


@dataclass(frozen=True)
class StaticSolve:
    """One corrector: zero-mean periodic field ``u`` and total flux G(u'+F).

    ``scale`` is the cell's size for the flux's dimension (``UnitCell1D.scales``);
    that of ``u`` is ``scale`` times <1/G>.  ``residual`` is the larger
    periodicity defect, <u'> of ``u`` and <r - <r>> of the flux, relative
    to those sizes, on both routes.
    """

    u: StaticField
    flux: StaticField
    residual: float
    scale: float


@dataclass(frozen=True)
class StaticCellFunctions:
    """The corrector chain of one cell on one route.

    ``chi1/chi2/chi3`` drive the source-side and the dipole-side expansion
    (in 1D their sources differ by constants, which ``_solve`` subtracts
    with the source mean), ``eta0/eta1`` carry the source modulation and
    ``alpha1`` the static dipole response.  ``rho`` is the cell's density
    field on the same route, of order 2N on the spectral route.
    """

    method: str
    order: int | None
    chi1: StaticSolve
    chi2: StaticSolve
    chi3: StaticSolve
    eta0: StaticSolve
    eta1: StaticSolve
    alpha1: StaticSolve
    rho: StaticField

    def solves(self) -> dict[str, StaticSolve]:
        return {name: v for name, v in vars(self).items() if isinstance(v, StaticSolve)}


def _at(cell: UnitCell1D, method: str) -> str:
    """Route and cell of a static computation, for error messages."""
    return f"{method} route, cell {cell_digest(cell)}"


def _real(value: complex, what: str, scale: float, cell: UnitCell1D, method: str) -> float:
    """The real part of an average whose dimension has size ``scale`` in the cell."""
    value = complex(value)
    if abs(value.imag) > 1e-10 * max(scale, abs(value.real)):
        raise NumericalError(
            f"{what} must be real, got imaginary part {value.imag:.3e} ({_at(cell, method)})"
        )
    return value.real


def _solve(
    cell: UnitCell1D, method: str, inv_g: StaticField, F: StaticField, r: StaticField, scale: float
) -> StaticSolve:
    """The zero-mean periodic solution of (G(u' + F))' = r in closed flux form.

    The flux is R + C with R an antiderivative of r - <r>, and C makes
    <u'> = <(R + C)/G - F> vanish.  Division by G is the product with
    ``inv_g``; on the spectral route that is T_N(1/G), the inverse of Li's G,
    so the rows |m| <= N are the Galerkin solution itself.
    """
    mean_r = r.mean
    if abs(mean_r) > SOLVABILITY_RTOL * max(scale, r.bound()):
        raise SolvabilityError(f"cell source has nonzero mean {mean_r:.3e} ({_at(cell, method)})")
    r_free = r - mean_r
    R = r_free.antiderivative()
    C = (F.mean - (R * inv_g).mean) / inv_g.mean
    flux = R + C
    du = flux * inv_g - F
    u = du.antiderivative().zero_mean()
    # periodicity defects: u(1) - u(0) = <u'>, R(1) - R(0) = <r - <r>>
    residual = max(abs(du.mean) * cell.scales["G"], abs(r_free.mean)) / scale
    return StaticSolve(u=u, flux=flux, residual=residual, scale=scale)


def solve_static_chain(cell: UnitCell1D, method: str = "exact", order: int = DEFAULT_ORDER) -> StaticCellFunctions:
    """Solve the full corrector chain of a cell.

    Parameters
    ----------
    cell : UnitCell1D
    method : {"exact", "spectral"}
        Piecewise closed-form integration or Fourier series truncated at ``order``.
    order : int
        Truncation order for the spectral route, ignored otherwise.
    """
    if method == "exact":
        one = piecewise_constant(cell, np.ones(len(cell.phases)))
        rho, inv_g = (piecewise_constant(cell, cell.values(name)) for name in ("rho", "1/G"))
    elif method == "spectral":
        # the unit field at order N, rho and 1/G at order 2N, so a product
        # with rho or 1/G is its Toeplitz matrix T_N, as the Galerkin rows read it
        order = check_order(order)
        inv_g, rho = fourier_coefficients(cell, ("1/G", "rho"), 2 * order)
        one = FourierField(np.zeros(2 * order + 1)) + 1.0
    else:
        raise ValidationError(f"unknown method {method!r}, expected 'exact' or 'spectral'")
    solve = partial(_solve, cell, method, inv_g)
    zero = one * 0.0
    mu_h, rho0 = cell.scales["G"], cell.scales["rho"]

    # each source with the cell's size for its flux's dimension, and at
    # order N on the spectral route: the unit field cuts eta0's to it
    chi1 = solve(one, zero, mu_h)
    eta0 = solve(zero, (rho - rho0) * one * (1.0 / rho0), 1.0)
    mu0 = _real(chi1.flux.mean, "mu0", mu_h, cell, method)
    rho_chi1 = rho * chi1.u
    rho1 = _real(rho_chi1.mean, "rho1", rho0, cell, method)
    chi2 = solve(chi1.u, rho * (mu0 / rho0) - chi1.flux, mu_h)
    eta1 = solve(eta0.u, rho_chi1 * (1.0 / rho0) - eta0.flux, 1.0)
    alpha1 = solve(zero, rho_chi1 - rho1, rho0)
    chi3 = solve(chi2.u, rho_chi1 * (mu0 / rho0) - chi2.flux, mu_h)
    order = None if method == "exact" else order
    return StaticCellFunctions(method, order, chi1, chi2, chi3, eta0, eta1, alpha1, rho)


# ---------------------------------------------------------------------------
# coefficient table


@dataclass(frozen=True)
class HomogCoefficients:
    """Cell averages feeding the second-order effective polynomials.

    ``rho0/mu0`` are the quasistatic pair, ``rho1/mu1`` the first-order
    corrections (zero for mirror-symmetric cells), ``rho2/mu2`` the
    second-order ones.  The ``*_dip`` entries come from the dipole-side
    correctors, ``s_g/s_rho`` modulate the source, and ``q`` is the
    density-weighted square of the first corrector.
    """

    rho0: float
    mu0: float
    rho1: float
    mu1: float
    rho2: float
    mu2: float
    mu1_dip: float
    mu2_dip: float
    rho2_dip: float
    s_g: float
    s_rho: float
    q: float

    def to_dict(self) -> dict[str, float]:
        return asdict(self)


def coefficients(cell: UnitCell1D, fields: StaticCellFunctions) -> HomogCoefficients:
    """Coefficient table from a solved corrector chain (route-consistent)."""

    def mean(field: StaticField, what: str, dim: str) -> float:
        return _real(field.mean, what, cell.scales[dim], cell, fields.method)

    rho = fields.rho
    rho_chi1 = rho * fields.chi1.u
    mu1 = mean(fields.chi2.flux, "mu1", "G")
    mu2 = mean(fields.chi3.flux, "mu2", "G")
    rho2 = mean(rho * fields.chi2.u, "rho2", "rho")
    return HomogCoefficients(
        rho0=cell.mean("rho"),
        mu0=mean(fields.chi1.flux, "mu0", "G"),
        rho1=mean(rho_chi1, "rho1", "rho"),
        mu1=mu1,
        rho2=rho2,
        mu2=mu2,
        mu1_dip=mu1,
        mu2_dip=mu2,
        rho2_dip=rho2,
        s_g=mean(fields.eta1.flux, "s_g", "1"),
        s_rho=mean(rho * fields.eta0.u, "s_rho", "rho/G"),
        q=mean(rho_chi1 * fields.chi1.u, "q", "rho"),
    )


def homogenize(cell: UnitCell1D, method: str = "exact", order: int = DEFAULT_ORDER) -> tuple[StaticCellFunctions, HomogCoefficients]:
    """Chain plus coefficient table in one call."""
    fields = solve_static_chain(cell, method=method, order=order)
    return fields, coefficients(cell, fields)


# ---------------------------------------------------------------------------
# polynomial observables


def _first(mask, k, omega) -> str:
    """The first (k, omega) where ``mask`` holds, for error messages."""
    i = int(np.argmax(mask))
    kk, ww = (float(np.broadcast_to(v, np.shape(mask)).flat[i]) for v in (k, omega))
    return f"(k, omega) = ({kk!r}, {ww!r})"


def two_scale_impedance(c: HomogCoefficients, k, omega):
    """Fourth-order two-scale impedance polynomial."""
    return -c.mu0 * k**2 + c.rho0 * omega**2 + c.mu2 * k**4 - c.rho2 * k**2 * omega**2


def modulation_m2(c: HomogCoefficients, k, omega):
    """Second-order source modulation factor; -1 for a homogeneous cell."""
    return -1.0 + c.s_g * k**2 - c.s_rho * omega**2


def dipole_mean_n2(c: HomogCoefficients, k, omega):
    """Third-order dipole mean polynomial; i*k*G for a homogeneous cell."""
    ik = 1j * k
    return (
        c.mu0 * ik
        + (c.mu1_dip - c.mu0 * c.rho1 / c.rho0) * ik**2
        + c.rho1 * omega**2
        + c.mu2_dip * ik**3
        + (c.rho2_dip - c.q) * ik * omega**2
    )


def willis_impedance_order2(c: HomogCoefficients, k, omega, route: str = "modulated"):
    """Second-order effective impedance.

    ``route="modulated"`` divides the two-scale impedance by the modulation
    factor; ``route="mean"`` expands the mean field itself and inverts the
    truncated series.  Both agree to the order of the expansion.
    """
    if route == "modulated":
        m2 = modulation_m2(c, k, omega)
        m2_scale = 1.0 + np.abs(c.s_g * k**2) + np.abs(c.s_rho * omega**2)
        vanishes = np.abs(m2) <= MODULATION_FLOOR * m2_scale
        if np.any(vanishes):
            raise NumericalError(f"modulation factor vanishes at {_first(vanishes, k, omega)}, impedance undefined")
        return two_scale_impedance(c, k, omega) / m2
    if route == "mean":
        z0 = -c.mu0 * k**2 + c.rho0 * omega**2
        z0_scale = np.abs(c.mu0 * k**2) + np.abs(c.rho0 * omega**2)
        # 1/(w0 + w2) = z0^2 / ((s - 1) z0 + z1) tends to 0 on the acoustic cone
        # (on a two-scale root z1 = -z0 and it is z0 / (s - 2))
        on_cone = np.abs(z0) <= CANCELLATION_FLOOR * z0_scale
        z0 = np.where(on_cone, 1.0, z0)
        z1 = c.mu2 * k**4 - c.rho2 * k**2 * omega**2
        s = c.s_g * k**2 - c.s_rho * omega**2
        w0 = -1.0 / z0
        w2 = (s + z1 / z0) / z0
        den = np.where(on_cone, 1.0, w0 + w2)
        vanishes = np.abs(den) <= MODULATION_FLOOR * (np.abs(w0) + np.abs(w2))
        if np.any(vanishes):
            raise NumericalError(f"mean-field expansion denominator vanishes at {_first(vanishes, k, omega)}")
        return np.where(on_cone, 0.0, 1.0 / den)[()]
    raise ValidationError(f"unknown route {route!r}, expected 'modulated' or 'mean'")


def two_scale_root(c: HomogCoefficients, k: float) -> float:
    """Positive omega root of the two-scale impedance at fixed k; NumericalError where
    the branch terminates, a polynomial that overflows (or is NaN) included."""
    try:
        num = c.mu0 * k**2 - c.mu2 * k**4
        den = c.rho0 - c.rho2 * k**2
    except OverflowError:
        num = den = np.nan
    if not (den > 0.0 and num >= 0.0):
        raise NumericalError(
            f"two-scale branch terminates before k = {k:.6g}: "
            f"mu0 k^2 - mu2 k^4 = {num:.3e}, rho0 - rho2 k^2 = {den:.3e}"
        )
    return float(np.sqrt(num / den))


# ---------------------------------------------------------------------------
# identity suite


def identity_suite(cell: UnitCell1D, fields: StaticCellFunctions, coeffs: HomogCoefficients) -> dict[str, float]:
    """Named relative residuals certifying the static chain.

    Every entry vanishes for the continuum problem; on the exact route the
    residuals sit at roundoff, on the spectral route at the truncation
    error of the chosen order.  The first-order mean equation is a sum of
    two entries, w1 z0 = ik (rho1/rho0 - <eta0 flux>) + (mu1 - rho1 mu0/rho0)
    (ik)^3 / z0, so it is not checked apart.  Nor is the constant-flux
    identity <G chi1'> = mu0 - <G>: ``_solve`` gives chi1 the flux mu0 and
    u' = mu0/G - 1, so it holds by construction.
    """
    c = coeffs
    scales = cell.scales
    out: dict[str, float] = {}

    solves = fields.solves()
    out["solver_residual"] = max(s.residual for s in solves.values())
    # the size of u is its flux's size times <1/G> = 1 / mu_h
    out["zero_mean"] = max(abs(s.u.mean) * scales["G"] / s.scale for s in solves.values())

    # flux of the modulation corrector against the density dipole
    eta0_flux = _real(fields.eta0.flux.mean, "eta0 flux mean", scales["1"], cell, fields.method)
    target = c.rho1 / c.rho0
    out["eta0_flux_matches_density_dipole"] = abs(eta0_flux - target) / max(1.0, abs(target))

    # first-order coefficient identity, exact in 1D
    out["first_order_coefficient_identity"] = abs(c.mu1 - c.rho1 * c.mu0 / c.rho0) / (
        abs(c.mu0) + abs(c.mu1)
    )

    # second-order coefficient identity: the static Z(k, 0) = mu0 k^2 in 1D forces mu2 = mu0 s_g
    out["second_order_coefficient_identity"] = abs(c.mu2 - c.mu0 * c.s_g) / max(
        abs(c.mu2) + abs(c.mu0 * c.s_g), 1e-8 * scales["G"]
    )

    # static dipole flux against the density-weighted corrector square
    alpha1_flux = _real(fields.alpha1.flux.mean, "alpha1 flux mean", scales["rho"], cell, fields.method)
    out["static_dipole_flux_matches_covariance"] = abs(alpha1_flux - c.q) / max(
        abs(c.q), abs(alpha1_flux), 1e-12 * scales["rho"]
    )

    # constant-density companion, in its own scales: eta0 drops out and s_g collapses to q / rho0
    companion = UnitCell1D(tuple(Phase(length=p.length, G=p.G, rho=1.0) for p in cell.phases))
    comp_fields, comp = homogenize(companion, method=fields.method, order=fields.order or DEFAULT_ORDER)
    q_comp = comp.q / comp.rho0
    out["constant_density_reduction"] = max(
        abs(comp.s_g - q_comp) / max(abs(q_comp), 1e-12),
        abs(comp.s_rho) / companion.scales["rho/G"],
        comp_fields.eta0.u.bound() * companion.scales["G"],
    )
    return out
