"""Static corrector chain and second-order effective polynomials.

The long-wave low-frequency behaviour of a 1D periodic cell is carried by
a chain of periodic zero-mean correctors, each solving a flux-form balance
law ``(G(u' + F))' = r`` on the cell, and by the coefficient table built
from their averages.  From the table three polynomial observables in
(k, omega) are formed: the fourth-order two-scale impedance, the
modulation factor that multiplies it in the mean-field expansion, and the
dipole mean polynomial.

The two routes share no chain code, so the spectral table checks the
exact one.  The exact route runs the chain as a recipe of sums, products
and means of piecewise polynomials integrated in closed form
(``_piecewise``), each corrector from one flux-form solve, ``_solve``.
The spectral route (``_spectral_chain``) solves the same six problems as
the rows |m| <= N of the k = 0 Galerkin system of ``spectral.assemble``,
on Fourier coefficient arrays.  It divides by G through T_N(1/G), the
inverse of Li's-rule G (L. Li, JOSA A 13 (1996) 1870), as one convolution
with the order-2N coefficients of 1/G, so it needs no factorization, never
forms Li's G, and its mu0 is the harmonic mean <1/G>^-1 at any N.  Two
oracles share no code with either route: the frozen rational coefficients
of ``bilaminate(0.1, 0.1)`` in the tests, and ``verify``'s
``polynomial/*_matches_oracle`` checks against the exact dynamic impedance
of the transfer-matrix route.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from ._piecewise import PiecewisePoly, piecewise_constant
from .errors import NumericalError, SolvabilityError, ValidationError
from .material import FourierField, Phase, UnitCell1D, _field, _two_pi_im, cell_digest, fourier_coefficients
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
    to those sizes; the spectral flux is periodic by construction, so there
    it is <u'> alone.
    """

    u: StaticField
    flux: StaticField
    residual: float
    scale: float


@dataclass(frozen=True)
class StaticCellFunctions:
    """The corrector chain of one cell on one route.

    ``chi1/chi2/chi3`` drive the source-side and the dipole-side expansion
    (in 1D their sources differ by constants, which each solve drops
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
    cell: UnitCell1D, inv_g: PiecewisePoly, F: PiecewisePoly, r: PiecewisePoly, scale: float
) -> StaticSolve:
    """The zero-mean periodic solution of (G(u' + F))' = r in closed flux form.

    The flux is R + C with R an antiderivative of r - <r>, and C makes
    <u'> = <(R + C)/G - F> vanish.
    """
    mean_r = r.mean
    if abs(mean_r) > SOLVABILITY_RTOL * max(scale, r.bound()):
        raise SolvabilityError(f"cell source has nonzero mean {mean_r:.3e} ({_at(cell, 'exact')})")
    r_free = r - mean_r
    R = r_free.antiderivative()
    C = (F.mean - (R * inv_g).mean) / inv_g.mean
    flux = R + C
    du = flux * inv_g - F
    u = du.antiderivative().zero_mean()
    # periodicity defects: u(1) - u(0) = <u'>, R(1) - R(0) = <r - <r>>
    residual = max(abs(du.mean) * cell.scales["G"], abs(r_free.mean)) / scale
    return StaticSolve(u=u, flux=flux, residual=residual, scale=scale)


def _spectral_chain(cell: UnitCell1D, order: int) -> tuple[StaticCellFunctions, np.ndarray]:
    """The chain as the rows |m| <= N of the k = 0 Galerkin system, on coefficient
    arrays (index m + N), and the coefficients of rho chi1, which the table reads.

    Each problem (G(u' + F))' = r takes R = r / 2 pi i m without its mean, C
    from the m = 0 row of <u'> = 0, the flux R + C e0, and u' = T_N(1/G)(R + C e0)
    - F as one convolution with the order-2N coefficients of 1/G.  A product
    with rho is T_N(rho) times the order-N array, as the Galerkin rows read it.
    """
    N = order
    inv_g, rho_field = fourier_coefficients(cell, ("1/G", "rho"), 2 * N)
    g, rho = inv_g.coeffs, rho_field.coeffs
    g_row0, rho_n = g[N : 3 * N + 1][::-1], rho[N : 3 * N + 1]  # the m = 0 row of T_N(1/G), T_N(rho) e0
    divisor = _two_pi_im(N)
    mu_h, rho0 = cell.scales["G"], cell.scales["rho"]

    def solve(F: np.ndarray, r: np.ndarray, scale: float) -> StaticSolve:
        mean_r = r[N]
        # scale first: the source's bound is needed only past it
        if abs(mean_r) > SOLVABILITY_RTOL * scale and abs(mean_r) > SOLVABILITY_RTOL * np.abs(r).sum():
            raise SolvabilityError(f"cell source has nonzero mean {mean_r:.3e} ({_at(cell, 'spectral')})")
        R = r / divisor
        R[N] = 0.0
        C = (F[N] - g_row0 @ R) / g[2 * N]
        R[N] = C
        du = np.convolve(g, R, "valid") - F
        u = du / divisor
        u[N] = 0.0
        # periodicity defect u(1) - u(0) = <u'>; R is periodic by construction
        residual = abs(du[N]) * mu_h / scale
        return StaticSolve(u=_field(u, N), flux=_field(R, N), residual=residual, scale=scale)

    zero = np.zeros(2 * N + 1, dtype=complex)
    one = zero.copy()
    one[N] = 1.0
    eta0_r = rho_n.copy()
    eta0_r[N] -= rho0
    eta0_r *= 1.0 / rho0

    # each source with the cell's size for its flux's dimension
    chi1 = solve(one, zero, mu_h)
    eta0 = solve(zero, eta0_r, 1.0)
    mu0 = _real(chi1.flux.mean, "mu0", mu_h, cell, "spectral")
    u1 = chi1.u.coeffs
    rho_chi1 = np.convolve(rho, u1, "valid")
    rho1 = _real(rho_chi1[N], "rho1", rho0, cell, "spectral")
    chi2 = solve(u1, rho_n * (mu0 / rho0) - chi1.flux.coeffs, mu_h)
    eta1 = solve(eta0.u.coeffs, rho_chi1 * (1.0 / rho0) - eta0.flux.coeffs, 1.0)
    alpha1_r = rho_chi1.copy()
    alpha1_r[N] -= rho1
    alpha1 = solve(zero, alpha1_r, rho0)
    chi3 = solve(chi2.u.coeffs, rho_chi1 * (mu0 / rho0) - chi2.flux.coeffs, mu_h)
    fields = StaticCellFunctions("spectral", N, chi1, chi2, chi3, eta0, eta1, alpha1, rho_field)
    return fields, rho_chi1


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
    if method == "spectral":
        return _spectral_chain(cell, check_order(order))[0]
    if method != "exact":
        raise ValidationError(f"unknown method {method!r}, expected 'exact' or 'spectral'")
    one = piecewise_constant(cell, np.ones(len(cell.phases)))
    rho, inv_g = (piecewise_constant(cell, cell.values(name)) for name in ("rho", "1/G"))
    solve = partial(_solve, cell, inv_g)
    zero = one * 0.0
    mu_h, rho0 = cell.scales["G"], cell.scales["rho"]

    # each source with the cell's size for its flux's dimension
    chi1 = solve(one, zero, mu_h)
    eta0 = solve(zero, (rho - rho0) * (1.0 / rho0), 1.0)
    mu0 = _real(chi1.flux.mean, "mu0", mu_h, cell, method)
    rho_chi1 = rho * chi1.u
    rho1 = _real(rho_chi1.mean, "rho1", rho0, cell, method)
    chi2 = solve(chi1.u, rho * (mu0 / rho0) - chi1.flux, mu_h)
    eta1 = solve(eta0.u, rho_chi1 * (1.0 / rho0) - eta0.flux, 1.0)
    alpha1 = solve(zero, rho_chi1 - rho1, rho0)
    chi3 = solve(chi2.u, rho_chi1 * (mu0 / rho0) - chi2.flux, mu_h)
    return StaticCellFunctions(method, None, chi1, chi2, chi3, eta0, eta1, alpha1, rho)


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


#: the dimension of each average of the table, whose cell size judges its realness
_DIMENSIONS = {"mu0": "G", "rho1": "rho", "mu1": "G", "rho2": "rho", "mu2": "G", "s_g": "1", "s_rho": "rho/G", "q": "rho"}


def _table(cell: UnitCell1D, method: str, averages: dict[str, complex]) -> HomogCoefficients:
    """The table of a chain's averages, each checked real on the cell's size for it."""
    c = {name: _real(value, name, cell.scales[_DIMENSIONS[name]], cell, method) for name, value in averages.items()}
    return HomogCoefficients(rho0=cell.mean("rho"), **c, mu1_dip=c["mu1"], mu2_dip=c["mu2"], rho2_dip=c["rho2"])


def coefficients(cell: UnitCell1D, fields: StaticCellFunctions) -> HomogCoefficients:
    """Coefficient table from a solved corrector chain (route-consistent)."""
    if fields.method == "spectral":
        return _spectral_table(cell, fields, np.convolve(fields.rho.coeffs, fields.chi1.u.coeffs, "valid"))
    rho, chi1 = fields.rho, fields.chi1
    rho_chi1 = rho * chi1.u
    return _table(cell, fields.method, {
        "mu0": chi1.flux.mean,
        "rho1": rho_chi1.mean,
        "mu1": fields.chi2.flux.mean,
        "rho2": (rho * fields.chi2.u).mean,
        "mu2": fields.chi3.flux.mean,
        "s_g": fields.eta1.flux.mean,
        "s_rho": (rho * fields.eta0.u).mean,
        "q": (rho_chi1 * chi1.u).mean,
    })


def _spectral_table(cell: UnitCell1D, fields: StaticCellFunctions, rho_chi1: np.ndarray) -> HomogCoefficients:
    """The table of a spectral chain, each average of a product one dot of its
    coefficient arrays: <a b> = sum_m a_m b_{-m}.  ``rho_chi1`` holds the
    harmonics |m| <= N of rho chi1."""
    N, chi1 = fields.order, fields.chi1
    rho_rev = fields.rho.coeffs[N : 3 * N + 1][::-1]  # rho_{-m}, m = -N..N
    return _table(cell, "spectral", {
        "mu0": chi1.flux.mean,
        "rho1": rho_chi1[N],
        "mu1": fields.chi2.flux.mean,
        "rho2": rho_rev @ fields.chi2.u.coeffs,
        "mu2": fields.chi3.flux.mean,
        "s_g": fields.eta1.flux.mean,
        "s_rho": rho_rev @ fields.eta0.u.coeffs,
        "q": rho_chi1 @ chi1.u.coeffs[::-1],
    })


def homogenize(cell: UnitCell1D, method: str = "exact", order: int = DEFAULT_ORDER) -> tuple[StaticCellFunctions, HomogCoefficients]:
    """Chain plus coefficient table in one call."""
    if method == "spectral":
        fields, rho_chi1 = _spectral_chain(cell, check_order(order))
        return fields, _spectral_table(cell, fields, rho_chi1)
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
    identity <G chi1'> = mu0 - <G>: each route's solve gives chi1 the flux
    mu0 and u' = mu0/G - 1, so it holds by construction.
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
