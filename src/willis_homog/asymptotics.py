"""Static corrector chain and second-order effective polynomials.

The long-wave low-frequency behaviour of a 1D periodic cell is carried by
a chain of periodic zero-mean correctors, each solving a flux-form balance
law ``(G(u' + F))' = r`` on the cell, and by the coefficient table built
from their averages.  From the table three polynomial observables in
(k, omega) are formed: the fourth-order two-scale impedance, the
modulation factor that multiplies it in the mean-field expansion, and the
dipole mean polynomial.

The chain is written once, in ``solve_static_chain``, as a recipe of sums,
products and means of fields.  Each route keeps its own field algebra and
solver, so each certifies the other: the exact route integrates piecewise
polynomials in closed form (``_piecewise``), the spectral route solves a
Fourier Galerkin system with the stiffness of ``spectral.assemble``
(``material.FourierField``).  Two oracles share no code with the recipe:
the frozen rational coefficients of ``bilaminate(0.1, 0.1)`` in the tests,
and ``verify``'s ``polynomial/*_matches_oracle`` checks against the exact
dynamic impedance of the transfer-matrix route.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ._piecewise import PiecewisePoly, piecewise_constant
from .errors import NumericalError, SolvabilityError, ValidationError
from .material import FourierField, Phase, UnitCell1D, cell_digest
from .spectral import DEFAULT_ORDER, assemble

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

#: relative tolerance on the source mean of an exact-route cell problem
SOLVABILITY_RTOL = 1e-9

#: denominators smaller than this abort a polynomial ratio
MODULATION_FLOOR = 1e-12

#: a difference of like-sized terms below this fraction of their magnitude
#: is cancellation noise; on two-scale roots z0 shrinks like k^4 against a
#: k^2 scale and must not trip the guard while digits remain
CANCELLATION_FLOOR = 64.0 * np.finfo(float).eps

#: (k, omega) at which identity_suite checks the first-order mean equation
IDENTITY_PROBE = (1.0, 0.3)

StaticField = PiecewisePoly | FourierField


# ---------------------------------------------------------------------------
# static flux-form solves


@dataclass(frozen=True)
class StaticSolve:
    """One corrector: zero-mean periodic field ``u`` and total flux G(u'+F).

    ``residual`` is the periodicity defect (exact route) or the relative
    linear-system residual (spectral route).
    """

    u: StaticField
    flux: StaticField
    residual: float


@dataclass(frozen=True)
class StaticCellFunctions:
    """The corrector chain of one cell on one route.

    ``chi1/chi2/chi3`` drive the source-side expansion, ``chi2_dip`` and
    ``chi3_dip`` the dipole-side one (their balance laws coincide with the
    source-side ones at second order in 1D), ``eta0/eta1`` carry the source
    modulation and ``alpha1`` the static dipole response.  ``G`` and
    ``rho`` are the cell's coefficient fields on the same route.
    """

    method: str
    order: int | None
    chi1: StaticSolve
    chi2: StaticSolve
    chi3: StaticSolve
    eta0: StaticSolve
    eta1: StaticSolve
    alpha1: StaticSolve
    chi2_dip: StaticSolve
    chi3_dip: StaticSolve
    G: StaticField
    rho: StaticField

    def solves(self) -> dict[str, StaticSolve]:
        return {name: v for name, v in vars(self).items() if isinstance(v, StaticSolve)}


def _at(cell: UnitCell1D, method: str) -> str:
    """Route and cell of a static computation, for error messages."""
    return f"{method} route, cell {cell_digest(cell)}"


def _real(value: complex, what: str, cell: UnitCell1D, method: str) -> float:
    value = complex(value)
    if abs(value.imag) > 1e-10 * max(1.0, abs(value.real)):
        raise NumericalError(
            f"{what} must be real, got imaginary part {value.imag:.3e} ({_at(cell, method)})"
        )
    return value.real


def _exact_route(cell: UnitCell1D):
    """Unit field, G, rho and the closed-form solver on the cell partition."""
    one = piecewise_constant(cell, np.ones(len(cell.phases)))
    G, rho, inv_g = (piecewise_constant(cell, cell.values(name)) for name in ("G", "rho", "1/G"))

    def solve(F: PiecewisePoly, r: PiecewisePoly) -> StaticSolve:
        mean_r = r.mean
        if abs(mean_r) > SOLVABILITY_RTOL * max(1.0, r.max_abs()):
            raise SolvabilityError(f"cell source has nonzero mean {mean_r:.3e} ({_at(cell, 'exact')})")
        # flux form: G(u' + F) = R + C with R the zero-mean antiderivative of r
        R = (r - mean_r).antiderivative()
        C = (F.mean - (R * inv_g).mean) / inv_g.mean
        du = (R + C) * inv_g - F
        u = du.antiderivative().zero_mean()
        flux = R + C
        residual = max(u.periodicity_defect(), flux.periodicity_defect())
        return StaticSolve(u=u, flux=flux, residual=residual)

    return one, G, rho, lambda *pairs: [solve(F, r) for F, r in pairs]


def _spectral_route(cell: UnitCell1D, order: int):
    """Unit field, G, rho (to order 2N) and the Galerkin solver at order N."""
    n = int(order)
    op = assemble(cell, 0.0, n)
    G = op.G_hat
    keep = np.arange(op.size) != op.index0
    stiff_red = op.stiffness[np.ix_(keep, keep)]
    # truncation moves the measured source mean of the later solves off
    # zero at the discretization error level, so the gate scales with n
    rtol = max(SOLVABILITY_RTOL, 1.0 / n**2)

    def solve(*pairs: tuple[FourierField, FourierField]) -> list[StaticSolve]:
        """Solves for (F, r) pairs that do not depend on each other, in one factorization."""
        b_red = []
        for F, r in pairs:
            mean_r = r.mean
            if abs(mean_r) > rtol * max(1.0, float(np.sum(np.abs(r.coeffs)))):
                raise SolvabilityError(f"cell source has nonzero mean {mean_r:.3e} ({_at(cell, 'spectral')})")
            # the reduced system drops the mean, so r enters without it
            b_red.append(((G * F).derivative() - r).coeffs[keep])
        c_red = np.linalg.solve(stiff_red, np.stack(b_red, axis=1))
        c = np.zeros((len(pairs), op.size), dtype=complex)
        c[:, keep] = c_red.T
        out = []
        for j, (F, _) in enumerate(pairs):
            u = FourierField(c[j])
            residual = float(
                np.linalg.norm(stiff_red @ c_red[:, j] - b_red[j]) / max(1.0, np.linalg.norm(b_red[j]))
            )
            out.append(StaticSolve(u=u, flux=G * (u.derivative() + F), residual=residual))
        return out

    return FourierField(np.zeros(op.size)) + 1.0, G, op.rho_hat, solve


def solve_static_chain(cell: UnitCell1D, method: str = "exact", order: int = DEFAULT_ORDER) -> StaticCellFunctions:
    """Solve the full corrector chain of a cell.

    Parameters
    ----------
    cell : UnitCell1D
    method : {"exact", "spectral"}
        Piecewise closed-form integration or Fourier Galerkin truncation.
    order : int
        Truncation order for the spectral route, ignored otherwise.
    """
    if method == "exact":
        one, G, rho, solve = _exact_route(cell)
    elif method == "spectral":
        one, G, rho, solve = _spectral_route(cell, order)
    else:
        raise ValidationError(f"unknown method {method!r}, expected 'exact' or 'spectral'")
    zero = one * 0.0
    rho0 = cell.mean("rho")

    # one solve call per level of the chain's dependencies
    chi1, eta0 = solve((one, zero), (zero, (rho - rho0) * (1.0 / rho0)))
    mu0 = _real(chi1.flux.mean, "mu0", cell, method)
    rho_chi1 = rho * chi1.u
    rho1 = _real(rho_chi1.mean, "rho1", cell, method)
    chi2, eta1, alpha1 = solve(
        (chi1.u, rho * (mu0 / rho0) - chi1.flux),
        (eta0.u, rho_chi1 * (1.0 / rho0) - eta0.flux),
        (zero, rho_chi1 - rho1),
    )
    # the dipole-side second corrector solves the same balance law in 1D
    chi2_dip = chi2
    mu1_dip = _real(chi2_dip.flux.mean, "mu1_dip", cell, method)
    chi3, chi3_dip = solve(
        (chi2.u, rho_chi1 * (mu0 / rho0) - chi2.flux),
        (chi2_dip.u, (rho_chi1 - rho1) * (mu0 / rho0) + mu1_dip - chi2_dip.flux),
    )
    order = None if method == "exact" else int(order)
    return StaticCellFunctions(method, order, chi1, chi2, chi3, eta0, eta1, alpha1, chi2_dip, chi3_dip, G, rho)


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

    def mean(field: StaticField, what: str) -> float:
        return _real(field.mean, what, cell, fields.method)

    rho = fields.rho
    rho_chi1 = rho * fields.chi1.u
    return HomogCoefficients(
        rho0=cell.mean("rho"),
        mu0=mean(fields.chi1.flux, "mu0"),
        rho1=mean(rho_chi1, "rho1"),
        mu1=mean(fields.chi2.flux, "mu1"),
        rho2=mean(rho * fields.chi2.u, "rho2"),
        mu2=mean(fields.chi3.flux, "mu2"),
        mu1_dip=mean(fields.chi2_dip.flux, "mu1_dip"),
        mu2_dip=mean(fields.chi3_dip.flux, "mu2_dip"),
        rho2_dip=mean(rho * fields.chi2_dip.u, "rho2_dip"),
        s_g=mean(fields.eta1.flux, "s_g"),
        s_rho=mean(rho * fields.eta0.u, "s_rho"),
        q=mean(rho_chi1 * fields.chi1.u, "q"),
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
    """Positive omega root of the two-scale impedance at fixed k."""
    num = c.mu0 * k**2 - c.mu2 * k**4
    den = c.rho0 - c.rho2 * k**2
    if den <= 0.0 or num < 0.0:
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
    error of the chosen order.
    """
    c = coeffs
    out: dict[str, float] = {}

    solves = fields.solves()
    out["solver_residual"] = max(s.residual for s in solves.values())
    out["zero_mean"] = max(abs(s.u.mean) for s in solves.values())

    # flux of the modulation corrector against the density dipole
    eta0_flux = _real(fields.eta0.flux.mean, "eta0 flux mean", cell, fields.method)
    target = c.rho1 / c.rho0
    out["eta0_flux_matches_density_dipole"] = abs(eta0_flux - target) / max(1.0, abs(target))

    # first-order coefficient identity, exact in 1D
    out["first_order_coefficient_identity"] = abs(c.mu1 - c.rho1 * c.mu0 / c.rho0) / (
        abs(c.mu0) + abs(c.mu1)
    )

    # the unreduced first-order mean equation forces a vanishing correction
    k, w = IDENTITY_PROBE
    ik = 1j * k
    z0 = -c.mu0 * k**2 + c.rho0 * w**2
    if abs(z0) <= MODULATION_FLOOR:
        raise NumericalError(
            f"probe (k, omega) = ({k!r}, {w!r}) sits on the leading-order acoustic cone "
            f"({_at(cell, fields.method)})"
        )
    w0 = -1.0 / z0
    w1 = (-ik * eta0_flux - (c.mu1 * ik**3 + c.rho1 * ik * w**2) * w0) / z0
    out["first_order_mean_vanishes"] = abs(w1) / abs(w0)

    # <G chi1'> equals mu0 - <G> (constant-flux identity)
    g_dchi1 = _real((fields.G * fields.chi1.u.derivative()).mean, "G chi1' mean", cell, fields.method)
    mean_g = cell.mean("G")
    out["first_order_flux_identity"] = abs(g_dchi1 - (c.mu0 - mean_g)) / (abs(c.mu0) + mean_g)

    # static dipole flux against the density-weighted corrector square
    alpha1_flux = _real(fields.alpha1.flux.mean, "alpha1 flux mean", cell, fields.method)
    out["static_dipole_flux_matches_covariance"] = abs(alpha1_flux - c.q) / max(
        abs(c.q), abs(alpha1_flux), 1e-12
    )

    # constant-density companion: eta0 drops out and s_g collapses to q
    companion = UnitCell1D(tuple(Phase(length=p.length, G=p.G, rho=1.0) for p in cell.phases))
    comp_fields, comp = homogenize(companion, method=fields.method, order=fields.order or DEFAULT_ORDER)
    comp_scale = max(abs(comp.q), 1e-12)
    out["constant_density_reduction"] = max(
        abs(comp.s_g - comp.q) / comp_scale,
        abs(comp.s_rho) / comp_scale,
        comp_fields.eta0.u.max_abs(),
    )
    return out
