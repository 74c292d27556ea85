"""Static corrector chain and second-order effective polynomials.

The long-wave low-frequency behaviour of a 1D periodic cell is carried by
a chain of periodic zero-mean correctors, each solving a flux-form balance
law ``(G(u' + F))' = r`` on the cell, and by the coefficient table built
from their averages.  From the table three polynomial observables in
(k, omega) are formed: the fourth-order two-scale impedance, the
modulation factor that multiplies it in the mean-field expansion, and the
dipole mean polynomial.  Every solve runs on two independent routes, exact
piecewise integration on the cell partition and a truncated Fourier
Galerkin system, so each route can certify the other.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from ._piecewise import PiecewisePoly, piecewise_constant
from .errors import NumericalError, SolvabilityError, ValidationError
from .material import FourierField, Phase, UnitCell1D, fourier_coefficients
from .spectral import assemble

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
    modulation and ``alpha1`` the static dipole response.
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

    def solves(self) -> dict[str, StaticSolve]:
        return {
            "chi1": self.chi1,
            "chi2": self.chi2,
            "chi3": self.chi3,
            "eta0": self.eta0,
            "eta1": self.eta1,
            "alpha1": self.alpha1,
            "chi2_dip": self.chi2_dip,
            "chi3_dip": self.chi3_dip,
        }


def _mean(f: StaticField) -> complex:
    return f.mean if isinstance(f, FourierField) else complex(f.mean())


def _max_abs(f: StaticField) -> float:
    if isinstance(f, FourierField):
        x = np.linspace(0.0, 1.0, 512, endpoint=False)
        return float(np.max(np.abs(f(x))))
    return f.max_abs()


def _derivative(f: StaticField) -> StaticField:
    if isinstance(f, FourierField):
        m = np.arange(-f.order, f.order + 1)
        return FourierField(2j * np.pi * m * f.coeffs)
    return f.derivative()


def _real(value: complex, what: str) -> float:
    value = complex(value)
    if abs(value.imag) > 1e-10 * max(1.0, abs(value.real)):
        raise NumericalError(f"{what} must be real, got imaginary part {value.imag:.3e}")
    return value.real


def _convolve_trunc(mat_hat: np.ndarray, u_hat: np.ndarray) -> np.ndarray:
    """Coefficients of (material * field) truncated to the order of the field."""
    n = (u_hat.size - 1) // 2
    out = np.convolve(mat_hat, u_hat)
    mid = out.size // 2
    return out[mid - n : mid + n + 1]


def _weighted_mean(cell: UnitCell1D, field: str, u: StaticField) -> complex:
    """<field * u> on the route of ``u``."""
    if isinstance(u, FourierField):
        hat = fourier_coefficients(cell, field, u.order).coeffs
        return complex(np.dot(hat[::-1], u.coeffs))
    w = piecewise_constant(cell, cell.values(field))
    return complex((w * u).mean())


def _weighted_pair_mean(cell: UnitCell1D, field: str, u1: StaticField, u2: StaticField) -> complex:
    """<field * u1 * u2> on the route of the fields."""
    if isinstance(u1, FourierField):
        hat = fourier_coefficients(cell, field, 2 * u1.order).coeffs
        w = _convolve_trunc(hat, u1.coeffs)
        return complex(np.dot(w[::-1], u2.coeffs))
    w = piecewise_constant(cell, cell.values(field))
    return complex((w * u1 * u2).mean())


def _exact_chain(cell: UnitCell1D) -> dict[str, StaticSolve]:
    inv_g = piecewise_constant(cell, 1.0 / cell.values("G"))
    rho = piecewise_constant(cell, cell.values("rho"))
    nphase = len(cell.phases)
    ones = piecewise_constant(cell, np.ones(nphase))
    zeros = piecewise_constant(cell, np.zeros(nphase))
    rho0 = cell.mean("rho")

    def solve(F: PiecewisePoly, r: PiecewisePoly) -> StaticSolve:
        mean_r = complex(r.mean())
        if abs(mean_r) > SOLVABILITY_RTOL * max(1.0, r.max_abs()):
            raise SolvabilityError(f"cell source has nonzero mean {mean_r:.3e}")
        # flux form: G(u' + F) = R + C with R the zero-mean antiderivative of r
        R = (r - mean_r).antiderivative(0.0)
        C = (complex(F.mean()) - complex((R * inv_g).mean())) / complex(inv_g.mean())
        du = (R + C) * inv_g - F
        u = du.antiderivative(0.0).zero_mean()
        flux = R + C
        residual = max(u.periodicity_defect(), flux.periodicity_defect())
        return StaticSolve(u=u, flux=flux, residual=residual)

    chi1 = solve(ones, zeros)
    mu0 = _real(chi1.flux.mean(), "mu0")
    eta0 = solve(zeros, (rho - rho0) * (1.0 / rho0))
    chi2 = solve(chi1.u, rho * (mu0 / rho0) - chi1.flux)
    # the dipole-side second corrector solves the same balance law in 1D
    chi2_dip = chi2
    rho1 = _real((rho * chi1.u).mean(), "rho1")
    mu1_dip = _real(chi2_dip.flux.mean(), "mu1_dip")
    chi3 = solve(chi2.u, rho * chi1.u * (mu0 / rho0) - chi2.flux)
    eta1 = solve(eta0.u, rho * chi1.u * (1.0 / rho0) - eta0.flux)
    alpha1 = solve(zeros, rho * chi1.u - rho1)
    chi3_dip = solve(
        chi2_dip.u,
        (rho * chi1.u - rho1) * (mu0 / rho0) + mu1_dip - chi2_dip.flux,
    )
    return {
        "chi1": chi1,
        "chi2": chi2,
        "chi3": chi3,
        "eta0": eta0,
        "eta1": eta1,
        "alpha1": alpha1,
        "chi2_dip": chi2_dip,
        "chi3_dip": chi3_dip,
    }


def _spectral_chain(cell: UnitCell1D, order: int) -> dict[str, StaticSolve]:
    n = int(order)
    m = np.arange(-n, n + 1)
    ik_m = 2j * np.pi * m
    center = n
    g2 = fourier_coefficients(cell, "G", 2 * n).coeffs
    rho2 = fourier_coefficients(cell, "rho", 2 * n).coeffs
    rho_hat = rho2[n : 3 * n + 1]
    rho0 = cell.mean("rho")

    op = assemble(cell, 0.0, n)
    keep = np.arange(op.size) != op.index0
    stiff_red = op.stiffness[np.ix_(keep, keep)]
    lu = lu_factor(stiff_red)

    e0 = np.zeros(2 * n + 1, dtype=complex)
    e0[center] = 1.0
    zeros = np.zeros(2 * n + 1, dtype=complex)
    # truncation moves the measured source mean of the later solves off
    # zero at the discretization error level, so the gate scales with n
    rtol = max(SOLVABILITY_RTOL, 1.0 / n**2)

    def solve(F: np.ndarray, r: np.ndarray) -> StaticSolve:
        mean_r = complex(r[center])
        if abs(mean_r) > rtol * max(1.0, float(np.sum(np.abs(r)))):
            raise SolvabilityError(f"cell source has nonzero mean {mean_r:.3e}")
        b = ik_m * _convolve_trunc(g2, F) - (r - mean_r * e0)
        b_red = b[keep]
        c_red = lu_solve(lu, b_red)
        c = np.zeros(2 * n + 1, dtype=complex)
        c[keep] = c_red
        residual = float(
            np.linalg.norm(stiff_red @ c_red - b_red) / max(1.0, np.linalg.norm(b_red))
        )
        flux = _convolve_trunc(g2, ik_m * c + F)
        return StaticSolve(u=FourierField(c), flux=FourierField(flux), residual=residual)

    chi1 = solve(e0, zeros)
    mu0 = _real(chi1.flux.mean, "mu0")
    eta0 = solve(zeros, (rho_hat - rho0 * e0) / rho0)
    chi2 = solve(chi1.u.coeffs, (mu0 / rho0) * rho_hat - chi1.flux.coeffs)
    chi2_dip = chi2
    rho1 = _real(np.dot(rho_hat[::-1], chi1.u.coeffs), "rho1")
    mu1_dip = _real(chi2_dip.flux.mean, "mu1_dip")
    rho_chi1 = _convolve_trunc(rho2, chi1.u.coeffs)
    chi3 = solve(chi2.u.coeffs, (mu0 / rho0) * rho_chi1 - chi2.flux.coeffs)
    eta1 = solve(eta0.u.coeffs, rho_chi1 / rho0 - eta0.flux.coeffs)
    alpha1 = solve(zeros, rho_chi1 - rho1 * e0)
    chi3_dip = solve(
        chi2_dip.u.coeffs,
        (mu0 / rho0) * (rho_chi1 - rho1 * e0) + mu1_dip * e0 - chi2_dip.flux.coeffs,
    )
    return {
        "chi1": chi1,
        "chi2": chi2,
        "chi3": chi3,
        "eta0": eta0,
        "eta1": eta1,
        "alpha1": alpha1,
        "chi2_dip": chi2_dip,
        "chi3_dip": chi3_dip,
    }


def solve_static_chain(cell: UnitCell1D, method: str = "exact", order: int = 128) -> StaticCellFunctions:
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
        return StaticCellFunctions(method=method, order=None, **_exact_chain(cell))
    if method == "spectral":
        return StaticCellFunctions(method=method, order=int(order), **_spectral_chain(cell, order))
    raise ValidationError(f"unknown method {method!r}, expected 'exact' or 'spectral'")


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
    return HomogCoefficients(
        rho0=cell.mean("rho"),
        mu0=_real(_mean(fields.chi1.flux), "mu0"),
        rho1=_real(_weighted_mean(cell, "rho", fields.chi1.u), "rho1"),
        mu1=_real(_mean(fields.chi2.flux), "mu1"),
        rho2=_real(_weighted_mean(cell, "rho", fields.chi2.u), "rho2"),
        mu2=_real(_mean(fields.chi3.flux), "mu2"),
        mu1_dip=_real(_mean(fields.chi2_dip.flux), "mu1_dip"),
        mu2_dip=_real(_mean(fields.chi3_dip.flux), "mu2_dip"),
        rho2_dip=_real(_weighted_mean(cell, "rho", fields.chi2_dip.u), "rho2_dip"),
        s_g=_real(_mean(fields.eta1.flux), "s_g"),
        s_rho=_real(_weighted_mean(cell, "rho", fields.eta0.u), "s_rho"),
        q=_real(_weighted_pair_mean(cell, "rho", fields.chi1.u, fields.chi1.u), "q"),
    )


def homogenize(cell: UnitCell1D, method: str = "exact", order: int = 128) -> tuple[StaticCellFunctions, HomogCoefficients]:
    """Chain plus coefficient table in one call."""
    fields = solve_static_chain(cell, method=method, order=order)
    return fields, coefficients(cell, fields)


# ---------------------------------------------------------------------------
# polynomial observables


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
        if np.any(np.abs(m2) <= MODULATION_FLOOR * m2_scale):
            raise NumericalError("modulation factor vanishes, impedance undefined")
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
        if np.any(np.abs(den) <= MODULATION_FLOOR * (np.abs(w0) + np.abs(w2))):
            raise NumericalError("mean-field expansion denominator vanishes")
        return np.where(on_cone, 0.0, 1.0 / den)[()]
    raise ValidationError(f"unknown route {route!r}, expected 'modulated' or 'mean'")


def two_scale_root(c: HomogCoefficients, k: float) -> float:
    """Positive omega root of the two-scale impedance at fixed k."""
    num = c.mu0 * k**2 - c.mu2 * k**4
    den = c.rho0 - c.rho2 * k**2
    if den <= 0.0 or num < 0.0:
        raise NumericalError(f"two-scale branch terminates before k = {k:.6g}")
    return float(np.sqrt(num / den))


# ---------------------------------------------------------------------------
# identity suite


def identity_suite(
    cell: UnitCell1D,
    fields: StaticCellFunctions,
    coeffs: HomogCoefficients,
    khat_what: tuple[float, float] = (1.0, 0.3),
) -> dict[str, float]:
    """Named relative residuals certifying the static chain.

    Every entry vanishes for the continuum problem; on the exact route the
    residuals sit at roundoff, on the spectral route at the truncation
    error of the chosen order.
    """
    c = coeffs
    out: dict[str, float] = {}

    solves = fields.solves()
    out["solver_residual"] = max(s.residual for s in solves.values())
    out["zero_mean"] = max(abs(_mean(s.u)) for s in solves.values())

    # flux of the modulation corrector against the density dipole
    eta0_flux = _real(_mean(fields.eta0.flux), "eta0 flux mean")
    target = c.rho1 / c.rho0
    out["eta0_flux_matches_density_dipole"] = abs(eta0_flux - target) / max(1.0, abs(target))

    # first-order coefficient identity, exact in 1D
    out["first_order_coefficient_identity"] = abs(c.mu1 - c.rho1 * c.mu0 / c.rho0) / (
        abs(c.mu0) + abs(c.mu1)
    )

    # the unreduced first-order mean equation forces a vanishing correction
    k, w = khat_what
    ik = 1j * k
    z0 = -c.mu0 * k**2 + c.rho0 * w**2
    if abs(z0) <= MODULATION_FLOOR:
        raise NumericalError("probe point sits on the leading-order acoustic cone")
    w0 = -1.0 / z0
    w1 = (-ik * eta0_flux - (c.mu1 * ik**3 + c.rho1 * ik * w**2) * w0) / z0
    out["first_order_mean_vanishes"] = abs(w1) / abs(w0)

    # <G chi1'> equals mu0 - <G> (constant-flux identity)
    g_dchi1 = _real(_weighted_mean(cell, "G", _derivative(fields.chi1.u)), "G chi1' mean")
    mean_g = cell.mean("G")
    out["first_order_flux_identity"] = abs(g_dchi1 - (c.mu0 - mean_g)) / (abs(c.mu0) + mean_g)

    # static dipole flux against the density-weighted corrector square
    alpha1_flux = _real(_mean(fields.alpha1.flux), "alpha1 flux mean")
    out["static_dipole_flux_matches_covariance"] = abs(alpha1_flux - c.q) / max(
        abs(c.q), abs(alpha1_flux), 1e-12
    )

    # constant-density companion: eta0 drops out and s_g collapses to q
    companion = UnitCell1D(
        tuple(Phase(length=p.length, G=p.G, rho=1.0) for p in cell.phases)
    )
    comp_fields, comp = homogenize(companion, method=fields.method, order=fields.order or 128)
    comp_scale = max(abs(comp.q), 1e-12)
    out["constant_density_reduction"] = max(
        abs(comp.s_g - comp.q) / comp_scale,
        abs(comp.s_rho) / comp_scale,
        _max_abs(comp_fields.eta0.u),
    )
    return out
