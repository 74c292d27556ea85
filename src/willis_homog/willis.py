"""Exact effective description of the cell at one (k, omega).

The mean monopole response fixes the effective impedance Z = 1/<w>.  The
four constitutive parameters (effective density, stiffness and the two
coupling coefficients) are assembled from the six averages of the monopole
and dipole responses, read off their two ``CellResponse`` records, along two
algebraically equivalent routes:

* ``direct``    - the parameters as read off the mean-field representation;
* ``symmetric`` - the same after eliminating mixed averages through the
  mean identities, which makes the density and stiffness manifestly real
  and the couplings conjugate-opposite.

Route agreement, the parameter symmetries, and the reconstruction of the
impedance from the parameters are the module's cross-checks; all of them
hold at roundoff on the closed-form route and at truncation level on the
spectral route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cell_functions import CellResponse, _require_nonzero_k, responses
from .errors import ValidationError, ZeroMeanImpedanceError
from .exact import _LOADS, monopole_adjugate
from .material import UnitCell1D, _require_finite, cell_digest
from .spectral import DEFAULT_ORDER, BlochEigensystem

__all__ = [
    "EffectiveParameters",
    "VisibilityReport",
    "effective_impedance",
    "effective_parameters",
    "impedance_from_parameters",
    "impedance_reconstruction_residual",
    "classify_visibility",
    "parameters_from_averages",
    "dynamic_identity_residuals",
    "require_identity_point",
]

#: <w> is treated as zero where |<w>| (<G> k^2 + <rho> omega^2) is below this
ZERO_MEAN_TOL = 1e-12

#: visibility threshold on |<phi_j>| sqrt(rho0): a rho-orthonormal mode has the
#: unit rho^-1/2, and sqrt(rho0) puts its mean (and its dipole load) in the cell's
VISIBILITY_TOL = 1e-6

ROUTES = ("direct", "symmetric")


@dataclass(frozen=True)
class EffectiveParameters:
    """Willis constitutive parameters at one (k, omega)."""

    k: float
    omega: float
    density: complex
    stiffness: complex
    coupling_strain: complex
    coupling_velocity: complex
    route: str

    def sizes(self) -> dict[str, float]:
        """|rho|, |C|, and for each coupling max(|S1|, |S2|) floored at sqrt(|rho| |C|): a
        coupling has the units of sqrt(G rho) (Z = k^2 C + k omega (S + conj S) - omega^2 rho),
        so a change of units (G, rho) -> (a G, b rho) scales each parameter and its size alike.
        Every size is floored at 1e-30."""
        rho, C = (max(abs(p), 1e-30) for p in (self.density, self.stiffness))
        coupling = max(abs(self.coupling_strain), abs(self.coupling_velocity), np.sqrt(rho) * np.sqrt(C))
        return {"density": rho, "stiffness": C, "coupling_strain": coupling, "coupling_velocity": coupling}

    def symmetry_residuals(self) -> dict[str, float]:
        """Deviations from the exact parameter symmetries, each relative to its parameter's size."""
        size = self.sizes()
        return {
            "density_real": abs(self.density.imag) / size["density"],
            "stiffness_real": abs(self.stiffness.imag) / size["stiffness"],
            "couplings_conjugate": abs(self.coupling_strain + np.conj(self.coupling_velocity)) / size["coupling_strain"],
        }


@dataclass(frozen=True)
class VisibilityReport:
    """Visibility classification of one Bloch branch."""

    branch: int
    cluster: tuple[int, ...]
    eigenvalue: float
    mode_means: tuple[complex, ...]
    dipole_projections: tuple[complex, ...]
    visible: bool
    dipole_solvable: bool
    parameter_behavior: str

    @property
    def classification(self) -> str:
        return "Visible" if self.visible else "Invisible"


def impedance_from_mean(mean_w: complex, cell: UnitCell1D, k: float, omega: float, det: complex = 1.0) -> complex:
    """Z = det/N for N = ``mean_w`` = det <w> (1/<w> at det = 1); ZeroMeanImpedanceError
    where <w> is numerically zero against the inverse of the cell's size for an
    impedance (``UnitCell1D.impedance_scale``); ValidationError where that scale overflows."""
    scale = cell.impedance_scale(k, omega)
    if scale == np.inf:
        raise ValidationError(f"<G> k^2 + <rho> omega^2 must be finite at (k, omega) = ({k!r}, {omega!r})")
    if abs(mean_w) * scale <= ZERO_MEAN_TOL * abs(det):
        raise ZeroMeanImpedanceError(
            f"<w> = {mean_w / det:.3e} is numerically zero at (k, omega) = ({k!r}, {omega!r}) "
            f"on cell {cell_digest(cell)}; the effective impedance is undefined there"
        )
    return det / mean_w


def effective_impedance(
    cell: UnitCell1D,
    k: float,
    omega: float,
    method: str = "exact",
    order: int = DEFAULT_ORDER,
) -> complex:
    """Z = 1/<w>; the imaginary part is a diagnostic and should sit at roundoff.

    Only the monopole response w is solved, on either route; the exact route
    forms Z = det/N (:func:`~willis_homog.exact.monopole_adjugate`).  A
    non-finite k or omega, or an unknown method, raises ValidationError.
    """
    if method == "exact":
        det, n = monopole_adjugate(cell, k, omega)
        return impedance_from_mean(n, cell, k, omega, det)
    (w,) = responses(cell, k, omega, ("monopole",), method, order)
    return impedance_from_mean(complex(w.mean), cell, k, omega)


def parameters_from_averages(
    cell: UnitCell1D, w: CellResponse, v: CellResponse, k: float, omega: float, route: str = "symmetric"
) -> EffectiveParameters:
    """Constitutive parameters from the monopole and dipole responses w, v of ``cell``.

    The ``direct`` route uses their six averages as they appear in the
    mean-field representation; the ``symmetric`` route substitutes the mean
    identities first.  Both must agree to the accuracy of the averages.  The
    dipole's ``mean_flux`` is its own flux <G (D_k v - 1)>, so <G> cancels.
    """
    if route not in ROUTES:
        raise ValidationError(f"route must be one of {ROUTES}, got {route!r}")
    _require_parameter_point(k, omega)
    Z = impedance_from_mean(w.mean, cell, k, omega)
    mv, mrw, mrv, mfw, mfv = v.mean, w.mean_rho, v.mean_rho, w.mean_flux, v.mean_flux
    ik, iom = 1j * k, 1j * omega
    if route == "direct":
        density = Z * mrw * (1.0 - ik * mv) + ik * mrv
        stiffness = Z * mfw * mv - mfv
        coupling_strain = -(Z / iom) * mfw * (1.0 - ik * mv) - (ik / iom) * mfv
        coupling_velocity = iom * (mrv - Z * mrw * mv)
    else:
        density = -(omega**2) * Z * abs(mrw) ** 2 + ik * mrv
        stiffness = Z * abs(mv) ** 2 - mfv
        coupling_velocity = iom * (mrv - Z * mrw * mv)
        coupling_strain = -np.conj(coupling_velocity)
    return EffectiveParameters(
        k=float(k),
        omega=float(omega),
        density=density,
        stiffness=stiffness,
        coupling_strain=coupling_strain,
        coupling_velocity=coupling_velocity,
        route=route,
    )


def effective_parameters(
    cell: UnitCell1D,
    k: float,
    omega: float,
    route: str = "symmetric",
    method: str = "exact",
    order: int = DEFAULT_ORDER,
) -> EffectiveParameters:
    """The Willis parameters of ``cell`` at (k, omega); the point is checked before any solve."""
    _require_parameter_point(k, omega)
    w, v = responses(cell, k, omega, ("monopole", "dipole"), method, order)
    return parameters_from_averages(cell, w, v, k, omega, route)


def impedance_from_parameters(p: EffectiveParameters) -> complex:
    """Rebuild the impedance from the constitutive parameters.

    Z = -(ik) C (ik) - ik (S2 + conj S2) i omega - omega^2 rho; must equal
    1/<w> at every admissible point.
    """
    k, omega = p.k, p.omega
    coupling = p.coupling_velocity + np.conj(p.coupling_velocity)
    return (
        k**2 * p.stiffness + k * omega * coupling - omega**2 * p.density
    )


def impedance_reconstruction_residual(p: EffectiveParameters, z: complex) -> float:
    """|Z(p) - z| relative to the size of the terms of Z(p).

    The terms k^2 C, k omega (S2 + conj S2) and omega^2 rho cancel on a
    Bloch branch, where Z vanishes, so the residual is scaled by
    k^2 |C| + |k omega| |S2 + conj S2| + omega^2 |rho| >= |Z(p)|, not by |z|.
    """
    k, omega = p.k, p.omega
    terms = (
        k**2 * abs(p.stiffness)
        + abs(k * omega) * abs(p.coupling_velocity + np.conj(p.coupling_velocity))
        + omega**2 * abs(p.density)
    )
    return float(abs(impedance_from_parameters(p) - z) / max(terms, 1e-30))


def classify_visibility(eigensystem: BlochEigensystem, branch: int) -> VisibilityReport:
    """Visibility of one branch from the means of its eigencluster.

    A branch is visible when some mode of its (near-degenerate) cluster has
    a nonzero cell mean; only visible branches appear as impedance zeros.
    Invisible clusters additionally report whether the dipole load is
    orthogonal to them, which is what keeps the constitutive parameters
    continuous through the eigenvalue.
    """
    lam = eigensystem.eigenvalues
    if not 0 <= branch < lam.size:
        raise ValidationError(f"branch {branch} outside computed spectrum")
    cluster = eigensystem.cluster(branch)
    means = tuple(complex(m) for m in eigensystem.means[cluster])
    load = eigensystem.operator.load(_LOADS["dipole"])
    dips = tuple(complex(d) for d in eigensystem.projection(load)[cluster])
    unit = np.sqrt(eigensystem.operator.cell.scales["rho"])
    visible = max(abs(m) for m in means) * unit > VISIBILITY_TOL
    load_scale = max(np.linalg.norm(load), 1e-30)
    solvable = max(abs(d) for d in dips) * unit <= VISIBILITY_TOL * load_scale
    if not visible and solvable:
        behavior = "continuous"
    elif visible and len(cluster) == 1:
        behavior = "cancellation"
    else:
        behavior = "degenerate"
    return VisibilityReport(
        branch=int(branch),
        cluster=tuple(int(j) for j in cluster),
        eigenvalue=float(lam[branch]),
        mode_means=means,
        dipole_projections=dips,
        visible=bool(visible),
        dipole_solvable=bool(solvable),
        parameter_behavior=behavior,
    )


def _require_parameter_point(k: float, omega: float) -> None:
    """The domain of the Willis parameters: k and omega with finite squares, then omega != 0
    (else ValidationError).  They are defined at k = 0 (mod 2 pi); the identities are not."""
    _require_finite(k=k, omega=omega)
    if omega == 0:
        raise ValidationError(f"the Willis parameters need omega != 0, got {omega!r}")


def require_identity_point(cell: UnitCell1D, k: float, omega: float) -> None:
    """The domain of the dynamic identities: the Willis parameters' (finite squares, then
    omega != 0; else ValidationError), then k != 0 (mod 2 pi) (else ResonanceError)."""
    _require_parameter_point(k, omega)
    _require_nonzero_k(cell, k)


def dynamic_identity_residuals(
    cell: UnitCell1D,
    k: float,
    omega: float,
    method: str = "exact",
    order: int = DEFAULT_ORDER,
) -> dict[str, float]:
    """Named relative residuals of the exact mean-value identities.

    Covers: realness of the dipole's mean flux <G (D_k v - 1)>; the three
    mean identities tying the dipole averages to the conjugated monopole
    averages; the parameter symmetries; agreement of the two parameter
    routes; and reconstruction of the impedance from the parameters.  The
    mean balances of the w and v equations through the static dipole
    zeta = -i/k are sums of these: with e1, e2, e3 the numerators of the
    dipole, monopole-flux and flux identities, <G D_k w> - i/k - omega^2 (i/k)
    <rho w> = e2 + (i/k) conj(e1) and <G (D_k v - 1)> - omega^2 (i/k) <rho v>
    = (i/k) conj(e3) + 2i Im <G (D_k v - 1)>.  The point is checked before any
    solve (:func:`require_identity_point`).  The dipole's flux vanishes with
    omega, so the checks dividing by it floor it at mu_h.
    """
    require_identity_point(cell, k, omega)
    w, v = responses(cell, k, omega, ("monopole", "dipole"), method, order)
    mw, mv, mrw, mrv, mfw, mfv = w.mean, v.mean, w.mean_rho, v.mean_rho, w.mean_flux, v.mean_flux
    ik, om2, mu_h = 1j * k, omega**2, cell.scales["G"]

    res: dict[str, float] = {}
    res["cross_coupling_real"] = abs(mfv.imag) / max(abs(mfv), mu_h)
    res["mean_identity_dipole"] = abs(ik * mv - 1.0 - om2 * np.conj(mrw)) / max(abs(ik * mv), 1.0)
    res["mean_identity_flux"] = abs(ik * mfv - om2 * np.conj(mrv)) / (abs(k) * max(abs(mfv), mu_h))
    res["mean_identity_monopole_flux"] = abs(mfw - np.conj(mv)) / max(abs(mv), 1e-30)

    p_direct = parameters_from_averages(cell, w, v, k, omega, "direct")
    p_sym = parameters_from_averages(cell, w, v, k, omega, "symmetric")
    res["route_agreement"] = max(
        abs(getattr(p_direct, f) - getattr(p_sym, f)) / size for f, size in p_sym.sizes().items()
    )
    for name, value in p_direct.symmetry_residuals().items():
        res[f"symmetry_{name}"] = value
    Z = impedance_from_mean(mw, cell, k, omega)
    for label, p in (("direct", p_direct), ("symmetric", p_sym)):
        res[f"impedance_reconstruction_{label}"] = impedance_reconstruction_residual(p, Z)
    return res
