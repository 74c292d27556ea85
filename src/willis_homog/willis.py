"""Exact effective description of the cell at one (k, omega).

The mean monopole response fixes the effective impedance Z = 1/<w>.  The
four constitutive parameters (effective density, stiffness and the two
coupling coefficients) are assembled from seven cell averages along two
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

from .cell_functions import averages, responses
from .errors import ValidationError, ZeroMeanImpedanceError
from .material import UnitCell1D, cell_digest
from .spectral import DEFAULT_ORDER, BlochEigensystem

__all__ = [
    "EffectiveParameters",
    "MeanFields",
    "VisibilityReport",
    "effective_impedance",
    "effective_parameters",
    "impedance_from_parameters",
    "impedance_reconstruction_residual",
    "mean_fields",
    "classify_visibility",
    "parameters_from_averages",
    "dynamic_identity_residuals",
]

#: |<w>| below this is treated as a zero-mean cell response
ZERO_MEAN_TOL = 1e-12

#: visibility threshold on |<phi_j>|
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

    def symmetry_residuals(self) -> dict[str, float]:
        """Deviations from the exact parameter symmetries (relative)."""
        scale = max(abs(self.density), abs(self.stiffness), 1e-30)
        cscale = max(abs(self.coupling_strain), abs(self.coupling_velocity), scale)
        return {
            "density_real": abs(self.density.imag) / max(abs(self.density), 1e-30),
            "stiffness_real": abs(self.stiffness.imag) / max(abs(self.stiffness), 1e-30),
            "couplings_conjugate": abs(self.coupling_strain + np.conj(self.coupling_velocity))
            / cscale,
        }


@dataclass(frozen=True)
class MeanFields:
    """Mean strain, velocity, stress and momentum for loads (f, gamma)."""

    k: float
    omega: float
    f: complex
    gamma: complex
    mean_u: complex
    strain: complex
    velocity: complex
    stress: complex
    momentum: complex

    def balance_residual(self) -> float:
        """|(-i omega) momentum - ik stress - f| over the load scale."""
        lhs = -1j * self.omega * self.momentum - 1j * self.k * self.stress
        return abs(lhs - self.f) / max(abs(self.f), abs(self.gamma), 1e-30)


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


def impedance_from_mean(mean_w: complex, cell: UnitCell1D, k: float, omega: float) -> complex:
    """Z = 1/<w>; ZeroMeanImpedanceError where <w> is numerically zero."""
    if abs(mean_w) <= ZERO_MEAN_TOL:
        raise ZeroMeanImpedanceError(
            f"<w> = {mean_w:.3e} is numerically zero at (k, omega) = ({k!r}, {omega!r}) "
            f"on cell {cell_digest(cell)}; the effective impedance is undefined there"
        )
    return 1.0 / mean_w


def effective_impedance(
    cell: UnitCell1D,
    k: float,
    omega: float,
    method: str = "exact",
    order: int = DEFAULT_ORDER,
) -> complex:
    """Z = 1/<w>; the imaginary part is a diagnostic and should sit at roundoff.

    Only the monopole response w is solved, on either route.
    """
    (w,) = responses(cell, k, omega, ("monopole",), method, order)
    return impedance_from_mean(complex(w.mean), cell, k, omega)


def parameters_from_averages(
    cell: UnitCell1D, avg: dict[str, complex], k: float, omega: float, route: str = "symmetric"
) -> EffectiveParameters:
    """Constitutive parameters from the seven cell averages of ``cell``.

    The ``direct`` route uses the averages as they appear in the mean-field
    representation; the ``symmetric`` route substitutes the mean identities
    first.  Both must agree to the accuracy of the averages.
    """
    if route not in ROUTES:
        raise ValidationError(f"route must be one of {ROUTES}, got {route!r}")
    if omega == 0:
        raise ValidationError("constitutive parameters need omega != 0")
    Z = impedance_from_mean(avg["mean_w"], cell, k, omega)
    mw, mv = avg["mean_w"], avg["mean_v"]
    mrw, mrv = avg["mean_rho_w"], avg["mean_rho_v"]
    mfw, mfv = avg["mean_G_dkw"], avg["mean_G_dkv"]
    mG = avg["mean_G"]
    ik, iom = 1j * k, 1j * omega
    if route == "direct":
        density = Z * mrw * (1.0 - ik * mv) + ik * mrv
        stiffness = mG + Z * mfw * mv - mfv
        coupling_strain = (
            (ik / iom) * mG - (Z / iom) * mfw * (1.0 - ik * mv) - (ik / iom) * mfv
        )
        coupling_velocity = iom * (mrv - Z * mrw * mv)
    else:
        density = -(omega**2) * Z * abs(mrw) ** 2 + ik * mrv
        stiffness = mG + Z * abs(mv) ** 2 - mfv
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
    w, v = responses(cell, k, omega, ("monopole", "dipole"), method, order)
    return parameters_from_averages(cell, averages(w, v, cell), k, omega, route)


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


def mean_fields(
    cell: UnitCell1D,
    k: float,
    omega: float,
    f: complex,
    gamma: complex,
    method: str = "exact",
    order: int = DEFAULT_ORDER,
) -> MeanFields:
    """Mean kinematic and dynamic fields for constant loads (f, gamma)."""
    w, v = responses(cell, k, omega, ("monopole", "dipole"), method, order)
    avg = averages(w, v, cell)
    mu = f * avg["mean_w"] + gamma * avg["mean_v"]
    stress = f * avg["mean_G_dkw"] + gamma * avg["mean_G_dkv"] - gamma * avg["mean_G"]
    momentum = -1j * omega * (f * avg["mean_rho_w"] + gamma * avg["mean_rho_v"])
    return MeanFields(
        k=float(k),
        omega=float(omega),
        f=complex(f),
        gamma=complex(gamma),
        mean_u=mu,
        strain=1j * k * mu,
        velocity=-1j * omega * mu,
        stress=stress,
        momentum=momentum,
    )


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
    dip = eigensystem.projection(eigensystem.operator.dipole_load())
    dips = tuple(complex(d) for d in dip[cluster])
    visible = max(abs(m) for m in means) > VISIBILITY_TOL
    load_scale = max(np.linalg.norm(eigensystem.operator.dipole_load()), 1e-30)
    solvable = max(abs(d) for d in dips) <= VISIBILITY_TOL * load_scale
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


def dynamic_identity_residuals(
    cell: UnitCell1D,
    k: float,
    omega: float,
    method: str = "exact",
    order: int = DEFAULT_ORDER,
) -> dict[str, float]:
    """Named relative residuals of the exact mean-value identities.

    Covers: realness of <G D_k v>; the three mean identities tying the
    dipole averages to the conjugated monopole averages; the parameter
    symmetries; agreement of the two parameter routes; reconstruction of
    the impedance from the parameters; and the static-dipole (cell-basis)
    expressions for both flux averages.
    """
    w, v, zeta = responses(cell, k, omega, ("monopole", "dipole", "static_dipole"), method, order)
    avg = averages(w, v, cell)
    mw, mv = avg["mean_w"], avg["mean_v"]
    mrw, mrv = avg["mean_rho_w"], avg["mean_rho_v"]
    mfw, mfv = avg["mean_G_dkw"], avg["mean_G_dkv"]
    mG = avg["mean_G"]
    ik, om2 = 1j * k, omega**2

    res: dict[str, float] = {}
    res["cross_coupling_real"] = abs(mfv.imag) / max(abs(mfv), 1e-30)
    res["mean_identity_dipole"] = abs(ik * mv - 1.0 - om2 * np.conj(mrw)) / max(
        abs(ik * mv), 1.0
    )
    res["mean_identity_flux"] = abs(
        ik * mfv - ik * mG - om2 * np.conj(mrv)
    ) / max(abs(ik * mfv), 1.0)
    res["mean_identity_monopole_flux"] = abs(mfw - np.conj(mv)) / max(abs(mv), 1e-30)

    p_direct = parameters_from_averages(cell, avg, k, omega, "direct")
    p_sym = parameters_from_averages(cell, avg, k, omega, "symmetric")
    scale = max(abs(p_sym.density), abs(p_sym.stiffness), 1e-30)
    res["route_agreement"] = (
        max(
            abs(p_direct.density - p_sym.density),
            abs(p_direct.stiffness - p_sym.stiffness),
            abs(p_direct.coupling_strain - p_sym.coupling_strain),
            abs(p_direct.coupling_velocity - p_sym.coupling_velocity),
        )
        / scale
    )
    for name, value in p_direct.symmetry_residuals().items():
        res[f"symmetry_{name}"] = value
    Z = impedance_from_mean(mw, cell, k, omega)
    for label, p in (("direct", p_direct), ("symmetric", p_sym)):
        res[f"impedance_reconstruction_{label}"] = impedance_reconstruction_residual(p, Z)

    # flux averages through the static dipole response
    res["cell_basis_monopole"] = abs(
        mfw - np.conj(zeta.mean) - om2 * w.mean_rho_conj(zeta)
    ) / max(abs(mfw), 1e-30)
    res["cell_basis_dipole"] = abs(
        mfv - np.conj(zeta.mean_flux) - om2 * v.mean_rho_conj(zeta)
    ) / max(abs(mfv), 1e-30)
    return res
