from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from willis_homog import asymptotics, spectral
from willis_homog.asymptotics import (
    HomogCoefficients,
    StaticCellFunctions,
    StaticSolve,
    coefficients,
    dipole_mean_n2,
    homogenize,
    identity_suite,
    modulation_m2,
    solve_static_chain,
    two_scale_impedance,
    two_scale_root,
    willis_impedance_order2,
)
from willis_homog.errors import NumericalError, ValidationError
from willis_homog.material import (
    FourierField,
    Phase,
    UnitCell1D,
    bilaminate,
    cell_digest,
    fourier_coefficients,
    homogeneous,
)
from willis_homog.spectral import assemble
from willis_homog.willis import effective_impedance

BILAMINATE = bilaminate(0.1, 0.1)

# frozen closed-form coefficients of bilaminate(0.1, 0.1); rho0, mu0, rho2,
# s_rho, q are the rationals 11/20, 2/11, -27/1760, -27/640 and 81/121*1.1/96
EXPECTED = {
    "rho0": 0.55,
    "mu0": 2.0 / 11.0,
    "rho1": 0.0,
    "mu1": 0.0,
    "rho2": -27.0 / 1760.0,
    "mu2": 0.00507137490608565,
    "mu1_dip": 0.0,
    "mu2_dip": 0.00507137490608565,
    "rho2_dip": -27.0 / 1760.0,
    "s_g": 27.0 / 968.0,
    "s_rho": -27.0 / 640.0,
    "q": 81.0 / 121.0 * 1.1 / 96.0,
}


def test_exact_coefficients_match_frozen_table() -> None:
    _, coeffs = homogenize(BILAMINATE, method="exact")
    for name, expected in EXPECTED.items():
        got = coeffs.to_dict()[name]
        assert abs(got - expected) < 1e-12 * max(1.0, abs(expected)), name


def test_first_corrector_boundary_value() -> None:
    fields = solve_static_chain(BILAMINATE, method="exact")
    # u(0) is the first segment's constant coefficient (local coordinate x - x_0)
    assert_allclose(fields.chi1.u.coeffs[0, 0], 9.0 / 44.0, rtol=1e-13)
    assert abs(fields.chi1.u.mean) < 1e-15


def test_uniform_cell_higher_coefficients_vanish() -> None:
    _, coeffs = homogenize(homogeneous(1.7, 0.8), method="exact")
    assert_allclose(coeffs.rho0, 0.8, rtol=1e-14)
    assert_allclose(coeffs.mu0, 1.7, rtol=1e-14)
    for name in ("rho1", "mu1", "rho2", "mu2", "s_g", "s_rho", "q"):
        assert abs(coeffs.to_dict()[name]) < 1e-13, name


def test_uniform_cell_polynomials_reduce() -> None:
    _, coeffs = homogenize(homogeneous(1.7, 0.8), method="exact")
    k, omega = 1.3, 0.9
    assert_allclose(two_scale_impedance(coeffs, k, omega), -1.7 * k**2 + 0.8 * omega**2, rtol=1e-12)
    assert_allclose(modulation_m2(coeffs, k, omega), -1.0, rtol=1e-12)
    assert_allclose(willis_impedance_order2(coeffs, k, omega), 1.7 * k**2 - 0.8 * omega**2, rtol=1e-12)
    assert_allclose(dipole_mean_n2(coeffs, k, omega), 1j * k * 1.7, rtol=1e-12)


def test_exact_identity_suite_at_roundoff() -> None:
    fields, coeffs = homogenize(BILAMINATE, method="exact")
    suite = identity_suite(BILAMINATE, fields, coeffs)
    for name, value in suite.items():
        assert value < 1e-12, name


def test_spectral_identity_suite_small() -> None:
    fields, coeffs = homogenize(BILAMINATE, method="spectral", order=128)
    suite = identity_suite(BILAMINATE, fields, coeffs)
    for name, value in suite.items():
        assert value < 1e-5, name


@pytest.mark.parametrize("b", [1e-14, 1e-20])
def test_covariance_check_keeps_its_sensitivity_in_small_density_units(b: float) -> None:
    # q scales with rho; a floor in absolute units would swallow the residual
    def residual(cell: UnitCell1D) -> float:
        return identity_suite(cell, *homogenize(cell, method="exact"))["static_dipole_flux_matches_covariance"]

    scaled = UnitCell1D(tuple(Phase(p.length, p.G, b * p.rho) for p in BILAMINATE.phases))
    unscaled = residual(BILAMINATE)
    assert unscaled / 10.0 <= residual(scaled) <= 10.0 * unscaled


def test_asymmetric_cell_identities_and_odd_coefficients() -> None:
    cell = UnitCell1D(
        phases=(Phase(0.3, 1.0, 1.0), Phase(0.5, 0.2, 3.0), Phase(0.2, 2.5, 0.4))
    )
    fields, coeffs = homogenize(cell, method="exact")
    suite = identity_suite(cell, fields, coeffs)
    for name, value in suite.items():
        assert value < 1e-12, name
    # without mirror symmetry the first-order coefficients are nonzero
    assert abs(coeffs.rho1) > 1e-4
    assert abs(coeffs.mu1) > 1e-5


def test_spectral_coefficients_converge_first_order() -> None:
    _, exact = homogenize(BILAMINATE, method="exact")
    errs = []
    for n in (64, 256):
        _, spec = homogenize(BILAMINATE, method="spectral", order=n)
        errs.append(
            max(
                abs(spec.to_dict()[name] - value) / max(1.0, abs(value))
                for name, value in exact.to_dict().items()
            )
        )
    assert errs[1] < 0.35 * errs[0]


def test_dipole_side_coefficients_collapse_in_1d() -> None:
    _, coeffs = homogenize(BILAMINATE, method="exact")
    assert abs(coeffs.mu1_dip - coeffs.mu1) < 1e-14
    assert abs(coeffs.mu2_dip - coeffs.mu2) < 1e-12
    assert abs(coeffs.rho2_dip - coeffs.rho2) < 1e-12


def test_mean_route_survives_small_leading_order() -> None:
    # on a two-scale root the leading-order polynomial shrinks like k^4
    # against a k^2 scale; the cancellation guard must not trip while the
    # difference still carries digits
    cell = UnitCell1D(
        phases=(Phase(0.3, 1.0, 1.0), Phase(0.5, 0.2, 3.0), Phase(0.2, 2.5, 0.4))
    )
    _, coeffs = homogenize(cell, method="exact")
    for k in (2e-5, 1.2e-4):
        omega = two_scale_root(coeffs, k)
        za = willis_impedance_order2(coeffs, k, omega, route="modulated")
        zb = willis_impedance_order2(coeffs, k, omega, route="mean")
        scale = abs(coeffs.mu0) * k**2 + abs(coeffs.rho0) * omega**2
        assert abs(za - zb) / scale < 1e-9


def test_two_scale_root_solves_polynomial() -> None:
    _, coeffs = homogenize(BILAMINATE, method="exact")
    k = 0.3
    omega = two_scale_root(coeffs, k)
    assert abs(two_scale_impedance(coeffs, k, omega)) < 1e-12


def test_two_scale_root_terminates() -> None:
    _, coeffs = homogenize(BILAMINATE, method="exact")
    # the radicand turns negative once mu2 k^4 overtakes mu0 k^2
    k_end = np.sqrt(coeffs.mu0 / coeffs.mu2)
    with pytest.raises(NumericalError, match=r"terminates before k = .*rho0 - rho2 k\^2 ="):
        two_scale_root(coeffs, 1.01 * k_end)


def test_impedance_routes_agree_at_long_wavelength() -> None:
    _, coeffs = homogenize(BILAMINATE, method="exact")
    eps = 0.02
    k, omega = eps * 1.0, eps * 0.3
    za = willis_impedance_order2(coeffs, k, omega, route="modulated")
    zb = willis_impedance_order2(coeffs, k, omega, route="mean")
    scale = abs(coeffs.mu0) * k**2 + abs(coeffs.rho0) * omega**2
    assert abs(za - zb) / scale < 1e-9
    with pytest.raises(ValidationError):
        willis_impedance_order2(coeffs, k, omega, route="other")


def test_polynomial_tracks_exact_impedance() -> None:
    _, coeffs = homogenize(BILAMINATE, method="exact")
    eps = 0.02
    k, omega = eps * 1.0, eps * 0.3
    z_exact = effective_impedance(BILAMINATE, k, omega, method="exact")
    z2 = willis_impedance_order2(coeffs, k, omega)
    assert abs(z_exact - z2) / abs(z_exact) < 1e-9


def test_unknown_method_rejected() -> None:
    with pytest.raises(ValidationError):
        solve_static_chain(BILAMINATE, method="collocation")


def test_mean_route_is_zero_on_the_acoustic_cone() -> None:
    # a uniform cell has mu2 = rho2 = 0, so its two-scale roots lie on the
    # cone z0 = 0, where the mean route tends to its limit 0
    _, coeffs = homogenize(homogeneous(2.0, 1.0), method="exact")
    k = 0.3
    omega = two_scale_root(coeffs, k)
    assert willis_impedance_order2(coeffs, k, omega, route="mean") == 0.0
    row = willis_impedance_order2(coeffs, k, np.array([0.1, omega, 0.5]), route="mean")
    assert row[1] == 0.0
    assert_allclose(row[[0, 2]], 2.0 * k**2 - np.array([0.1, 0.5]) ** 2, rtol=1e-12)


#: a high-contrast cell whose spectral rho1, zero in the continuum, carries an
#: imaginary part near 1e-9 of roundoff from terms of size rho0 ~ 1.4e4
HIGH_CONTRAST = UnitCell1D(
    (
        Phase(0.5915613529685979, 2.0829203755954, 23498.45619076656),
        Phase(0.4084386470314021, 24440.941463391966, 79.60091009589874),
    )
)


@pytest.mark.parametrize("order", [8, 16, 32, 64, 128])
def test_realness_is_judged_on_the_cell_scale(order: int) -> None:
    # an absolute floor of 1 on the imaginary part rejected rho1 at every order
    _, c = homogenize(HIGH_CONTRAST, method="spectral", order=order)
    assert abs(c.rho1) < 1e-9 * c.rho0


@pytest.mark.parametrize("method", ["exact", "spectral"])
def test_complex_coefficient_names_route_and_cell(method: str) -> None:
    fields = solve_static_chain(BILAMINATE, method=method, order=32)
    flux = fields.chi1.flux
    flux = flux * (1.0 + 1.0j) if method == "exact" else FourierField(flux.coeffs * (1.0 + 1.0j))
    chi1 = dataclasses.replace(fields.chi1, flux=flux)
    doctored = dataclasses.replace(fields, chi1=chi1)
    with pytest.raises(NumericalError) as info:
        coefficients(BILAMINATE, doctored)
    message = str(info.value)
    assert message.startswith("mu0 must be real")
    assert f"{method} route, cell {cell_digest(BILAMINATE)}" in message


# s_g = 1 and nothing else beyond the quasistatic pair: m2 = k^2 - 1
UNIT_MODULATION = HomogCoefficients(
    rho0=1.0, mu0=1.0, rho1=0.0, mu1=0.0, rho2=0.0, mu2=0.0, mu1_dip=0.0,
    mu2_dip=0.0, rho2_dip=0.0, s_g=1.0, s_rho=0.0, q=0.0,
)


def test_vanishing_modulation_names_first_point() -> None:
    k = np.array([0.5, 1.0, 2.0, 1.0])
    with pytest.raises(NumericalError, match=r"modulation factor vanishes at \(k, omega\) = \(1\.0, 0\.5\)"):
        willis_impedance_order2(UNIT_MODULATION, k, 0.5, route="modulated")


def test_vanishing_mean_denominator_names_first_point() -> None:
    # off the cone the mean-route denominator is m2 / z0, zero at k = 1
    omega = np.array([[0.5], [0.25]])
    with pytest.raises(NumericalError, match=r"denominator vanishes at \(k, omega\) = \(1\.0, 0\.5\)"):
        willis_impedance_order2(UNIT_MODULATION, np.array([0.5, 1.0]), omega, route="mean")


def _galerkin_chain(cell: UnitCell1D, order: int) -> StaticCellFunctions:
    """The spectral chain by dense solves of the reduced k = 0 Galerkin stiffness.

    K T(1/G)^{-1} K c = D(G F) - r on the modes m != 0, the mean of u set to 0,
    with G Li's rule and a product with rho the dense T_N(rho).
    """
    op = assemble(cell, 0.0, order)
    keep = np.arange(op.size) != op.index0
    stiffness = op.stiffness[np.ix_(keep, keep)]
    m = np.arange(-order, order + 1)
    D = 2j * np.pi * m
    (rho,) = fourier_coefficients(cell, ("rho",), 2 * order)
    T_rho = rho.coeffs[m[:, None] - m[None, :] + 2 * order]

    def solve(F: np.ndarray, r: np.ndarray, scale: float) -> StaticSolve:
        c = np.zeros(op.size, dtype=complex)
        c[keep] = np.linalg.solve(stiffness, (D * (op.G_matrix @ F) - r)[keep])
        return StaticSolve(u=FourierField(c), flux=FourierField(op.G_matrix @ (D * c + F)), residual=0.0, scale=scale)

    one = (m == 0).astype(complex)
    zero = 0.0 * one
    mu_h, rho0 = cell.scales["G"], cell.scales["rho"]
    chi1 = solve(one, zero, mu_h)
    eta0 = solve(zero, (T_rho @ one - rho0 * one) / rho0, 1.0)
    mu0 = chi1.flux.mean.real
    rho_chi1 = T_rho @ chi1.u.coeffs
    chi2 = solve(chi1.u.coeffs, (T_rho @ one) * (mu0 / rho0) - chi1.flux.coeffs, mu_h)
    eta1 = solve(eta0.u.coeffs, rho_chi1 / rho0 - eta0.flux.coeffs, 1.0)
    alpha1 = solve(zero, rho_chi1 - rho_chi1[order].real * one, rho0)
    chi3 = solve(chi2.u.coeffs, rho_chi1 * (mu0 / rho0) - chi2.flux.coeffs, mu_h)
    return StaticCellFunctions("spectral", order, chi1, chi2, chi3, eta0, eta1, alpha1, rho)


def _random_cells(count: int, seed: int) -> list[UnitCell1D]:
    """Cells of 1-6 phases with G and rho log-uniform in [1, 1e3]."""
    rng = np.random.default_rng(seed)
    cells = []
    for _ in range(count):
        n = int(rng.integers(1, 7))
        lengths = rng.uniform(0.1, 1.0, n)
        lengths /= lengths.sum()
        lengths[-1] = 1.0 - lengths[:-1].sum()
        G, rho = 10.0 ** rng.uniform(0.0, 3.0, (2, n))
        cells.append(UnitCell1D(tuple(Phase(*p) for p in zip(lengths, G, rho))))
    return cells


ORACLE_CELLS = [BILAMINATE, bilaminate(0.5, 0.5), bilaminate(0.01, 100.0), *_random_cells(30, seed=14)]

#: the dimension of each coefficient, whose cell size floors its comparison
DIMENSIONS = {
    **dict.fromkeys(("rho0", "rho1", "rho2", "rho2_dip", "q"), "rho"),
    **dict.fromkeys(("mu0", "mu1", "mu2", "mu1_dip", "mu2_dip"), "G"),
    "s_g": "1",
    "s_rho": "rho/G",
}


@pytest.mark.parametrize("order", [4, 8, 16, 32, 128])
def test_spectral_chain_is_the_galerkin_solution(order: int) -> None:
    # the flux-form solve divides by G through T_N(1/G), the inverse of the
    # stiffness's Li's-rule G, so it reproduces the Galerkin chain to roundoff
    for cell in ORACLE_CELLS:
        oracle = coefficients(cell, _galerkin_chain(cell, order)).to_dict()
        _, got = homogenize(cell, method="spectral", order=order)
        for name, value in got.to_dict().items():
            size = max(abs(oracle[name]), cell.scales[DIMENSIONS[name]])
            assert abs(value - oracle[name]) <= 1e-12 * size, (cell_digest(cell), name)


@pytest.mark.parametrize("order", [8, 32])
def test_spectral_table_is_the_averages_of_its_chain(order: int) -> None:
    # each average <rho u> is the m = 0 row of the dense T_N(rho) u, and q is
    # <rho chi1 chi1> by Parseval, sum_m (T_N(rho) chi1)_m conj(chi1_m)
    m = np.arange(-order, order + 1)
    for cell in ORACLE_CELLS:
        fields, got = homogenize(cell, method="spectral", order=order)
        T_rho = fields.rho.coeffs[m[:, None] - m[None, :] + 2 * order]
        u1 = fields.chi1.u.coeffs
        want = {
            "mu0": fields.chi1.flux.mean, "mu1": fields.chi2.flux.mean, "mu2": fields.chi3.flux.mean,
            "rho1": (T_rho @ u1)[order], "rho2": (T_rho @ fields.chi2.u.coeffs)[order],
            "s_g": fields.eta1.flux.mean, "s_rho": (T_rho @ fields.eta0.u.coeffs)[order],
            "q": np.vdot(u1, T_rho @ u1),
        }
        for name, value in want.items():
            size = cell.scales[DIMENSIONS[name]]
            assert abs(getattr(got, name) - value.real) <= 1e-13 * size, (cell_digest(cell), name)


#: sha256 over ORACLE_CELLS of repr(homogenize(cell, method, order)[1].to_dict()):
#: the coefficient tables' bits, which a reordered sum or product on a
#: multi-phase cell would move (the exact route ignores the order).  The
#: spectral pins moved when the chain went from field products to its
#: Galerkin rows on coefficient arrays: 433 of the 792 entries changed, the
#: largest by 1.25e-16 of the cell's size for the entry's dimension
COEFFICIENT_DIGESTS = {
    ("exact", 32): "6bb3712c58daf81eeae53ee704f616bb9aeeb78149de0f486f42c08f63510025",
    ("spectral", 8): "97ea5ddd622110abc813687fd2d2e8775622326bfab148b5ac7d3eed08cbb399",
    ("spectral", 32): "43a5eca4964cde857abb333b037f15dbc3137a1826b743cafa28421154c29fe3",
}


@pytest.mark.parametrize(("method", "order"), list(COEFFICIENT_DIGESTS))
def test_coefficient_tables_are_pinned_across_cells(method: str, order: int) -> None:
    digest = hashlib.sha256()
    for cell in ORACLE_CELLS:
        digest.update(repr(homogenize(cell, method, order)[1].to_dict()).encode())
    assert digest.hexdigest() == COEFFICIENT_DIGESTS[method, order]


def test_spectral_chain_factors_nothing(monkeypatch) -> None:
    # the chain divides by G through T_N(1/G), and its identity suite reads no G,
    # so neither factors a matrix nor forms Li's inverse T(1/G)^{-1}
    def refuse(*args, **kwargs):
        raise AssertionError("the static chain called a dense factorization or formed Li's G")

    for name in ("solve", "inv", "cholesky"):
        monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(spectral, "toeplitz_inverse", refuse)
    fields, coeffs = homogenize(BILAMINATE, method="spectral", order=32)
    assert abs(coeffs.mu0 - EXPECTED["mu0"]) < 1e-12
    assert max(identity_suite(BILAMINATE, fields, coeffs).values()) < 1e-10
