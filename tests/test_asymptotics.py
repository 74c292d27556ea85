from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from willis_homog.asymptotics import (
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
from willis_homog.material import Phase, UnitCell1D, bilaminate, homogeneous
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
    assert_allclose(fields.chi1.u(0.0), 9.0 / 44.0, rtol=1e-13)
    assert abs(fields.chi1.u.mean()) < 1e-15


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
    with pytest.raises(NumericalError):
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
