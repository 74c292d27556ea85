from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from willis_homog.cell_functions import (
    averages,
    homogeneous_means,
    solve_v,
    solve_v_exact,
    solve_w,
    solve_w_exact,
    solve_zeta,
    solve_zeta_exact,
)
from willis_homog.errors import ResonanceError, ValidationError
from willis_homog.material import bilaminate, cell_digest, homogeneous
from willis_homog.spectral import assemble


def test_uniform_cell_monopole_is_constant() -> None:
    G, rho, k, omega = 2.0, 0.5, 0.8, 0.6
    w = solve_w_exact(homogeneous(G, rho), k, omega)
    expected = 1.0 / (G * k**2 - rho * omega**2)
    assert_allclose(w.mean, expected, rtol=1e-12)
    assert_allclose(w.u_nodes, expected, rtol=1e-12)


def test_uniform_cell_dipole_is_constant() -> None:
    G, rho, k, omega = 2.0, 0.5, 0.8, 0.6
    v = solve_v_exact(homogeneous(G, rho), k, omega)
    expected = 1j * k * G / (rho * omega**2 - G * k**2)
    assert_allclose(v.mean, expected, rtol=1e-12)


def test_uniform_cell_static_dipole_mean() -> None:
    zeta = solve_zeta_exact(homogeneous(3.0, 0.7), 1.3)
    assert_allclose(zeta.mean, -1j / 1.3, rtol=1e-12)


def test_static_dipole_mean_is_universal() -> None:
    # <zeta> = -i/k holds for any cell composition in one dimension
    k = 0.9
    for cell in (bilaminate(0.1, 0.1), bilaminate(0.3, 0.8)):
        zeta = solve_zeta_exact(cell, k)
        assert_allclose(zeta.mean, -1j / k, rtol=1e-10)
        op = assemble(cell, k, 64)
        zs = solve_zeta(op)
        assert_allclose(zs.mean, -1j / k, rtol=1e-10)


def test_static_dipole_undefined_at_zero_wavenumber() -> None:
    with pytest.raises(ResonanceError):
        solve_zeta_exact(bilaminate(0.1, 0.1), 0.0)
    with pytest.raises(ResonanceError):
        solve_zeta(assemble(bilaminate(0.1, 0.1), 0.0, 16))


@pytest.mark.parametrize("k", [-1e-13, 2.0 * np.pi - 1e-14, 4.0 * np.pi + 1e-13])
def test_static_dipole_guard_catches_near_multiples_of_two_pi(k: float) -> None:
    cell = bilaminate(0.1, 0.1)
    for solve in (lambda: solve_zeta_exact(cell, k), lambda: solve_zeta(assemble(cell, k, 16))):
        with pytest.raises(ResonanceError, match="undefined at k = 0") as info:
            solve()
        assert cell_digest(cell) in str(info.value) and repr(k) in str(info.value)


def test_spectral_mean_rho_conj_needs_static_dipole_of_same_operator() -> None:
    cell = bilaminate(0.1, 0.1)
    op = assemble(cell, 0.5, 16)
    w, zeta = solve_w(op, 0.2), solve_zeta(op)
    # cell-basis identity <G D_k w> = conj<zeta> + omega^2 <rho w conj(zeta)>
    flux = w.mean_flux
    assert abs(flux - np.conj(zeta.mean) - 0.2**2 * w.mean_rho_conj(zeta)) < 1e-10 * abs(flux)
    with pytest.raises(ValidationError):
        w.mean_rho_conj(solve_v(op, 0.2))
    with pytest.raises(ValidationError):
        w.mean_rho_conj(solve_zeta(assemble(cell, 0.5, 16)))


def test_homogeneous_means_match_exact_solver() -> None:
    G, rho, k, omega = 1.7, 0.9, 0.6, 0.4
    cell = homogeneous(G, rho)
    closed = homogeneous_means(G, rho, k, omega)
    w = solve_w_exact(cell, k, omega)
    v = solve_v_exact(cell, k, omega)
    got = averages(w, v, cell)
    for name, value in closed.items():
        assert abs(got[name] - value) < 1e-12 * max(1.0, abs(value))


def test_spectral_route_converges_to_exact() -> None:
    # the mean converges at first order in 1/N for discontinuous cells
    cell = bilaminate(0.1, 0.1)
    k, omega = 0.5, 0.2
    we = solve_w_exact(cell, k, omega)
    ve = solve_v_exact(cell, k, omega)
    errs_w, errs_v = [], []
    for n in (64, 256):
        op = assemble(cell, k, n)
        errs_w.append(abs(solve_w(op, omega).mean - we.mean) / abs(we.mean))
        errs_v.append(abs(solve_v(op, omega).mean - ve.mean) / abs(ve.mean))
    assert errs_w[1] < 0.5 * errs_w[0] < 0.02
    assert errs_v[1] < 0.5 * errs_v[0] < 0.02

