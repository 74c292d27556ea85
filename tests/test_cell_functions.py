from __future__ import annotations

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from willis_homog.cell_functions import (
    CellResponse,
    averages,
    responses,
    solve_v,
    solve_v_exact,
    solve_w,
    solve_w_exact,
    solve_zeta,
    solve_zeta_exact,
)
from willis_homog.errors import ResonanceError, ValidationError
from willis_homog.material import Phase, UnitCell1D, bilaminate, cell_digest, homogeneous
from willis_homog.spectral import assemble

from test_exact import homogeneous_means


def test_uniform_cell_monopole_is_constant() -> None:
    G, rho, k, omega = 2.0, 0.5, 0.8, 0.6
    w = solve_w_exact(homogeneous(G, rho), k, omega)
    expected = 1.0 / (G * k**2 - rho * omega**2)
    assert_allclose(w.mean, expected, rtol=1e-12)


def test_uniform_cell_dipole_is_constant() -> None:
    G, rho, k, omega = 2.0, 0.5, 0.8, 0.6
    v = solve_v_exact(homogeneous(G, rho), k, omega)
    expected = 1j * k * G / (rho * omega**2 - G * k**2)
    assert_allclose(v.mean, expected, rtol=1e-12)


def test_uniform_cell_static_dipole_mean() -> None:
    zeta = solve_zeta_exact(homogeneous(3.0, 0.7), 1.3)
    assert_allclose(zeta.mean, -1j / 1.3, rtol=1e-12)


def _random_cell(rng: np.random.Generator, n: int):
    lengths = rng.uniform(0.05, 1.0, n)
    lengths /= lengths.sum()
    lengths[-1] = 1.0 - lengths[:-1].sum()
    moduli, densities = 10.0 ** rng.uniform(-1.5, 1.5, (2, n))
    return UnitCell1D(tuple(Phase(h, G, r) for h, G, r in zip(lengths, moduli, densities)))


def test_static_dipole_mean_is_universal() -> None:
    # in one dimension the static dipole is the constant zeta = -i/k on any
    # cell, so <zeta> = -i/k and <G D_k zeta> = <G>, with G times the unit
    # strain formed as the route forms it (Li's rule on the spectral route,
    # which reaches the exact <G> only as N grows); the dynamic identity
    # checks rest on this
    rng = np.random.default_rng(9)
    for n in [1, 2, 3, 4, 5, 6] * 3:
        cell = _random_cell(rng, n)
        k = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0))
        where = f"{n} phases, k = {k!r}"
        exact = solve_zeta_exact(cell, k)
        assert exact.mean_G == cell.mean("G")
        for zeta in (exact, solve_zeta(assemble(cell, k, 64))):
            assert_allclose(zeta.mean, -1j / k, rtol=1e-10, err_msg=where)
            assert_allclose(zeta.mean_flux, zeta.mean_G, rtol=1e-10, err_msg=where)


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


@pytest.mark.parametrize("method", ["exact", "spectral"])
def test_both_routes_return_one_record_type(method: str) -> None:
    w, v = responses(bilaminate(0.1, 0.1), 0.5, 0.2, ("monopole", "dipole"), method, 16)
    assert type(w) is type(v) is CellResponse


@pytest.mark.parametrize("method", ["exact", "spectral"])
def test_responses_reject_an_unknown_kind(method: str) -> None:
    # the static dipole is no response kind; solve_zeta is the dipole at omega = 0
    for kinds in (("static_dipole",), ("quadrupole",), (), ["monopole"]):
        with pytest.raises(ValidationError, match=re.escape(repr(kinds))):
            responses(bilaminate(0.1, 0.1), 0.5, 0.2, kinds, method, 16)


@pytest.mark.parametrize("method", ["exact", "spectral"])
@pytest.mark.parametrize(
    "k,omega",
    [(np.nan, 0.3), (np.inf, 0.3), (0.5, np.nan), (0.5, np.inf)],
    ids=["k-nan", "k-inf", "omega-nan", "omega-inf"],
)
def test_responses_reject_a_non_finite_point(method: str, k: float, omega: float) -> None:
    name = "k" if not np.isfinite(k) else "omega"
    with pytest.raises(ValidationError, match=f"^{name} must be finite"):
        responses(bilaminate(0.1, 0.1), k, omega, ("monopole",), method, 16)


def test_homogeneous_means_match_exact_solver() -> None:
    G, rho, k, omega = 1.7, 0.9, 0.6, 0.4
    cell = homogeneous(G, rho)
    closed = homogeneous_means(G, rho, k, omega)
    w = solve_w_exact(cell, k, omega)
    v = solve_v_exact(cell, k, omega)
    got = averages(w, v)
    for name, value in closed.items():
        assert abs(got[name] - value) < 1e-12 * max(1.0, abs(value))


def test_spectral_route_converges_to_exact() -> None:
    # on a discontinuous cell the mean converges at least at first order in
    # 1/N (Laurent's rule); Li's rule gives 7.2e-9 and 1.1e-10 here
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

