from __future__ import annotations

import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from willis_homog.cell_functions import (
    CellResponse,
    responses,
    solve_v,
    solve_v_exact,
    solve_w,
    solve_w_exact,
    solve_zeta,
    solve_zeta_exact,
)
from willis_homog.errors import NumericalError, ResonanceError, ValidationError
from willis_homog.exact import (
    _LOADS,
    monopole_adjugate,
    solve_dipole_exact,
    solve_monopole_exact,
    solve_static_dipole_exact,
)
from willis_homog.material import Phase, UnitCell1D, bilaminate, cell_digest, homogeneous
from willis_homog.spectral import assemble, resolvent_solve
from willis_homog.willis import dynamic_identity_residuals, effective_impedance

from test_exact import homogeneous_means, response_means


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
    # cell, so <zeta> = -i/k and its own flux <G (D_k zeta - 1)> vanishes on
    # both routes; the dynamic identity checks rest on this
    rng = np.random.default_rng(9)
    for n in [1, 2, 3, 4, 5, 6] * 3:
        cell = _random_cell(rng, n)
        k = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0))
        where = f"{n} phases, k = {k!r}"
        for zeta in (solve_zeta_exact(cell, k), solve_zeta(assemble(cell, k, 64))):
            assert_allclose(zeta.mean, -1j / k, rtol=1e-10, err_msg=where)
            assert abs(zeta.mean_flux) <= 1e-10 * cell.scales["G"], where


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


@pytest.mark.parametrize("k", [2.0 * np.pi * 1e6, 1e17, 1e20, 1e50, 1e100, 1e150])
def test_static_dipole_is_defined_far_from_multiples_of_two_pi(k: float) -> None:
    # libm's exact reduction puts 2 pi 1e6 4.46e-10 from the kernel and 1e17 to
    # 1e150 0.39 or more; k - 2 pi rint(k / 2 pi) read each as 0 within 1e-12
    cell = bilaminate(0.1, 0.1)
    for zeta in (solve_zeta_exact(cell, k), solve_zeta(assemble(cell, k, 16))):
        assert_allclose(zeta.mean * k, -1j, rtol=1e-12, atol=1e-12)


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


@pytest.mark.parametrize(
    "solve",
    [
        lambda cell, k, omega, method: responses(cell, k, omega, ("monopole",), method, 16),
        lambda cell, k, omega, method: effective_impedance(cell, k, omega, method, 16),
    ],
    ids=["responses", "effective_impedance"],
)
@pytest.mark.parametrize("method", ["exact", "spectral"])
@pytest.mark.parametrize(
    "k,omega",
    [(np.nan, 0.3), (np.inf, 0.3), (0.5, np.nan), (0.5, np.inf)],
    ids=["k-nan", "k-inf", "omega-nan", "omega-inf"],
)
def test_responses_reject_a_non_finite_point(solve, method: str, k: float, omega: float) -> None:
    name = "k" if not np.isfinite(k) else "omega"
    with pytest.raises(ValidationError, match=f"^{name} must be finite"):
        solve(bilaminate(0.1, 0.1), k, omega, method)


#: every kernel entry point with a k or omega argument, called at one (k, omega)
KERNEL_ENTRY_POINTS = {
    "solve_monopole_exact": lambda cell, k, omega: solve_monopole_exact(cell, k, omega),
    "solve_dipole_exact": lambda cell, k, omega: solve_dipole_exact(cell, k, omega),
    "solve_static_dipole_exact": lambda cell, k, omega: solve_static_dipole_exact(cell, k),
    "solve_zeta_exact": lambda cell, k, omega: solve_zeta_exact(cell, k),
    "monopole_adjugate": lambda cell, k, omega: monopole_adjugate(cell, k, omega),
    "assemble": lambda cell, k, omega: assemble(cell, k, 8).eigenvalues,
    "solve_w": lambda cell, k, omega: solve_w(assemble(cell, 0.5, 8), omega),
    "solve_v": lambda cell, k, omega: solve_v(assemble(cell, 0.5, 8), omega),
    "resolvent_solve": lambda cell, k, omega: resolvent_solve(
        assemble(cell, 0.5, 8), omega, assemble(cell, 0.5, 8).load(_LOADS["monopole"])
    ),
}


@pytest.mark.parametrize(
    "entry,k,omega",
    [
        (entry, k, omega)
        for entry in KERNEL_ENTRY_POINTS
        for k, omega in [(np.nan, 0.3), (np.inf, 0.3), (0.5, np.nan), (0.5, -np.inf)]
        # the static solves read no omega; the spectral solves read k from their operator
        if (np.isfinite(k) or entry not in ("solve_w", "solve_v", "resolvent_solve"))
        and (np.isfinite(omega) or entry not in ("solve_static_dipole_exact", "solve_zeta_exact", "assemble"))
    ],
)
def test_kernels_reject_a_non_finite_point(entry: str, k: float, omega: float) -> None:
    # each kernel checks what it reads: no ZeroDivisionError, math domain error,
    # LinAlgError or silent NaN
    name, value = ("k", k) if not np.isfinite(k) else ("omega", omega)
    with pytest.raises(ValidationError, match=f"^{name} must be finite, got {value!r}$"):
        KERNEL_ENTRY_POINTS[entry](bilaminate(0.1, 0.1), k, omega)


#: finite points whose square, or the cell's impedance scale <G> k^2 + <rho> omega^2,
#: overflows, and the quantity each entry point names
_FIG2 = bilaminate(0.1, 0.1)
OVERFLOW_ENTRY_POINTS = {
    "resolvent_solve": (
        lambda: resolvent_solve(assemble(_FIG2, 0.5, 8), 1e160, assemble(_FIG2, 0.5, 8).load(_LOADS["monopole"])),
        "omega^2",
    ),
    "effective_impedance-exact-omega": (lambda: effective_impedance(_FIG2, 0.5, 1e160), "omega^2"),
    "effective_impedance-spectral-omega": (lambda: effective_impedance(_FIG2, 0.5, 1e160, "spectral", 8), "omega^2"),
    "effective_impedance-exact-k": (lambda: effective_impedance(_FIG2, 1e160, 0.5), "k^2"),
    "effective_impedance-spectral-k": (lambda: effective_impedance(_FIG2, 1e160, 0.5, "spectral", 8), "k^2"),
    # c = 100: k^2 is finite, (c k)^2 is not
    "effective_impedance-exact-ck": (
        lambda: effective_impedance(homogeneous(1e4, 1.0), 1e153, 0.5),
        "<G> k^2 + <rho> omega^2",
    ),
    "effective_impedance-spectral-ck": (
        lambda: effective_impedance(homogeneous(1e4, 1.0), 1e153, 0.5, "spectral", 8),
        "<G> k^2",
    ),
    "assemble-ck": (lambda: assemble(homogeneous(1e4, 1.0), 1e153, 8), "<G> k^2"),
    "assemble": (lambda: assemble(_FIG2, 1e160, 8).eigenvalues, "k^2"),
    "assemble-float64": (lambda: assemble(_FIG2, np.float64(1e160), 8).eigenvalues, "k^2"),
    "responses-exact": (lambda: responses(_FIG2, 0.5, 1e200, ("monopole", "dipole"), "exact"), "omega^2"),
    "dynamic_identity_residuals": (lambda: dynamic_identity_residuals(_FIG2, 0.5, 1e160), "omega^2"),
}


@pytest.mark.parametrize("entry", list(OVERFLOW_ENTRY_POINTS))
def test_entry_points_reject_a_point_whose_square_overflows(entry: str) -> None:
    # no OverflowError, LinAlgError, RuntimeWarning or silent NaN
    call, quantity = OVERFLOW_ENTRY_POINTS[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=f"^{re.escape(quantity)} must be finite"):
            call()


def test_resolvent_solve_fails_closed_on_a_nan_residual() -> None:
    op = assemble(bilaminate(0.1, 0.1), 0.5, 8)
    load = op.load(_LOADS["dipole"])
    load[0] = np.nan
    with pytest.raises(NumericalError, match=r"^resolvent solve residual nan exceeds"):
        resolvent_solve(op, 0.2, load)


def test_homogeneous_means_match_exact_solver() -> None:
    G, rho, k, omega = 1.7, 0.9, 0.6, 0.4
    cell = homogeneous(G, rho)
    closed = homogeneous_means(G, rho, k, omega)
    w = solve_w_exact(cell, k, omega)
    v = solve_v_exact(cell, k, omega)
    got = response_means(cell, w, v)
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

