from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from willis_homog import spectral
from willis_homog.asymptotics import homogenize
from willis_homog.dispersion import spectral_acoustic_branch
from willis_homog.errors import ResonanceError, ValidationError
from willis_homog.exact import _LOADS
from willis_homog.material import Phase, UnitCell1D, bilaminate, cell_digest, fourier_coefficients, homogeneous
from willis_homog.spectral import (
    RESONANCE_RTOL,
    assemble,
    resolvent_solve,
    solve_eigensystem,
    toeplitz_inverse,
)
from willis_homog.willis import effective_impedance

MONOPOLE, DIPOLE = _LOADS["monopole"], _LOADS["dipole"]


def rho_norm(op, c: np.ndarray) -> float:
    """Norm induced by the mass matrix."""
    return float(np.sqrt(np.vdot(c, op.mass @ c).real))


def test_matrices_are_hermitian() -> None:
    op = assemble(bilaminate(0.2, 0.4), 0.7, 24)
    a_scale = np.max(np.abs(op.stiffness))
    assert np.max(np.abs(op.stiffness - op.stiffness.conj().T)) < 1e-14 * a_scale
    assert np.max(np.abs(op.mass - op.mass.conj().T)) < 1e-14


def test_homogeneous_eigenvalues_are_shifted_lattice() -> None:
    k = 0.9
    op = assemble(homogeneous(), k, 16)
    expected = np.sort((2.0 * np.pi * np.arange(-16, 17) + k) ** 2)
    assert_allclose(op.eigenvalues, expected, rtol=1e-12)


def test_homogeneous_eigenvalues_scale_with_properties() -> None:
    k = 0.9
    op = assemble(homogeneous(3.0, 2.0), k, 8)
    expected = np.sort((2.0 * np.pi * np.arange(-8, 9) + k) ** 2) * (3.0 / 2.0)
    assert_allclose(op.eigenvalues, expected, rtol=1e-12)


def test_monopole_load_is_unit_mean() -> None:
    op = assemble(bilaminate(0.1, 0.1), 0.5, 8)
    r = op.load(MONOPOLE)
    assert r[op.index0] == 1.0
    assert np.count_nonzero(r) == 1


def test_resolvent_matches_modal_solution() -> None:
    cell = bilaminate(0.1, 0.1)
    rng = np.random.default_rng(11)
    for _ in range(5):
        k = rng.uniform(0.1, 3.0)
        omega = rng.uniform(0.05, 2.5)
        op = assemble(cell, k, 32)
        rel, _ = op.resonance_distance(omega**2)
        if rel < 1e-3:
            continue
        eig = solve_eigensystem(op)
        load = op.load(DIPOLE)
        direct = resolvent_solve(op, omega, load)
        modal = eig.modal_solution(load, omega**2)
        assert rho_norm(op, direct - modal) < 1e-8 * max(rho_norm(op, direct), 1e-30)


def test_resolvent_refuses_resonant_frequency() -> None:
    op = assemble(bilaminate(0.1, 0.1), 0.5, 32)
    omega = float(np.sqrt(op.eigenvalues[0]))
    with pytest.raises(ResonanceError):
        resolvent_solve(op, omega, op.load(MONOPOLE))


def test_mean_flux_on_uniform_cell() -> None:
    # with G constant the zeroth mode of G D_k u comes from the constant
    # mode of u alone: <G D_k u> = G i k c_0
    k = 0.4
    op = assemble(homogeneous(2.0, 1.0), k, 4)
    c0 = np.zeros(op.size, dtype=complex)
    c0[op.index0] = 1.0
    assert_allclose(op.response(c0, MONOPOLE).mean_flux, 2.0 * 1j * k, rtol=1e-14)
    c1 = np.zeros(op.size, dtype=complex)
    c1[op.index0 + 1] = 1.0
    assert_allclose(op.response(c1, MONOPOLE).mean_flux, 0.0, atol=1e-14)


def test_resonance_error_names_location() -> None:
    cell = homogeneous()
    op = assemble(cell, 1.0, 8)
    with pytest.raises(ResonanceError) as info:
        resolvent_solve(op, 1.0, op.load(MONOPOLE))
    message = str(info.value)
    assert cell_digest(cell) in message
    assert "(k, omega) = (1.0, 1.0)" in message
    assert "N = 8" in message


def _random_cell(rng: np.random.Generator, contrast: float = 1e2) -> UnitCell1D:
    n = int(rng.integers(1, 7))
    lengths = rng.uniform(0.2, 1.0, n)
    lengths /= lengths.sum()
    lengths[-1] = 1.0 - lengths[:-1].sum()
    G = contrast ** rng.uniform(0.0, 1.0, n)
    rho = contrast ** rng.uniform(0.0, 1.0, n)
    return UnitCell1D(tuple(Phase(length=float(h), G=float(g), rho=float(r)) for h, g, r in zip(lengths, G, rho)))


def _raises(op, omega_sq: float) -> bool:
    try:
        op.check_resonance(omega_sq)
    except ResonanceError:
        return True
    return False


def test_resonance_certificate_agrees_with_eigenvalue_list() -> None:
    rng = np.random.default_rng(5)
    decided = 0
    for _ in range(25):
        cell = _random_cell(rng)
        k = float(rng.uniform(0.0, np.pi))
        order = int(rng.choice([8, 16, 32]))
        lam = assemble(cell, k, order).eigenvalues
        # the window's floor is the cell's quasistatic speed squared, <1/G>^-1 / <rho>
        c2 = 1.0 / cell.mean("1/G") / cell.mean("rho")
        points = [0.5 * lam[0], 0.5 * (lam[0] + lam[1]), 0.5 * (lam[1] + lam[2])]
        for j in (0, 1, 2):
            for r in (RESONANCE_RTOL / 4, 4 * RESONANCE_RTOL, 1e-3):
                points += [lam[j] - r * (c2 + abs(lam[j])), lam[j] + r * (c2 + abs(lam[j]))]
        for omega_sq in points:
            if omega_sq < 0:
                continue
            rel = np.min(np.abs(lam - omega_sq) / (c2 + np.abs(lam)))
            if RESONANCE_RTOL / 2 <= rel <= 2 * RESONANCE_RTOL:
                continue
            # a fresh operator, so the certificate decides before any eigenvalue exists
            assert _raises(assemble(cell, k, order), float(omega_sq)) == (rel < RESONANCE_RTOL / 2)
            decided += 1
    assert decided > 400


def test_long_wave_solve_never_forms_the_spectrum() -> None:
    op = assemble(bilaminate(0.1, 0.1), 0.5, 32)
    resolvent_solve(op, 0.2, op.load(DIPOLE))
    assert "eigenvalues" not in op.__dict__


def _inverted_pencil_lowest(op) -> float:
    """Lowest eigenvalue of A c = lam B c as 1 / the largest of an inverted pencil.

    With T(1/G) = L L^H and d = L^-1 K c the pencil becomes
    L^H K^-1 B K^-1 L d = (1/lam) d: the lowest eigenvalue is the reciprocal
    of the largest one, which any Hermitian eigensolver gets to roundoff
    relative to itself (k must not be a multiple of 2 pi).
    """
    n = op.order
    t = fourier_coefficients(op.cell, ("1/G",), 2 * n)[0].coeffs
    m = np.arange(-n, n + 1)
    L = np.linalg.cholesky(t[m[:, None] - m[None, :] + 2 * n])
    H = L.conj().T @ (op.mass / np.outer(op.wavenumbers, op.wavenumbers)) @ L
    return 1.0 / np.linalg.eigvalsh(0.5 * (H + H.conj().T))[-1]


@pytest.mark.parametrize("order", [8, 32, 128])
def test_lowest_eigenvalue_matches_the_full_spectrum(order: int) -> None:
    # the graded reduced pencil keeps the lowest eigenvalue accurate relative
    # to itself down to k = 1e-3, where it is ~1e-6 of the pencil's scale
    rng = np.random.default_rng(order)
    cells = [homogeneous(), bilaminate(0.1, 0.1), _random_cell(rng), _random_cell(rng)]
    for cell in cells:
        for k in (1e-3, 0.3, 1.5, np.pi, 5.0):
            op = assemble(cell, k, order)
            ref = _inverted_pencil_lowest(op)
            assert abs(op.eigenvalues[0] - ref) <= 1e-10 * ref, (cell_digest(cell), k)
        op = assemble(cell, 0.0, order)
        floor = np.finfo(float).eps * np.linalg.norm(op.stiffness, 2) / np.linalg.eigvalsh(op.mass)[0]
        assert abs(op.eigenvalues[0]) <= 64 * floor, cell_digest(cell)


def test_lowest_eigenvalue_of_a_degenerate_pair() -> None:
    # the uniform cell's two lowest modes meet at the zone edge
    op = assemble(homogeneous(), np.pi, 32)
    assert op.eigenvalues[1] - op.eigenvalues[0] < 1e-10
    assert_allclose(op.eigenvalues[0], np.pi**2, rtol=1e-12)


def _dense_G_matrix(cell, order: int) -> np.ndarray:
    t = fourier_coefficients(cell, ("1/G",), 2 * order)[0].coeffs
    m = np.arange(-order, order + 1)
    return np.linalg.inv(t[m[:, None] - m[None, :] + 2 * order])


def test_dipole_load_and_mean_flux_match_per_mode_coefficients() -> None:
    # both read Li's G matrix, T(1/G)^-1: the load is -i k_m times its
    # constant-mode column, the mean flux its constant-mode row against the
    # strain i k_m c_m, less gamma in the constant mode for a load of strain gamma
    op = assemble(bilaminate(0.2, 0.4), 0.7, 128)
    g = _dense_G_matrix(op.cell, op.order)
    i0 = op.index0
    scale = np.max(np.abs(g))
    assert np.max(np.abs(op.load(DIPOLE) - (-1j * op.wavenumbers * g[:, i0]))) <= 1e-12 * scale * np.max(np.abs(op.wavenumbers))
    c = np.random.default_rng(5).standard_normal((op.size, 2)) @ np.array([1.0, 1j])
    ref = complex(np.sum(g[i0] * 1j * op.wavenumbers * c))
    assert abs(op.response(c, MONOPOLE).mean_flux - ref) <= 1e-12 * scale * np.sum(np.abs(op.wavenumbers * c))
    assert abs(op.response(c, DIPOLE).mean_flux - (ref - g[i0, i0])) <= 1e-12 * scale * np.sum(np.abs(op.wavenumbers * c))


def _random_G_cell(rng: np.random.Generator, n_phases: int) -> UnitCell1D:
    """Random lengths, G in [1e-2, 1e2], rho = 1."""
    lengths = rng.dirichlet(np.ones(n_phases))
    lengths[-1] = 1.0 - lengths[:-1].sum()
    moduli = 10.0 ** rng.uniform(-2.0, 2.0, n_phases)
    return UnitCell1D(tuple(Phase(float(h), float(g), 1.0) for h, g in zip(lengths, moduli)))


@pytest.mark.parametrize("n_phases", [1, 2, 3, 4, 5, 6])
def test_toeplitz_inverse_matches_dense_inverse(n_phases: int) -> None:
    rng = np.random.default_rng(n_phases)
    for order in (4, 16, 32, 33, 64):
        cell = _random_G_cell(rng, n_phases)
        ref = _dense_G_matrix(cell, order)
        got = toeplitz_inverse(fourier_coefficients(cell, ("1/G",), 2 * order)[0].coeffs[2 * order :])
        assert np.array_equal(got, got.conj().T)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), (order, cell_digest(cell))


def _counting_levinson(monkeypatch) -> list:
    sizes = []
    levinson = spectral._levinson

    def counted(t):
        sizes.append(t.size)
        return levinson(t)

    monkeypatch.setattr(spectral, "_levinson", counted)
    return sizes


@pytest.mark.parametrize("order, calls", [(4, 0), (8, 0), (16, 0), (32, 0), (33, 1), (64, 1)])
def test_li_g_is_dense_up_to_order_32(monkeypatch, order: int, calls: int) -> None:
    # one LU beats Levinson's Python loop up to 2N + 1 = 65 modes
    sizes = _counting_levinson(monkeypatch)
    assemble(bilaminate(0.1, 0.1), 0.5, order)
    assert sizes == [2 * order + 1] * calls


@pytest.mark.parametrize("order", [4, 8, 16, 32])
def test_dense_and_levinson_inverses_agree(order: int) -> None:
    rng = np.random.default_rng(order)
    for n_phases in (1, 2, 3, 6):
        cell = _random_G_cell(rng, n_phases)
        t = fourier_coefficients(cell, ("1/G",), 2 * order)[0].coeffs[2 * order :].astype(complex)
        dense, levinson = spectral._dense_inverse(t), spectral._trench(t)
        for g in (dense, levinson):
            assert np.array_equal(g, g.conj().T)
            assert not np.any(g.diagonal().imag)
        assert np.max(np.abs(dense - levinson)) <= 1e-12 * np.max(np.abs(levinson)), cell_digest(cell)


def test_mean_G_is_the_harmonic_mean_at_the_lowest_order() -> None:
    # a one-mode basis has T(1/G) = <1/G>; Li's <G>, the constant mode of
    # T(1/G)^{-1} e_0, rises towards <G> with N
    cell = bilaminate(0.1, 0.1)
    g = toeplitz_inverse(fourier_coefficients(cell, ("1/G",), 0)[0].coeffs)
    assert_allclose(g[0, 0], 1.0 / cell.mean("1/G"), rtol=1e-15)
    means = [assemble(cell, 0.5, n).G_matrix[n, n].real for n in (4, 16, 64)]
    assert 1.0 / cell.mean("1/G") < means[0] < means[1] < means[2] < cell.mean("G")


_STACKED_SOLVE = """
import numpy as np
from willis_homog.exact import _LOADS
from willis_homog.material import bilaminate
from willis_homog.spectral import assemble, resolvent_solve
for n in (8, 32, 128):
    op = assemble(bilaminate(0.1, 0.1), 0.5, n)
    loads = [op.load(_LOADS["monopole"]), op.load(_LOADS["dipole"])]
    stacked = resolvent_solve(op, 0.2, np.stack(loads, axis=1))
    for j, load in enumerate(loads):
        assert np.array_equal(stacked[:, j], resolvent_solve(op, 0.2, load)), (n, j)
"""


def test_stacked_resolvent_solve_equals_separate_solves() -> None:
    # bit-equal with one BLAS thread, as the benchmark runs; a threaded BLAS
    # may split a multi-column solve differently, which moves it by roundoff
    src = str(Path(spectral.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", _STACKED_SOLVE], env=env, check=True)
    op = assemble(bilaminate(0.1, 0.1), 0.5, 128)
    stacked = resolvent_solve(op, 0.2, np.stack([op.load(MONOPOLE), op.load(DIPOLE)], axis=1))
    separate = resolvent_solve(op, 0.2, op.load(DIPOLE))
    assert np.linalg.norm(stacked[:, 1] - separate) <= 1e-12 * np.linalg.norm(separate)


#: every spectral entry point, called at one truncation order
ORDER_ENTRY_POINTS = {
    "assemble": lambda order: assemble(bilaminate(0.1, 0.1), 0.5, order),
    "homogenize": lambda order: homogenize(bilaminate(0.1, 0.1), method="spectral", order=order),
    "effective_impedance": lambda order: effective_impedance(
        bilaminate(0.1, 0.1), 0.5, 0.2, method="spectral", order=order
    ),
    "spectral_acoustic_branch": lambda order: spectral_acoustic_branch(bilaminate(0.1, 0.1), [0.5], order=order),
    # the branch is 0 at k = 0 with nothing assembled, and still checks the order
    "spectral_acoustic_branch-k=0": lambda order: spectral_acoustic_branch(bilaminate(0.1, 0.1), [0.0], order=order),
}


@pytest.mark.parametrize("order", [2, True, "8", 8.5, 8.0, None])
@pytest.mark.parametrize("entry", list(ORDER_ENTRY_POINTS))
def test_spectral_order_is_checked_in_one_place(entry: str, order) -> None:
    with pytest.raises(ValidationError, match=rf"order must be an integer >= 4, got {re.escape(repr(order))}"):
        ORDER_ENTRY_POINTS[entry](order)


@pytest.mark.parametrize("order", [np.int64(8), np.int32(8), 8])
def test_spectral_order_accepts_numpy_integers(order) -> None:
    assert spectral.check_order(order) == 8 and type(spectral.check_order(order)) is int
    assert assemble(bilaminate(0.1, 0.1), 0.5, order).order == 8
