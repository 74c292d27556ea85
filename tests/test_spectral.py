from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from willis_homog import spectral
from willis_homog.errors import NumericalError, ResonanceError
from willis_homog.material import Phase, UnitCell1D, bilaminate, cell_digest, homogeneous
from willis_homog.spectral import (
    RESONANCE_RTOL,
    assemble,
    projected_solve,
    resolvent_solve,
    solve_eigensystem,
)


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
    r = op.monopole_load()
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
        load = op.dipole_load()
        direct = resolvent_solve(op, omega, load)
        modal = eig.modal_solution(load, omega**2)
        assert op.rho_norm(direct - modal) < 1e-8 * max(op.rho_norm(direct), 1e-30)


def test_resolvent_refuses_resonant_frequency() -> None:
    op = assemble(bilaminate(0.1, 0.1), 0.5, 32)
    omega = float(np.sqrt(op.eigenvalues[0]))
    with pytest.raises(ResonanceError):
        resolvent_solve(op, omega, op.monopole_load())


def test_projected_solve_is_orthogonal_to_cluster() -> None:
    cell = homogeneous()
    k = 1.0
    op = assemble(cell, k, 16)
    eig = solve_eigensystem(op)
    # the second eigenvalue of the uniform cell carries a mean-free mode,
    # so the monopole load satisfies the solvability condition there
    lam = eig.eigenvalues[1]
    c = projected_solve(eig, float(lam), op.monopole_load())
    cluster = eig.cluster(1)
    amps = eig.projection(c)
    assert max(abs(amps[j]) for j in cluster) < 1e-10


def test_mean_flux_on_uniform_cell() -> None:
    # with G constant the zeroth mode of G D_k u comes from the constant
    # mode of u alone: <G D_k u> = G i k c_0
    k = 0.4
    op = assemble(homogeneous(2.0, 1.0), k, 4)
    c0 = np.zeros(op.size, dtype=complex)
    c0[op.index0] = 1.0
    assert_allclose(op.mean_flux(c0), 2.0 * 1j * k, rtol=1e-14)
    c1 = np.zeros(op.size, dtype=complex)
    c1[op.index0 + 1] = 1.0
    assert_allclose(op.mean_flux(c1), 0.0, atol=1e-14)


def test_resonance_error_names_location() -> None:
    cell = homogeneous()
    op = assemble(cell, 1.0, 8)
    with pytest.raises(ResonanceError) as info:
        resolvent_solve(op, 1.0, op.monopole_load())
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
        points = [0.5 * lam[0], 0.5 * (lam[0] + lam[1]), 0.5 * (lam[1] + lam[2])]
        for j in (0, 1, 2):
            for r in (RESONANCE_RTOL / 4, 4 * RESONANCE_RTOL, 1e-3):
                points += [lam[j] - r * (1 + abs(lam[j])), lam[j] + r * (1 + abs(lam[j]))]
        for omega_sq in points:
            if omega_sq < 0:
                continue
            rel = np.min(np.abs(lam - omega_sq) / (1.0 + np.abs(lam)))
            if RESONANCE_RTOL / 2 <= rel <= 2 * RESONANCE_RTOL:
                continue
            # a fresh operator, so the certificate decides before any eigenvalue exists
            assert _raises(assemble(cell, k, order), float(omega_sq)) == (rel < RESONANCE_RTOL / 2)
            decided += 1
    assert decided > 400


def test_long_wave_solve_never_forms_the_spectrum() -> None:
    op = assemble(bilaminate(0.1, 0.1), 0.5, 32)
    resolvent_solve(op, 0.2, op.dipole_load())
    assert "eigenvalues" not in op.__dict__


@pytest.mark.parametrize("order", [8, 32, 128])
def test_lowest_eigenvalue_matches_the_full_spectrum(order: int) -> None:
    rng = np.random.default_rng(order)
    cells = [homogeneous(), bilaminate(0.1, 0.1), _random_cell(rng), _random_cell(rng)]
    for cell in cells:
        for k in (0.0, 1e-3, 0.3, 1.5, np.pi, 5.0):
            op = assemble(cell, k, order)
            lam = op.lowest_eigenvalue()
            ref = op.eigenvalues[0]
            floor = np.finfo(float).eps * np.linalg.norm(op.stiffness, 2) / np.linalg.eigvalsh(op.mass)[0]
            assert abs(lam - ref) <= 1e-10 * abs(ref) + 64 * floor, (cell_digest(cell), k)


def test_lowest_eigenvalue_of_a_degenerate_pair() -> None:
    # the uniform cell's two lowest modes meet at the zone edge
    op = assemble(homogeneous(), np.pi, 32)
    assert op.eigenvalues[1] - op.eigenvalues[0] < 1e-10
    assert_allclose(op.lowest_eigenvalue(), np.pi**2, rtol=1e-12)


def test_lowest_eigenvalue_errors_name_location(monkeypatch) -> None:
    cell = bilaminate(0.1, 0.1)
    where = ("k = 0.5", "N = 16", cell_digest(cell))
    monkeypatch.setattr(spectral, "LOWEST_MAXITER", 1)
    with pytest.raises(NumericalError, match="did not converge") as info:
        assemble(cell, 0.5, 16).lowest_eigenvalue()
    assert all(w in str(info.value) for w in where)
    monkeypatch.undo()

    ritz = spectral._rayleigh_ritz

    def ritz_too_high(A, B, X):
        vals, vectors = ritz(A, B, X)
        return vals + 1.0, vectors

    monkeypatch.setattr(spectral, "_rayleigh_ritz", ritz_too_high)
    with pytest.raises(NumericalError, match="lies below") as info:
        assemble(cell, 0.5, 16).lowest_eigenvalue()
    assert all(w in str(info.value) for w in where)


def test_dipole_load_and_mean_flux_match_per_mode_coefficients() -> None:
    op = assemble(bilaminate(0.2, 0.4), 0.7, 128)
    orders = range(-op.order, op.order + 1)
    g = np.array([op.G_hat.coefficient(m) for m in orders])
    g_reflected = np.array([op.G_hat.coefficient(-m) for m in orders])
    assert np.array_equal(op.dipole_load(), -1j * op.wavenumbers * g)
    c = np.random.default_rng(5).standard_normal((op.size, 2)) @ np.array([1.0, 1j])
    assert op.mean_flux(c) == complex(np.sum(g_reflected * 1j * op.wavenumbers * c))


_STACKED_SOLVE = """
import numpy as np
from willis_homog.material import bilaminate
from willis_homog.spectral import assemble, resolvent_solve
for n in (8, 32, 128):
    op = assemble(bilaminate(0.1, 0.1), 0.5, n)
    loads = [op.monopole_load(), op.dipole_load()]
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
    stacked = resolvent_solve(op, 0.2, np.stack([op.monopole_load(), op.dipole_load()], axis=1))
    separate = resolvent_solve(op, 0.2, op.dipole_load())
    assert np.linalg.norm(stacked[:, 1] - separate) <= 1e-12 * np.linalg.norm(separate)
