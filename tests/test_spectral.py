from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from willis_homog.errors import ResonanceError
from willis_homog.material import bilaminate, cell_digest, homogeneous
from willis_homog.spectral import (
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
