from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from willis_homog import dispersion
from willis_homog.asymptotics import homogenize
from willis_homog.dispersion import (
    ROOT_TOL,
    SCAN_STEP,
    effective_speed,
    exact_branch,
    order2_branch,
    quasistatic_branch,
    spectral_acoustic_branch,
    willis_exact_root,
)
from willis_homog.errors import NumericalError, ResonanceError
from willis_homog.exact import dispersion_function
from willis_homog.material import Phase, UnitCell1D, bilaminate, cell_digest, homogeneous
from willis_homog.spectral import BRANCH_RTOL, DEFAULT_ORDER
from willis_homog.willis import effective_impedance

BILAMINATE = bilaminate(0.1, 0.1)

# first root of the half-trace hitting -1 (the k = pi band edge), found by
# bisection on the closed-form relation
BAND_EDGE = 1.2251094766784818


def exact_bilaminate_relation(cell: UnitCell1D, omega):
    """Closed-form half-trace D(omega) of a two-phase cell, an oracle for the trace route.

    cos(w h1/c1) cos(w h2/c2) - (z1/z2 + z2/z1)/2 sin(w h1/c1) sin(w h2/c2)
    with c_j the phase speeds and z_j the phase impedances.
    """
    p1, p2 = cell.phases
    c1, c2 = np.sqrt(p1.G / p1.rho), np.sqrt(p2.G / p2.rho)
    z1, z2 = np.sqrt(p1.G * p1.rho), np.sqrt(p2.G * p2.rho)
    a1 = np.asarray(omega) * p1.length / c1
    a2 = np.asarray(omega) * p2.length / c2
    return np.cos(a1) * np.cos(a2) - 0.5 * (z1 / z2 + z2 / z1) * np.sin(a1) * np.sin(a2)


def test_uniform_cell_branch_is_linear() -> None:
    k = np.linspace(0.0, 3.0, 12)
    branch = exact_branch(homogeneous(), k)
    assert branch.label == "exact"
    assert_allclose(branch.omega, k, atol=1e-9)


def test_closed_form_relation_matches_trace() -> None:
    for omega in (0.3, 0.9, 1.7, 2.8):
        lhs = exact_bilaminate_relation(BILAMINATE, omega)
        rhs = dispersion_function(BILAMINATE, omega)
        assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("k", [0.1, 0.5, 1.0, 1.5, 2.0, 3.0])
def test_exact_branch_solves_trace_equation(k: float) -> None:
    omega = exact_branch(BILAMINATE, np.array([k])).omega[0]
    assert abs(dispersion_function(BILAMINATE, omega) - np.cos(k)) < 1e-10


def test_band_edge_value() -> None:
    omega = exact_branch(BILAMINATE, np.array([np.pi])).omega[0]
    assert_allclose(omega, BAND_EDGE, rtol=1e-10)


def test_impedance_root_matches_trace_root() -> None:
    k = 0.5
    w_trace = exact_branch(BILAMINATE, np.array([k])).omega[0]
    w_imp = willis_exact_root(BILAMINATE, k)
    assert abs(w_trace - w_imp) < 1e-6


@pytest.mark.parametrize("k", [0.5, 1.5])
def test_impedance_root_lies_at_the_low_edge_of_the_resonance_window(k: float) -> None:
    # a resonant scan point counts as Z = 0, so the bisection ends where the
    # exact route's resonance window opens: below the branch by its half-width
    w_branch = exact_branch(BILAMINATE, np.array([k])).omega[0]
    assert 0.0 < (w_branch - willis_exact_root(BILAMINATE, k)) / w_branch <= 2e-10


def test_spectral_branch_converges_to_exact() -> None:
    k = np.array([0.5, 1.5])
    w_trace = exact_branch(BILAMINATE, k).omega
    errs = []
    for n in (32, 128):
        w_spec = spectral_acoustic_branch(BILAMINATE, k, order=n).omega
        errs.append(np.max(np.abs(w_spec - w_trace)))
    assert errs[1] < 0.5 * errs[0] < 1e-2


#: shortest phase of the cells the spectral default is held to, as a fraction of the cell
_MIN_PHASE = 1.0 / 16.0


@st.composite
def resolved_cells(draw) -> UnitCell1D:
    """1-6 phases, each at least 1/16 of the cell, with G and rho spread over up to 1e3.

    A phase much thinner than the basis resolves, slow enough to hold a
    sizeable part of a wavelength, needs a larger N than the default: a
    0.05-long phase with G = 1 and rho = 1e3 in a G = 1e3, rho = 1 host
    misses the k = 1.5 branch by 1.3e-3 at N = 32.
    """
    n = draw(st.integers(1, 6))
    weights = [draw(st.floats(0.0, 1.0)) for _ in range(n)]
    total = sum(weights)
    free = 1.0 - n * _MIN_PHASE
    lengths = [_MIN_PHASE + free * (w / total if total > 0 else 1.0 / n) for w in weights]
    lengths[-1] = 1.0 - sum(lengths[:-1])
    moduli = [10 ** draw(st.floats(0.0, 3.0)) for _ in range(n)]
    densities = [10 ** draw(st.floats(0.0, 3.0)) for _ in range(n)]
    return UnitCell1D(tuple(Phase(h, G, r) for h, G, r in zip(lengths, moduli, densities)))


_SETTINGS = settings(max_examples=40, derandomize=True, deadline=None)


@_SETTINGS
@given(cell=resolved_cells())
def test_spectral_branch_at_the_default_order_meets_its_gate(cell: UnitCell1D) -> None:
    k = np.array([0.5, 1.5])
    w_exact = exact_branch(cell, k).omega
    w_spec = spectral_acoustic_branch(cell, k, order=DEFAULT_ORDER).omega
    assert np.all(np.abs(w_spec - w_exact) <= BRANCH_RTOL * w_exact), cell_digest(cell)


@_SETTINGS
@given(cell=resolved_cells(), shift=st.integers(1, 5), k=st.floats(0.1, 3.0))
def test_cyclic_rotation_keeps_the_spectral_branch(cell: UnitCell1D, shift: int, k: float) -> None:
    s = shift % len(cell.phases)
    rotated = UnitCell1D(cell.phases[s:] + cell.phases[:s])
    w = spectral_acoustic_branch(cell, [k]).omega[0]
    assert abs(spectral_acoustic_branch(rotated, [k]).omega[0] - w) <= 1e-8 * w


@_SETTINGS
@given(cell=resolved_cells(), k=st.floats(0.1, 3.0))
def test_mirror_with_reversed_wavenumber_keeps_the_spectral_branch(cell: UnitCell1D, k: float) -> None:
    mirrored = UnitCell1D(tuple(reversed(cell.phases)))
    w = spectral_acoustic_branch(cell, [k]).omega[0]
    assert abs(spectral_acoustic_branch(mirrored, [-k]).omega[0] - w) <= 1e-8 * w


@settings(max_examples=30, derandomize=True, deadline=None)
@given(cell=resolved_cells(), log_a=st.floats(-6.0, 6.0), log_b=st.floats(-6.0, 6.0))
def test_impedance_root_is_unit_free(cell: UnitCell1D, log_a: float, log_b: float) -> None:
    # (G, rho) -> (aG, b rho) scales every speed, so every root, by sqrt(a/b)
    a, b = 10.0**log_a, 10.0**log_b
    speed = np.sqrt(a / b)
    scaled = UnitCell1D(tuple(Phase(p.length, a * p.G, b * p.rho) for p in cell.phases))
    w_branch = exact_branch(scaled, [0.5, 1.5]).omega
    w_unscaled = exact_branch(cell, [0.5, 1.5]).omega
    assert_allclose(w_branch, speed * w_unscaled, rtol=1e-9, err_msg=cell_digest(scaled))
    for k, w_b in zip((0.5, 1.5), w_branch):
        w_root = willis_exact_root(scaled, k)
        assert abs(w_root - w_b) <= 1e-9 * w_b, cell_digest(scaled)
        assert abs(w_root - speed * willis_exact_root(cell, k)) <= 1e-9 * w_root, cell_digest(scaled)


@settings(max_examples=10, derandomize=True, deadline=None)
@given(cell=resolved_cells(), log_a=st.floats(-6.0, 6.0), log_b=st.floats(-6.0, 6.0))
def test_spectral_branch_is_unit_free(cell: UnitCell1D, log_a: float, log_b: float) -> None:
    # (G, rho) -> (aG, b rho) scales the Galerkin eigenvalues by a/b
    a, b = 10.0**log_a, 10.0**log_b
    scaled = UnitCell1D(tuple(Phase(p.length, a * p.G, b * p.rho) for p in cell.phases))
    w = spectral_acoustic_branch(cell, [0.5, 1.5], order=16).omega
    w_scaled = spectral_acoustic_branch(scaled, [0.5, 1.5], order=16).omega
    assert_allclose(w_scaled, np.sqrt(a / b) * w, rtol=1e-9, err_msg=cell_digest(scaled))


def test_order2_branch_improves_on_quasistatic() -> None:
    _, coeffs = homogenize(BILAMINATE, method="exact")
    k = np.linspace(0.5, 2.0, 7)
    w_exact = exact_branch(BILAMINATE, k).omega
    w_2 = order2_branch(coeffs, k).omega
    w_qs = quasistatic_branch(coeffs, k).omega
    assert np.all(np.abs(w_2 - w_exact) < np.abs(w_qs - w_exact))


def test_order2_branch_terminates_past_radicand_zero() -> None:
    _, coeffs = homogenize(BILAMINATE, method="exact")
    k_end = np.sqrt(coeffs.mu0 / coeffs.mu2)
    k = np.linspace(0.5, 1.2 * k_end, 25)
    branch = order2_branch(coeffs, k)
    assert branch.terminated_at is not None
    assert branch.omega.size < k.size
    assert branch.label == "order2"


def test_quasistatic_branch_is_linear_with_effective_speed() -> None:
    _, coeffs = homogenize(BILAMINATE, method="exact")
    c = effective_speed(coeffs)
    assert_allclose(c, np.sqrt(coeffs.mu0 / coeffs.rho0), rtol=1e-15)
    k = np.linspace(0.0, 2.0, 5)
    branch = quasistatic_branch(coeffs, k)
    assert_allclose(branch.omega, c * k, rtol=1e-14)


def test_exact_branch_slope_at_origin_is_effective_speed() -> None:
    _, coeffs = homogenize(BILAMINATE, method="exact")
    k = 1e-3
    omega = exact_branch(BILAMINATE, np.array([k])).omega[0]
    assert abs(omega / k - effective_speed(coeffs)) < 1e-6


# -- bitwise regression against the point-by-point scan ----------------------

THREE_PHASE = UnitCell1D(
    phases=(Phase(0.3, 1.0, 1.0), Phase(0.5, 0.2, 3.0), Phase(0.2, 2.5, 0.4))
)
SIX_PHASE = UnitCell1D(
    phases=(
        Phase(0.10, 4.0, 0.5),
        Phase(0.25, 0.3, 2.0),
        Phase(0.05, 7.5, 9.0),
        Phase(0.20, 1.2, 0.1),
        Phase(0.15, 0.6, 4.4),
        Phase(0.25, 2.9, 1.7),
    )
)
K64 = np.linspace(0.0, np.pi, 64, endpoint=False)


def _reference_half_trace(cell: UnitCell1D, omega: float) -> float:
    """D(omega) by one numpy 2x2 product per phase, a scalar at a time."""
    M = np.eye(2)
    for p in cell.phases:
        q = float(omega) * np.sqrt(p.rho / p.G)
        c = np.cos(q * p.length)
        s = p.length * np.sinc(q * p.length / np.pi)
        M = np.array([[c, s / p.G], [-p.rho * omega**2 * s, c]]) @ M
    return float(0.5 * np.trace(M))


def _rayleigh_bound(k, c: float) -> float:
    """(1.1 max|k| + 0.05) c, the default omega_max of both exact roots."""
    return (1.1 * float(np.max(np.abs(k))) + 0.05) * c


def _reference_scan_points(start: float, step: float, limit: float) -> list[float]:
    """start, then min(a + step, limit) accumulated a point at a time up to limit."""
    points = [start]
    while points[-1] < limit:
        points.append(min(points[-1] + step, limit))
    return points


def _reference_root(fn, start: float, c: float, omega_max: float) -> float | None:
    """First sign change of the scalar fn by scan in steps of SCAN_STEP c from
    start, bisected to within ROOT_TOL c; None without one below omega_max."""
    points = _reference_scan_points(start, SCAN_STEP * c, omega_max)
    fa = fn(points[0])
    for a, b in zip(points, points[1:]):
        fb = fn(b)
        if fa * fb <= 0.0:
            for _ in range(200):
                mid = 0.5 * (a + b)
                if b - a <= ROOT_TOL * c:
                    return mid
                fm = fn(mid)
                if fa * fm <= 0.0:
                    b = mid
                else:
                    a, fa = mid, fm
            return 0.5 * (a + b)
        fa = fb
    return None


def _reference_branch(rel, k_grid, c: float) -> np.ndarray:
    """Lowest root of rel(omega) = cos k by scan plus bisection, one k at a
    time, up to the Rayleigh bound."""
    out = np.empty_like(k_grid)
    for i, k in enumerate(k_grid):
        target = np.cos(k)
        if abs(target - 1.0) < 1e-15:
            out[i] = 0.0
            continue
        root = _reference_root(lambda w: rel(w) - target, 0.0, c, _rayleigh_bound(k_grid, c))
        assert root is not None, f"reference scan found no crossing for k = {k}"
        out[i] = root
    return out


def _reference_impedance_root(cell: UnitCell1D, k: float) -> float:
    """First sign change of Re Z from 1e-9 c, a resonant point counting as
    Z = 0, by the same scalar scan and bisection."""

    def z(w: float) -> float:
        try:
            return effective_impedance(cell, k, w, method="exact").real
        except ResonanceError:
            return 0.0

    root = _reference_root(z, 1e-9 * cell.c, cell.c, _rayleigh_bound(k, cell.c))
    assert root is not None, f"reference scan found no impedance root for k = {k}"
    return root


@pytest.mark.parametrize(
    "cell",
    [bilaminate(0.1, 0.1), bilaminate(0.5, 0.5), THREE_PHASE, SIX_PHASE],
    ids=["bilaminate(0.1,0.1)", "bilaminate(0.5,0.5)", "3-phase", "6-phase"],
)
def test_exact_branch_matches_pointwise_scan_bitwise(cell: UnitCell1D) -> None:
    c = np.sqrt(cell.mean("G") / cell.mean("rho"))
    ref = _reference_branch(lambda w: _reference_half_trace(cell, w), K64, c)
    assert np.array_equal(exact_branch(cell, K64).omega, ref)


def test_exact_branch_closed_form_matches_pointwise_scan_bitwise() -> None:
    def rel(w):
        return exact_bilaminate_relation(BILAMINATE, w)

    batched = exact_branch(BILAMINATE, K64, relation=rel).omega
    assert np.array_equal(batched, _reference_branch(rel, K64, 1.0))  # <G> = <rho>, so c = 1


@settings(max_examples=20, derandomize=True, deadline=None)
@given(cell=resolved_cells())
def test_exact_branch_matches_pointwise_scan_bitwise_on_drawn_cells(cell: UnitCell1D) -> None:
    values: dict[float, float] = {}  # D does not depend on k: each k's scan reads the same points

    def rel(w: float) -> float:
        if w not in values:
            values[w] = _reference_half_trace(cell, w)
        return values[w]

    k = np.linspace(0.0, np.pi, 16, endpoint=False)
    ref = _reference_branch(rel, k, cell.c)
    assert np.array_equal(exact_branch(cell, k).omega, ref), cell_digest(cell)


def test_exact_branch_calls_the_relation_once_on_the_grid_then_once_per_bisection_step() -> None:
    sizes = []

    def rel(w):
        sizes.append(np.size(w))
        return exact_bilaminate_relation(BILAMINATE, w)

    exact_branch(BILAMINATE, K64, relation=rel)  # <G> = <rho>, so c = 1
    grid = _reference_scan_points(0.0, SCAN_STEP, _rayleigh_bound(K64, 1.0))
    # every bracket is one scan step wide, so the 63 k with cos k < 1 halve in lockstep
    steps = int(np.ceil(np.log2(SCAN_STEP / ROOT_TOL)))
    assert sizes == [len(grid)] + [63] * steps


@pytest.mark.parametrize("k", [0.5, 1.5])
@pytest.mark.parametrize(
    "cell", [BILAMINATE, THREE_PHASE, SIX_PHASE], ids=["fig2", "3-phase", "6-phase"]
)
def test_willis_exact_root_matches_pointwise_scan_bitwise(cell: UnitCell1D, k: float) -> None:
    assert willis_exact_root(cell, k) == _reference_impedance_root(cell, k)


def test_willis_exact_root_evaluates_the_impedance_once_per_point(monkeypatch) -> None:
    omegas = []

    def counted(cell, k, omega, **kwargs):
        omegas.append(omega)
        return effective_impedance(cell, k, omega, **kwargs)

    monkeypatch.setattr(dispersion, "effective_impedance", counted)
    willis_exact_root(BILAMINATE, 1.5)
    assert len(omegas) == len(set(omegas))


@pytest.mark.parametrize("cell", [BILAMINATE, THREE_PHASE, SIX_PHASE])
def test_dispersion_function_on_array_equals_scalar_calls(cell: UnitCell1D) -> None:
    omega = np.concatenate(([0.0], np.random.default_rng(7).uniform(0.0, 20.0, 500)))
    batched = dispersion_function(cell, omega)
    scalar = [dispersion_function(cell, w) for w in omega.tolist()]
    assert np.array_equal(batched, scalar)
    assert np.array_equal(batched, [_reference_half_trace(cell, w) for w in omega.tolist()])
    assert type(dispersion_function(cell, 0.7)) is float
    assert dispersion_function(cell, omega.reshape(3, -1)).shape == (3, 167)


def test_exact_branch_error_names_k_and_cell() -> None:
    # c = 10, so k = 3 needs omega = 30, past omega_max = 20
    stiff = homogeneous(100.0, 1.0)
    with pytest.raises(NumericalError) as err:
        exact_branch(stiff, [1.0, 3.0], omega_max=20.0)
    msg = str(err.value)
    assert "exact_branch" in msg
    assert "k = 3.0" in msg
    assert "omega_max = 20" in msg
    assert cell_digest(stiff) in msg


def test_exact_branch_default_bound_scales_with_the_cell() -> None:
    k = np.array([1.0, 3.0])
    assert_allclose(exact_branch(homogeneous(100.0, 1.0), k).omega, 10.0 * k, rtol=1e-10)


def test_willis_exact_root_error_names_k_and_cell() -> None:
    with pytest.raises(NumericalError) as err:
        willis_exact_root(BILAMINATE, 3.0, omega_max=0.5)
    msg = str(err.value)
    assert "willis_exact_root" in msg
    assert "k = 3.0" in msg
    assert cell_digest(BILAMINATE) in msg
