from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from willis_homog import dispersion, exact
from willis_homog.asymptotics import homogenize
from willis_homog.verify import build_verification_report
from willis_homog.dispersion import (
    ROOT_BRACKET,
    ROOT_TOL,
    SCAN_STEP,
    effective_speed,
    exact_branch,
    order2_branch,
    quasistatic_branch,
    spectral_acoustic_branch,
    willis_exact_root,
)
from willis_homog.errors import NumericalError, ValidationError
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
    w_imp = willis_exact_root(BILAMINATE, k, w_trace)
    assert abs(w_trace - w_imp) < 1e-6


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
    for k, w_b, w_u in zip((0.5, 1.5), w_branch, w_unscaled):
        w_root = willis_exact_root(scaled, k, w_b)
        assert abs(w_root - w_b) <= 1e-9 * w_b, cell_digest(scaled)
        assert abs(w_root - speed * willis_exact_root(cell, k, w_u)) <= 1e-9 * w_root, cell_digest(scaled)


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


def _scan_speeds(cell: UnitCell1D) -> tuple[float, float]:
    """(c0, s): the quasistatic speed sqrt(<1/G>^-1 / <rho>), which bounds the
    branch, and the scan speed min(c, 2 c0), c = sqrt(<G>/<rho>)."""
    c0 = np.sqrt(1.0 / cell.mean("1/G") / cell.mean("rho"))
    return c0, min(np.sqrt(cell.mean("G") / cell.mean("rho")), 2.0 * c0)


def _branch_bound(k, c0: float) -> float:
    """(1.1 max|k| + 0.05) c0, the default omega_max of exact_branch."""
    return (1.1 * float(np.max(np.abs(k))) + 0.05) * c0


def _reference_scan_points(start: float, step: float, limit: float) -> list[float]:
    """start, then min(a + step, limit) accumulated a point at a time up to limit."""
    points = [start]
    while points[-1] < limit:
        points.append(min(points[-1] + step, limit))
    return points


def _reference_root(fn, s: float, omega_max: float) -> float | None:
    """First sign change of the scalar fn by scan in steps of SCAN_STEP s from
    0, bisected to within ROOT_TOL s; None without one below omega_max."""
    points = _reference_scan_points(0.0, SCAN_STEP * s, omega_max)
    fa = fn(points[0])
    for a, b in zip(points, points[1:]):
        fb = fn(b)
        if fa * fb <= 0.0:
            for _ in range(200):
                mid = 0.5 * (a + b)
                if b - a <= ROOT_TOL * s:
                    return mid
                fm = fn(mid)
                if fa * fm <= 0.0:
                    b = mid
                else:
                    a, fa = mid, fm
            return 0.5 * (a + b)
        fa = fb
    return None


def _reference_branch(rel, k_grid, cell: UnitCell1D) -> np.ndarray:
    """Lowest root of rel(omega) = cos k by scan plus bisection, one k at a
    time, up to the bound c0 (1.1 max|k| + 0.05)."""
    c0, s = _scan_speeds(cell)
    out = np.empty_like(k_grid)
    for i, k in enumerate(k_grid):
        target = np.cos(k)
        if abs(target - 1.0) < 1e-15:
            out[i] = 0.0
            continue
        root = _reference_root(lambda w: rel(w) - target, s, _branch_bound(k_grid, c0))
        assert root is not None, f"reference scan found no crossing for k = {k}"
        out[i] = root
    return out


@pytest.mark.parametrize(
    "cell",
    [bilaminate(0.1, 0.1), bilaminate(0.5, 0.5), THREE_PHASE, SIX_PHASE],
    ids=["bilaminate(0.1,0.1)", "bilaminate(0.5,0.5)", "3-phase", "6-phase"],
)
def test_exact_branch_matches_pointwise_scan_bitwise(cell: UnitCell1D) -> None:
    ref = _reference_branch(lambda w: _reference_half_trace(cell, w), K64, cell)
    assert np.array_equal(exact_branch(cell, K64).omega, ref)


def test_exact_branch_closed_form_matches_pointwise_scan_bitwise(monkeypatch) -> None:
    def rel(w):
        return exact_bilaminate_relation(BILAMINATE, w)

    monkeypatch.setattr(dispersion, "dispersion_function", exact_bilaminate_relation)
    batched = exact_branch(BILAMINATE, K64).omega
    assert np.array_equal(batched, _reference_branch(rel, K64, BILAMINATE))


@settings(max_examples=20, derandomize=True, deadline=None)
@given(cell=resolved_cells())
def test_exact_branch_matches_pointwise_scan_bitwise_on_drawn_cells(cell: UnitCell1D) -> None:
    values: dict[float, float] = {}  # D does not depend on k: each k's scan reads the same points

    def rel(w: float) -> float:
        if w not in values:
            values[w] = _reference_half_trace(cell, w)
        return values[w]

    k = np.linspace(0.0, np.pi, 16, endpoint=False)
    ref = _reference_branch(rel, k, cell)
    assert np.array_equal(exact_branch(cell, k).omega, ref), cell_digest(cell)


def test_exact_branch_calls_the_relation_once_on_the_grid_then_once_per_bisection_step(monkeypatch) -> None:
    sizes = []

    def rel(cell, w):
        sizes.append(np.size(w))
        return exact_bilaminate_relation(cell, w)

    monkeypatch.setattr(dispersion, "dispersion_function", rel)
    exact_branch(BILAMINATE, K64)
    c0, s = _scan_speeds(BILAMINATE)  # c0 = 0.575 c, so s = c = 1
    grid = _reference_scan_points(0.0, SCAN_STEP * s, _branch_bound(K64, c0))
    # every bracket is one scan step wide, so the 63 k with cos k < 1 halve in lockstep
    steps = int(np.ceil(np.log2(SCAN_STEP / ROOT_TOL)))
    assert sizes == [len(grid)] + [63] * steps


@pytest.mark.parametrize("k", [0.5, 1.5])
@pytest.mark.parametrize(
    "cell", [BILAMINATE, THREE_PHASE, SIX_PHASE], ids=["fig2", "3-phase", "6-phase"]
)
def test_impedance_root_lies_on_the_branch_to_a_relative_1e_11(cell: UnitCell1D, k: float) -> None:
    # Z = det/N has no pole on the branch and det = 2 exp(-ik) (cos k - D), so the
    # secant root across the bracket is the branch root up to its O(ROOT_BRACKET^2) error
    w_branch = exact_branch(cell, np.array([k])).omega[0]
    assert abs(willis_exact_root(cell, k, w_branch) - w_branch) <= 1e-11 * w_branch


@pytest.mark.parametrize(("dk", "rtol"), [(1e-3, 1e-13), (1e-5, 1e-11), (0.0, 3e-8)])
@pytest.mark.parametrize(
    ("cell", "speed"),
    [(homogeneous(1.0, 1.0), 1.0), (bilaminate(1.0, 1.0), 1.0), (bilaminate(4.0, 0.25), 0.4)],
    ids=["homogeneous(1,1)", "bilaminate(1,1)", "bilaminate(4,0.25)"],
)
def test_exact_branch_reaches_a_closed_band_edge(cell: UnitCell1D, speed: float, dk: float, rtol: float) -> None:
    # equal phase impedances close every gap: D = cos(omega / speed) only touches -1
    # at k = pi, and near it cos k lies inside D's dip between grid points; at
    # k = pi the minimum of D is flat to roundoff, so omega is known to sqrt(eps)
    k = np.pi - dk
    omega = exact_branch(cell, np.array([k])).omega[0]
    assert abs(omega - speed * k) <= rtol * speed * k


def test_exact_branch_stays_on_the_lowest_band_past_a_gap_between_scan_points() -> None:
    # the gap at k = pi is 7.7e-4 wide, a tenth of the scan step: the samples of
    # D's first dip stay above -1, and a later dip reaches cos k on a higher band
    cell = UnitCell1D((Phase(0.634, 0.0392, 10.0), Phase(0.366, 10.7, 0.08)))
    k = np.array([np.pi - 1e-3, np.pi])
    spectral = spectral_acoustic_branch(cell, k, order=64).omega
    assert_allclose(exact_branch(cell, k).omega, spectral, rtol=1e-5)


#: impedance-contrast cells whose Rayleigh speed c overstates the branch's scale
#: c0: by 2.6e3 on the first, whose first band a step of 0.01 c skips, and
#: by 5e8 on the second, whose branch lies below c0 k <= 1.4e-4
HIGH_CONTRAST = [
    UnitCell1D(
        (
            Phase(0.00163, 4.76, 0.00775),
            Phase(0.56119, 1.19e5, 8.51e-6),
            Phase(0.40151, 0.00709, 5.82e-5),
            Phase(0.03413, 7.19e-4, 8656.0),
            Phase(0.00154, 16.4, 8.35e-5),
        )
    ),
    UnitCell1D((Phase(0.5, 1e-9, 1.0), Phase(0.5, 1e9, 1.0))),
]


def _fine_branch(cell: UnitCell1D, k_grid) -> list[float]:
    """First crossing of D = cos k on a scan in steps of 2e-4 c0, bisected to 1e-15 relative."""
    c0 = _scan_speeds(cell)[0]
    grid = np.arange(0.0, (max(k_grid) + 0.05) * c0, 2e-4 * c0)
    d = np.array([_reference_half_trace(cell, w) for w in grid.tolist()])
    out = []
    for k in k_grid:
        i = int(np.argmax(d <= np.cos(k)))
        a, b = grid[i - 1], grid[i]
        while b - a > 1e-15 * b:
            mid = 0.5 * (a + b)
            a, b = (mid, b) if _reference_half_trace(cell, mid) > np.cos(k) else (a, mid)
        out.append(0.5 * (a + b))
    return out


@pytest.mark.parametrize("cell", HIGH_CONTRAST, ids=["5-phase", "G=1e-9|1e9"])
def test_exact_roots_find_the_first_band_of_high_contrast_cells(cell: UnitCell1D) -> None:
    k = [0.5, 1.5]
    ref = _fine_branch(cell, k)
    w_branch = exact_branch(cell, k).omega
    assert_allclose(w_branch, ref, rtol=1e-9)
    assert_allclose([willis_exact_root(cell, kk, w) for kk, w in zip(k, w_branch)], ref, rtol=1e-9)


@st.composite
def contrast_cells(draw) -> UnitCell1D:
    """1-6 phases, each at least 0.002 of the cell, with G and rho in 10^[-4, 4]."""
    n = draw(st.integers(1, 6))
    weights = [draw(st.floats(0.0, 1.0)) for _ in range(n)]
    total = sum(weights)
    lengths = [0.002 + (1.0 - 0.002 * n) * (w / total if total > 0 else 1.0 / n) for w in weights]
    lengths[-1] = 1.0 - sum(lengths[:-1])
    moduli = [10 ** draw(st.floats(-4.0, 4.0)) for _ in range(n)]
    densities = [10 ** draw(st.floats(-4.0, 4.0)) for _ in range(n)]
    return UnitCell1D(tuple(Phase(h, G, r) for h, G, r in zip(lengths, moduli, densities)))


@settings(max_examples=20, derandomize=True, deadline=None)
@given(cell=contrast_cells())
def test_exact_roots_agree_on_the_lowest_band_below_the_bound(cell: UnitCell1D) -> None:
    # the trial Bloch function exp(ik theta), theta' = (1/G) / <1/G>, bounds the branch by c0 |k|
    c0 = _scan_speeds(cell)[0]
    k = np.array([0.5, 1.5, 3.0])
    for kk, w_branch in zip(k, exact_branch(cell, k).omega):
        w_root = willis_exact_root(cell, kk, w_branch)
        # D' is small near the band edge at k = 3, where the two roots' arithmetic
        # parts them by up to 1.4e-11 relative on random cells of contrast up to 10^+-8
        assert abs(w_branch - w_root) <= 1e-10 * w_branch, cell_digest(cell)
        assert max(w_branch, w_root) <= c0 * kk * (1.0 + 1e-11), cell_digest(cell)
        below = np.linspace(0.0, w_branch, 4000, endpoint=False)
        assert np.all(dispersion_function(cell, below) > np.cos(kk)), cell_digest(cell)


OTHER_THREE_PHASE = UnitCell1D((Phase(0.2, 3.0, 0.5), Phase(0.5, 0.7, 2.0), Phase(0.3, 1.5, 1.1)))


@pytest.mark.parametrize("k", [0.0, 2.0 * np.pi], ids=["0", "2pi"])
@pytest.mark.parametrize("cell", [BILAMINATE, OTHER_THREE_PHASE], ids=["fig2", "3-phase"])
def test_both_exact_roots_are_zero_where_cos_k_is_one(cell: UnitCell1D, k: float) -> None:
    # Z(k, 0) is 0/0 there, so the impedance has no sign test at the root 0
    w_branch = exact_branch(cell, [k]).omega[0]
    assert w_branch == 0.0
    assert willis_exact_root(cell, k, w_branch) == 0.0


def test_willis_exact_root_evaluates_the_exact_impedance_twice_across_the_branch(monkeypatch) -> None:
    calls = []

    def counted(cell, k, omega, **kwargs):
        calls.append((k, omega, kwargs))
        return effective_impedance(cell, k, omega, **kwargs)

    monkeypatch.setattr(dispersion, "effective_impedance", counted)
    w_branch = exact_branch(BILAMINATE, [1.5]).omega[0]
    willis_exact_root(BILAMINATE, 1.5, w_branch)
    bracket = [w_branch * (1.0 - ROOT_BRACKET), w_branch * (1.0 + ROOT_BRACKET)]
    assert calls == [(1.5, w, {"method": "exact"}) for w in bracket]


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


#: exact_branch's root at k = 0.5 + 20 pi on fig2's cell, the same bits as an unbounded scan gives
FOLDED_ROOT = 0.2854628170569778


def test_exact_branch_scans_no_further_than_the_folded_bound() -> None:
    # omega_1(k) = omega_1(k~) <= c0 |k~| with k~ the fold of k into [-pi, pi]:
    # the grid at k = 0.5 + 20 pi is that at k = 0.5 up to its end, and a larger
    # omega_max is capped there
    k = 0.5 + 20.0 * np.pi
    grid, omega_max, _ = dispersion._scan_grid(BILAMINATE, np.array([k]), None)
    unfolded, bound, _ = dispersion._scan_grid(BILAMINATE, np.array([0.5]), None)
    assert abs(omega_max - bound) <= 1e-12 * bound and grid[-1] == omega_max
    assert grid.size == unfolded.size and np.array_equal(grid[:-1], unfolded[:-1])
    capped, capped_max, _ = dispersion._scan_grid(BILAMINATE, np.array([k]), 60.0)
    assert np.array_equal(capped, grid) and capped_max == omega_max
    assert exact_branch(BILAMINATE, [k]).omega[0] == FOLDED_ROOT
    assert exact_branch(BILAMINATE, [k], omega_max=1e6).omega[0] == FOLDED_ROOT
    # up to |k| = pi the bound is the unfolded one, bit for bit
    c0, _ = _scan_speeds(BILAMINATE)
    assert dispersion._scan_grid(BILAMINATE, np.array([-np.pi, 0.3]), None)[1] == _branch_bound([np.pi], c0)


def test_willis_exact_root_error_names_k_omega_and_cell() -> None:
    # half the branch root is below it, where Z > 0 across the whole bracket
    omega = 0.5 * exact_branch(BILAMINATE, [3.0]).omega[0]
    with pytest.raises(NumericalError) as err:
        willis_exact_root(BILAMINATE, 3.0, omega)
    msg = str(err.value)
    assert "willis_exact_root sign test" in msg
    assert "k = 3.0" in msg
    assert f"omega = {float(omega)!r}" in msg
    assert cell_digest(BILAMINATE) in msg


@pytest.mark.parametrize("cell", [BILAMINATE, OTHER_THREE_PHASE], ids=["fig2", "3-phase"])
def test_sign_test_fails_where_the_march_disagrees_with_the_half_trace(monkeypatch, cell: UnitCell1D) -> None:
    # a wrong sign on the first phase's b/G breaks the exact march's det;
    # dispersion_function is numpy's product of the true transfer matrices, so
    # the branch stays where it was while det's zero moves off it
    class Broken(exact._Segment):
        def __init__(self, phase, k, omega, g):
            super().__init__(phase, k, omega, g)
            if phase is cell.phases[0]:
                self.b_G = -self.b_G

    k = (0.5, 1.5)
    w_branch = exact_branch(cell, k).omega
    monkeypatch.setattr(exact, "_Segment", Broken)
    for kk, w in zip(k, w_branch):
        with pytest.raises(NumericalError, match="willis_exact_root sign test"):
            willis_exact_root(cell, kk, w)
    checks = {c.name: c for c in build_verification_report(cell).checks}
    for kk in k:
        check = checks[f"triangle/impedance_root_k={kk:g}"]
        assert check.residual == float("inf") and not check.passed


# --- non-finite input --------------------------------------------------------
# The scan steps up to omega_max, which a non-finite k or omega_max would never
# end, so each is refused before any arithmetic; warnings are errors in this
# suite, so none of them may warn either.


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda cell: exact_branch(cell, [0.5, np.inf]), r"^k must be finite, got inf"),
        (lambda cell: exact_branch(cell, [np.nan]), r"^k must be finite, got nan"),
        (lambda cell: exact_branch(cell, [0.5], omega_max=np.inf), r"^omega_max must be finite and > 0, got inf"),
        (lambda cell: exact_branch(cell, [0.5], omega_max=np.nan), r"^omega_max must be finite and > 0, got nan"),
        (lambda cell: exact_branch(cell, [0.5], omega_max=-1.0), r"^omega_max must be finite and > 0, got -1.0"),
        (lambda cell: willis_exact_root(cell, np.inf, 1.0), r"^k must be finite, got inf"),
        (lambda cell: willis_exact_root(cell, -np.inf, 1.0), r"^k must be finite, got -inf"),
        (lambda cell: willis_exact_root(cell, 0.5, np.inf), r"^omega must be finite and > 0, got inf"),
        (lambda cell: willis_exact_root(cell, 0.5, np.nan), r"^omega must be finite and > 0, got nan"),
        (lambda cell: willis_exact_root(cell, 0.5, 0.0), r"^omega must be finite and > 0, got 0.0"),
        (lambda cell: willis_exact_root(cell, 0.5, -1.0), r"^omega must be finite and > 0, got -1.0"),
        (lambda cell: spectral_acoustic_branch(cell, [np.nan], order=8), r"^k must be finite, got nan"),
    ],
    ids=[
        "exact_branch-k-inf",
        "exact_branch-k-nan",
        "exact_branch-omega_max-inf",
        "exact_branch-omega_max-nan",
        "exact_branch-omega_max-negative",
        "willis_exact_root-k-inf",
        "willis_exact_root-k-minus-inf",
        "willis_exact_root-omega-inf",
        "willis_exact_root-omega-nan",
        "willis_exact_root-omega-zero",
        "willis_exact_root-omega-negative",
        "spectral_acoustic_branch-k-nan",
    ],
)
def test_branch_functions_reject_non_finite_input(call, match: str) -> None:
    with pytest.raises(ValidationError, match=match):
        call(bilaminate(0.1, 0.1))


#: G = 1e-9 | 1e9 at unit density: the stiffness pencil A = K T(1/G)^{-1} K
#: loses its lowest eigenvalue to roundoff (about -5.6e11 at N = 32, -4.1e17 at
#: N = 256), the compliance pencil keeps it; the exact branch is 2.2e-5 at k = 0.5
SPLIT_CONTRAST = UnitCell1D((Phase(0.5, 1e-9, 1.0), Phase(0.5, 1e9, 1.0)))


@pytest.mark.parametrize("order", [32, 256])
def test_spectral_branch_of_a_split_contrast_cell_matches_the_exact_branch(order: int) -> None:
    k = [0.5, 1.5]
    w_exact = exact_branch(SPLIT_CONTRAST, k).omega
    w = spectral_acoustic_branch(SPLIT_CONTRAST, k, order=order).omega
    assert np.all(np.abs(w - w_exact) <= 1e-6 * w_exact), w


@pytest.mark.parametrize("order", [32, 256])
def test_spectral_branch_raises_on_a_non_positive_eigenvalue(monkeypatch, order: int) -> None:
    # a negated spectrum of C makes 1 / mu_max negative
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda C: -eigvalsh(C))
    match = (
        rf"^spectral_acoustic_branch eigenvalue: lowest lam = -\S+ is not positive "
        rf"at k = 0\.5, N = {order} in cell {cell_digest(SPLIT_CONTRAST)}$"
    )
    with pytest.raises(NumericalError, match=match):
        spectral_acoustic_branch(SPLIT_CONTRAST, [0.5], order=order)


def test_verify_passes_the_spectral_branch_of_a_split_contrast_cell(capsys) -> None:
    checks = {c.name: c for c in build_verification_report(SPLIT_CONTRAST, basis_n=32).checks}
    for k in ("0.5", "1.5"):
        assert checks[f"triangle/spectral_branch_k={k}"].passed, checks[f"triangle/spectral_branch_k={k}"]
        assert checks[f"triangle/impedance_root_k={k}"].passed
    assert "spectral_acoustic_branch" not in capsys.readouterr().err


def test_spectral_branch_factors_the_mass_matrix_once_per_call(monkeypatch) -> None:
    sizes = []
    cholesky = np.linalg.cholesky

    def counted(a):
        sizes.append(a.shape[0])
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    spectral_acoustic_branch(BILAMINATE, [0.5, 1.0, 1.5], order=32)
    assert sizes == [65]


def test_spectral_branch_is_zero_where_cos_k_is_one() -> None:
    zeros = [0.0, 2.0 * np.pi, -2.0 * np.pi]
    assert spectral_acoustic_branch(SPLIT_CONTRAST, zeros, order=32).omega.tolist() == [0.0] * 3
    w = spectral_acoustic_branch(BILAMINATE, [*zeros, 0.5], order=32).omega
    assert w.tolist() == [0.0] * 3 + [spectral_acoustic_branch(BILAMINATE, [0.5], order=32).omega[0]]
    assert w[3] > 0.0
