from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from willis_homog import cell_functions, exact, willis
from willis_homog.dispersion import exact_branch
from willis_homog.errors import ResonanceError, ValidationError
from willis_homog.material import Phase, UnitCell1D, bilaminate, cell_digest, homogeneous
from willis_homog.spectral import assemble, solve_eigensystem
from willis_homog.willis import (
    classify_visibility,
    dynamic_identity_residuals,
    effective_impedance,
    effective_parameters,
    impedance_from_parameters,
    parameters_from_averages,
    require_identity_point,
)

BILAMINATE = bilaminate(0.1, 0.1)

# regression anchor from the closed-form solver at (k, omega) = (0.5, 0.2)
MEAN_W_PROBE = 43.13482318268196


def test_uniform_cell_impedance_closed_form() -> None:
    G, rho = 1.3, 0.6
    cell = homogeneous(G, rho)
    rng = np.random.default_rng(3)
    for _ in range(8):
        k = rng.uniform(0.1, 3.0)
        omega = rng.uniform(0.1, 2.5)
        if abs(G * k**2 - rho * omega**2) < 1e-2:
            continue
        z = effective_impedance(cell, k, omega, method="exact")
        assert_allclose(z, G * k**2 - rho * omega**2, rtol=1e-10)


def test_impedance_probe_regression() -> None:
    z = effective_impedance(BILAMINATE, 0.5, 0.2, method="exact")
    assert_allclose(z.real, 1.0 / MEAN_W_PROBE, rtol=1e-12)
    assert abs(z.imag) < 1e-12


@pytest.mark.parametrize("k,omega", [(0.5, 0.2), (1.2, 0.9), (2.4, 1.7)])
def test_exact_identity_residuals_at_roundoff(k: float, omega: float) -> None:
    res = dynamic_identity_residuals(BILAMINATE, k, omega, method="exact")
    assert len(res) == 10
    for name, value in res.items():
        assert value < 1e-10, name


def test_spectral_identity_residuals_at_roundoff() -> None:
    res = dynamic_identity_residuals(BILAMINATE, 0.5, 0.2, method="spectral", order=64)
    for name, value in res.items():
        assert value < 1e-10, name


@pytest.mark.parametrize("route", ["direct", "symmetric"])
def test_parameters_reconstruct_impedance(route: str) -> None:
    k, omega = 0.8, 0.5
    p = effective_parameters(BILAMINATE, k, omega, route=route, method="exact")
    z = effective_impedance(BILAMINATE, k, omega, method="exact")
    assert abs(impedance_from_parameters(p) - z) < 1e-10 * abs(z)
    for name, value in p.symmetry_residuals().items():
        assert value < 1e-10, name


def test_uniform_cell_parameters_have_no_coupling() -> None:
    p = effective_parameters(homogeneous(2.0, 0.7), 0.9, 0.4, method="exact")
    assert_allclose(p.density, 0.7, rtol=1e-10)
    assert_allclose(p.stiffness, 2.0, rtol=1e-10)
    assert abs(p.coupling_strain) < 1e-10
    assert abs(p.coupling_velocity) < 1e-10


def test_impedance_vanishes_on_acoustic_branch() -> None:
    # on the visible branch the mean diverges, so Z = 1/<w> has a zero
    cell = homogeneous()
    k = 1.0
    z = effective_impedance(cell, k, 1.0 - 1e-8, method="exact")
    assert abs(z) < 1e-6


def test_visibility_of_uniform_branches() -> None:
    eig = solve_eigensystem(assemble(homogeneous(), 1.0, 16))
    acoustic = classify_visibility(eig, 0)
    assert acoustic.classification == "Visible"
    for branch in (1, 2, 3):
        rep = classify_visibility(eig, branch)
        assert rep.classification == "Invisible"
        assert rep.dipole_solvable
        assert rep.parameter_behavior == "continuous"


def test_visibility_of_bilaminate_acoustic_branch() -> None:
    eig = solve_eigensystem(assemble(BILAMINATE, 0.5, 64))
    rep = classify_visibility(eig, 0)
    assert rep.classification == "Visible"


def test_visibility_is_judged_in_the_cell_units() -> None:
    # a rho-orthonormal mode scales as rho^-1/2, so |<phi_0>| is near 1e-7 here
    rep = classify_visibility(solve_eigensystem(assemble(homogeneous(1e14, 1e14), 0.5, 16)), 0)
    assert rep.visible
    assert rep.parameter_behavior == "cancellation"


def test_clusters_are_judged_in_the_cell_units() -> None:
    # fig2's cell scaled by (1e-6 G, 1e6 rho): every eigenvalue lies below 1e-8
    scaled = UnitCell1D(tuple(Phase(p.length, 1e-6 * p.G, 1e6 * p.rho) for p in BILAMINATE.phases))
    rep = classify_visibility(solve_eigensystem(assemble(scaled, 0.5, 16)), 0)
    assert rep.cluster == (0,)
    assert rep.parameter_behavior == "cancellation"


def test_impedance_featureless_through_invisible_eigenvalue() -> None:
    # the uniform cell at k = 1: Z = k^2 - omega^2 straight through the
    # folded eigenvalue (2 pi - 1)^2, with no pole or zero
    cell = homogeneous()
    k = 1.0
    lam1 = (2.0 * np.pi - k) ** 2
    for d in (1e-2, 1e-4, 1e-6):
        for s in (-1.0, 1.0):
            omega = np.sqrt(lam1) * (1.0 + s * d)
            z = effective_impedance(cell, k, omega, method="exact")
            assert_allclose(z, k**2 - omega**2, rtol=1e-9)


def test_mean_blowup_rate_on_visible_branch() -> None:
    from willis_homog.dispersion import exact_branch
    from willis_homog.exact import solve_monopole_exact

    k = 0.5
    w_star = exact_branch(BILAMINATE, np.array([k])).omega[0]
    lam = w_star**2
    gaps, mags = [], []
    for d in np.geomspace(1e-2, 1e-5, 7):
        omega = w_star * (1.0 - d)
        gaps.append(abs(lam - omega**2))
        mags.append(abs(solve_monopole_exact(BILAMINATE, k, omega).mean))
    slope = np.polyfit(np.log(gaps), np.log(mags), 1)[0]
    assert abs(slope + 1.0) < 0.05


@pytest.mark.parametrize("k", [0.5, 1.5])
def test_exact_identities_hold_next_to_the_branch(k: float) -> None:
    # Z -> 0 on the branch; the reconstruction residual must not divide by it
    from willis_homog.dispersion import exact_branch

    omega = 0.999 * exact_branch(BILAMINATE, np.array([k])).omega[0]
    res = dynamic_identity_residuals(BILAMINATE, k, omega, method="exact")
    for name, value in res.items():
        assert value <= 1e-8, name


def test_reconstruction_residual_detects_stiffness_error() -> None:
    import dataclasses

    from willis_homog.willis import impedance_reconstruction_residual

    k, omega = 0.5, 0.2
    p = effective_parameters(BILAMINATE, k, omega, method="exact")
    z = effective_impedance(BILAMINATE, k, omega, method="exact")
    assert impedance_reconstruction_residual(p, z) <= 1e-10
    wrong = dataclasses.replace(p, stiffness=p.stiffness * (1.0 + 1e-6))
    assert impedance_reconstruction_residual(wrong, z) > 1e-8


def test_coupling_residuals_follow_a_change_of_units(monkeypatch) -> None:
    # a coupling has the units of sqrt(G rho): an error of 1e-6 in the direct
    # route's coupling reads the same under (G, rho) -> (a G, b rho), at the
    # point (k, omega sqrt(a/b)) that the scaling maps the probe to
    import dataclasses

    def corrupted(*args, **kwargs):
        p = parameters_from_averages(*args, **kwargs)
        return dataclasses.replace(p, coupling_strain=p.coupling_strain * (1.0 + 1e-6)) if p.route == "direct" else p

    monkeypatch.setattr(willis, "parameters_from_averages", corrupted)
    readings = {"symmetry_couplings_conjugate": [], "route_agreement": []}
    for a, b in ((1.0, 1.0), (1e6, 1.0), (1.0, 1e6)):
        scaled = UnitCell1D(tuple(Phase(p.length, a * p.G, b * p.rho) for p in BILAMINATE.phases))
        res = dynamic_identity_residuals(scaled, 0.5, 0.2 * np.sqrt(a / b), method="exact")
        for name, values in readings.items():
            values.append(res[name])
    for name, values in readings.items():
        assert min(values) > 1e-10 and max(values) <= 2.0 * min(values), (name, values)


def test_every_entry_point_rejects_an_unknown_method() -> None:
    calls = [
        lambda m: effective_impedance(BILAMINATE, 0.5, 0.2, method=m),
        lambda m: effective_parameters(BILAMINATE, 0.5, 0.2, method=m),
        lambda m: dynamic_identity_residuals(BILAMINATE, 0.5, 0.2, method=m),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="exakt"):
            call("exakt")


def test_spectral_loads_at_one_point_share_one_resolvent_solve(monkeypatch) -> None:
    calls = []

    def counted(operator, omega, load):
        calls.append(np.shape(load))
        return solve(operator, omega, load)

    solve = cell_functions.resolvent_solve
    monkeypatch.setattr(cell_functions, "resolvent_solve", counted)
    for run, expected in (
        (lambda: effective_impedance(BILAMINATE, 0.5, 0.2, method="spectral", order=32), 1),
        (lambda: effective_parameters(BILAMINATE, 0.5, 0.2, method="spectral", order=32), 1),
        (lambda: dynamic_identity_residuals(BILAMINATE, 0.5, 0.2, method="spectral", order=32), 1),
    ):
        calls.clear()
        run()
        assert len(calls) == expected, calls


def test_exact_identity_residuals_solve_two_responses(monkeypatch) -> None:
    kinds = []

    def counted(cell, k, omega, kind):
        kinds.append(kind)
        return solve(cell, k, omega, kind)

    solve = exact._solve
    monkeypatch.setattr(exact, "_solve", counted)
    dynamic_identity_residuals(BILAMINATE, 0.5, 0.2, method="exact")
    assert kinds == ["monopole", "dipole"]


@pytest.mark.parametrize("method", ["exact", "spectral"])
@pytest.mark.parametrize("k", [0.0, -1e-13, 2.0 * np.pi - 1e-14])
def test_identity_residuals_undefined_at_zero_wavenumber(k: float, method: str) -> None:
    # the cell-basis checks divide by k through the static dipole -i/k
    with pytest.raises(ResonanceError, match="undefined at k = 0") as info:
        dynamic_identity_residuals(BILAMINATE, k, 0.2, method=method, order=16)
    assert cell_digest(BILAMINATE) in str(info.value) and repr(k) in str(info.value)


# --- the exact identities at any positive contrast ---------------------------

_LOG_SPAN = 9.0


@st.composite
def contrast_cells(draw) -> UnitCell1D:
    """1-6 phases of length >= 0.002, G and rho log-uniform over 10^[-9, 9]."""
    n = draw(st.integers(1, 6))
    weights = [draw(st.floats(0.01, 1.0)) for _ in range(n)]
    lengths = [0.002 + (1.0 - 0.002 * n) * w / sum(weights) for w in weights]
    lengths[-1] = 1.0 - sum(lengths[:-1])
    logs = [draw(st.floats(-_LOG_SPAN, _LOG_SPAN)) for _ in range(2 * n)]
    return UnitCell1D(tuple(Phase(h, 10.0 ** a, 10.0 ** b) for h, a, b in zip(lengths, logs[:n], logs[n:])))


@settings(max_examples=20, derandomize=True, deadline=None)
@given(contrast_cells())
def test_exact_identities_hold_at_any_contrast(cell: UnitCell1D) -> None:
    # the dipole's record holds its own flux, not <G> plus it, so no average
    # of the Willis parameters cancels against <G>, which here may exceed the
    # flux by far more than 1/eps
    k = 0.5
    omega = 0.7 * float(exact_branch(cell, [k]).omega[0])
    residuals = dynamic_identity_residuals(cell, k, omega)
    worst = max(residuals, key=residuals.get)
    assert residuals[worst] <= 1e-8, (worst, residuals[worst], cell_digest(cell))


@pytest.mark.parametrize(
    "k,omega,error,match",
    [
        (0.0, 0.1, ResonanceError, "undefined at k = 0"),
        (2.0 * np.pi, 0.1, ResonanceError, "undefined at k = 0"),
        (1e-13, 0.1, ResonanceError, "undefined at k = 0"),
        (0.0, 0.0, ValidationError, "^the Willis parameters need omega != 0, got 0.0$"),
        (0.0, 1e160, ValidationError, r"^omega\^2 must be finite, got 1e\+160$"),
        (np.nan, 0.0, ValidationError, "^k must be finite, got nan$"),
    ],
    ids=["k=0", "k=2pi", "k=1e-13", "omega=0-before-k", "omega^2-before-k", "k-nan-before-omega"],
)
def test_identity_point_domain_is_checked_in_order(k: float, omega: float, error: type, match: str) -> None:
    # the squares, then omega != 0, then k != 0 (mod 2 pi)
    with pytest.raises(error, match=match):
        require_identity_point(BILAMINATE, k, omega)


def test_omega_zero_rule_is_stated_once(monkeypatch) -> None:
    # the Willis parameters are defined at k = 0 (mod 2 pi), the identities are not;
    # both refuse omega = 0 with one message, and effective_parameters before any solve
    w, v = cell_functions.responses(BILAMINATE, 0.5, 0.2, ("monopole", "dipole"), "exact")
    p = effective_parameters(BILAMINATE, 0.0, 0.3)
    assert p.density.real > 0 and abs(p.coupling_strain) < 1e-15 * p.density.real
    monkeypatch.setattr(willis, "responses", None)
    calls = [
        lambda: require_identity_point(BILAMINATE, 0.5, 0.0),
        lambda: effective_parameters(BILAMINATE, 0.5, 0.0),
        lambda: effective_parameters(BILAMINATE, 0.0, 0.0, method="spectral"),
        lambda: parameters_from_averages(BILAMINATE, w, v, 0.5, 0.0),
    ]
    messages = set()
    for call in calls:
        with pytest.raises(ValidationError) as info:
            call()
        messages.add(str(info.value))
    assert messages == {"the Willis parameters need omega != 0, got 0.0"}


@pytest.mark.parametrize("k", [2.0 * np.pi * 1e6, 1e17, -1e20])
def test_identity_point_domain_reads_k_mod_2pi_from_libm(k: float) -> None:
    assert require_identity_point(BILAMINATE, k, 0.1) is None


@pytest.mark.parametrize("method", ["exact", "spectral"])
@pytest.mark.parametrize(
    "omega,match",
    [(0.0, "^the Willis parameters need omega != 0"), (1e160, r"^omega\^2 must be finite")],
    ids=["omega=0", "omega^2-overflows"],
)
def test_identity_residuals_refuse_the_point_before_any_solve(monkeypatch, method: str, omega: float, match: str) -> None:
    solves = []

    def spy(solver):
        def wrapped(*args, **kwargs):
            solves.append(solver.__name__)
            return solver(*args, **kwargs)

        return wrapped

    # the exact responses end in exact._solve, the spectral ones in resolvent_solve
    monkeypatch.setattr(exact, "_solve", spy(exact._solve))
    monkeypatch.setattr(cell_functions, "resolvent_solve", spy(cell_functions.resolvent_solve))
    with pytest.raises(ValidationError, match=match):
        dynamic_identity_residuals(BILAMINATE, 0.5, omega, method=method, order=16)
    assert solves == []
    dynamic_identity_residuals(BILAMINATE, 0.5, 0.2, method=method, order=16)
    assert solves, "the spy sees no solve of this route"
