"""Acceptance suite: ten end-to-end checks at pinned tolerances.

Each test prints one PASS/FAIL line on the live terminal (bypassing pytest
capture) so a tee'd run shows the whole scoreboard.
"""

from __future__ import annotations

import time

import numpy as np

from willis_homog import dispersion
from willis_homog.asymptotics import (
    dipole_mean_n2,
    homogenize,
    identity_suite,
    modulation_m2,
    two_scale_impedance,
    two_scale_root,
    willis_impedance_order2,
)
from willis_homog.cell_functions import solve_v_exact, solve_w_exact
from willis_homog.dispersion import (
    effective_speed,
    exact_branch,
    order2_branch,
    quasistatic_branch,
    spectral_acoustic_branch,
    willis_exact_root,
)
from willis_homog.exact import _LOADS, solve_monopole_exact
from willis_homog.material import bilaminate, homogeneous
from willis_homog.spectral import assemble, resolvent_solve, solve_eigensystem
from willis_homog.willis import (
    classify_visibility,
    dynamic_identity_residuals,
    effective_impedance,
)

from test_dispersion import exact_bilaminate_relation
from test_spectral import rho_norm

BILAMINATE = bilaminate(0.1, 0.1)

#: spectral residuals below this sit at roundoff; the refinement-improvement
#: clause of criterion 2 only binds above it
SPECTRAL_FLOOR = 1e-11


def _report(capsys, number: int, passed: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[acceptance {number:02d}] {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, detail


def test_criterion_01_uniform_cell_closed_form(capsys) -> None:
    t0 = time.perf_counter()
    cell = homogeneous()
    rng = np.random.default_rng(2026)
    worst_z = 0.0
    n_done = 0
    while n_done < 50:
        k = rng.uniform(1e-3, np.pi - 1e-3)
        omega = rng.uniform(1e-3, 3.0)
        folded = (2.0 * np.pi * np.arange(-2, 3) + k) ** 2
        if np.min(np.abs(folded - omega**2)) < 1e-3:
            continue
        n_done += 1
        z = effective_impedance(cell, k, omega, method="exact")
        worst_z = max(worst_z, abs(z - (k**2 - omega**2)))
    _, coeffs = homogenize(cell, method="exact")
    worst_m2 = max(
        abs(modulation_m2(coeffs, k, w) + 1.0)
        for k in (0.0, 0.7, 2.0)
        for w in (0.0, 0.5, 1.9)
    )
    higher = max(
        abs(v)
        for n, v in coeffs.to_dict().items()
        if n not in ("rho0", "mu0")
    )
    elapsed = time.perf_counter() - t0
    ok = worst_z <= 1e-9 and worst_m2 <= 1e-12 and higher <= 1e-12 and elapsed < 5.0
    _report(
        capsys, 1, ok,
        f"uniform impedance {worst_z:.2e} <= 1e-9, modulation {worst_m2:.2e} <= 1e-12, "
        f"higher coefficients {higher:.2e} <= 1e-12, {elapsed:.2f}s < 5s",
    )


def test_criterion_02_identity_suites(capsys) -> None:
    t0 = time.perf_counter()
    k, omega = 0.5, 0.2

    def suite(method: str, order: int) -> dict[str, float]:
        res = dict(dynamic_identity_residuals(BILAMINATE, k, omega, method=method, order=order))
        fields, coeffs = homogenize(BILAMINATE, method=method, order=order)
        res.update(identity_suite(BILAMINATE, fields, coeffs))
        return res

    exact = suite("exact", 128)
    worst_exact = max(exact.values())
    s128 = suite("spectral", 128)
    s256 = suite("spectral", 256)
    worst_s128 = max(s128.values())
    # residuals above the roundoff floor must improve at least twofold
    improvement_ok = all(
        s256[name] <= 0.5 * value
        for name, value in s128.items()
        if value > SPECTRAL_FLOOR
    )
    elapsed = time.perf_counter() - t0
    ok = (
        worst_exact <= 1e-8
        and worst_s128 <= 1e-5
        and improvement_ok
        and elapsed < 60.0
    )
    _report(
        capsys, 2, ok,
        f"exact suite {worst_exact:.2e} <= 1e-8, spectral(128) {worst_s128:.2e} <= 1e-5, "
        f"refinement clause {'holds' if improvement_ok else 'fails'}, {elapsed:.2f}s < 60s",
    )


def test_criterion_03_dispersion_triangle(capsys, monkeypatch) -> None:
    t0 = time.perf_counter()
    ks = (0.1, 0.5, 1.0, 1.5, 2.0, 3.0)
    order = 128
    worst_pair = 0.0
    worst_spec = 0.0
    for k in ks:
        w_trace = exact_branch(BILAMINATE, np.array([k])).omega[0]
        with monkeypatch.context() as m:
            m.setattr(dispersion, "dispersion_function", exact_bilaminate_relation)
            w_closed = exact_branch(BILAMINATE, np.array([k])).omega[0]
        w_imp = willis_exact_root(BILAMINATE, k, w_trace)
        worst_pair = max(
            worst_pair,
            abs(w_trace - w_closed),
            abs(w_trace - w_imp),
            abs(w_closed - w_imp),
        )
        w_spec = spectral_acoustic_branch(BILAMINATE, np.array([k]), order=order).omega[0]
        worst_spec = max(worst_spec, abs(w_trace - w_spec))
    elapsed = time.perf_counter() - t0
    ok = worst_pair <= 1e-6 and worst_spec <= 1.0 / order and elapsed < 30.0
    _report(
        capsys, 3, ok,
        f"pairwise exact routes {worst_pair:.2e} <= 1e-6, "
        f"spectral branch {worst_spec:.2e} <= {1.0 / order:.1e}, {elapsed:.2f}s < 30s",
    )


def _epsilon_sweep() -> dict[str, float]:
    """Convergence slopes of the three polynomial observables."""
    _, coeffs = homogenize(BILAMINATE, method="exact")
    khat, what = 1.0, 0.3
    eps = np.array([0.01, 0.02, 0.04, 0.08])
    errs_z, errs_m, errs_n = [], [], []
    for e in eps:
        k, omega = e * khat, e * what
        z_exact = effective_impedance(BILAMINATE, k, omega, method="exact")
        z2 = willis_impedance_order2(coeffs, k, omega)
        errs_z.append(abs(z_exact - z2))
        cal = two_scale_impedance(coeffs, k, omega)
        mean_w = solve_w_exact(BILAMINATE, k, omega).mean
        errs_m.append(abs(cal * mean_w - modulation_m2(coeffs, k, omega)))
        mean_v = solve_v_exact(BILAMINATE, k, omega).mean
        errs_n.append(abs(cal * mean_v - dipole_mean_n2(coeffs, k, omega)))
    log_eps = np.log(eps)
    return {
        "impedance": float(np.polyfit(log_eps, np.log(errs_z), 1)[0]),
        "modulation": float(np.polyfit(log_eps, np.log(errs_m), 1)[0]),
        "dipole": float(np.polyfit(log_eps, np.log(errs_n), 1)[0]),
    }


def test_criterion_04_impedance_and_modulation_orders(capsys) -> None:
    slopes = _epsilon_sweep()
    ok = slopes["impedance"] >= 4.5 and slopes["modulation"] >= 2.5
    _report(
        capsys, 4, ok,
        f"impedance error slope {slopes['impedance']:.2f} >= 4.5, "
        f"modulation error slope {slopes['modulation']:.2f} >= 2.5",
    )


def test_criterion_05_dipole_order(capsys) -> None:
    slopes = _epsilon_sweep()
    ok = slopes["dipole"] >= 3.5
    _report(capsys, 5, ok, f"dipole error slope {slopes['dipole']:.2f} >= 3.5")


def test_criterion_06_dispersion_accuracy(capsys) -> None:
    _, coeffs = homogenize(BILAMINATE, method="exact")
    k_all = np.linspace(0.1, 2.0, 20)
    w_exact = exact_branch(BILAMINATE, k_all).omega
    w_2 = order2_branch(coeffs, k_all).omega
    rel = np.abs(w_2 - w_exact) / w_exact
    err_low = float(np.max(rel[k_all <= 1.0]))
    err_high = float(np.max(rel))

    k_slope = 1e-3
    w_slope = exact_branch(BILAMINATE, np.array([k_slope])).omega[0]
    slope_gap = abs(w_slope / k_slope - effective_speed(coeffs))

    k_mid = np.linspace(0.5, 2.0, 7)
    w_e = exact_branch(BILAMINATE, k_mid).omega
    beats = bool(
        np.all(
            np.abs(order2_branch(coeffs, k_mid).omega - w_e)
            < np.abs(quasistatic_branch(coeffs, k_mid).omega - w_e)
        )
    )
    ok = err_low <= 0.01 and err_high <= 0.05 and slope_gap <= 1e-6 and beats
    _report(
        capsys, 6, ok,
        f"order-2 error {err_low:.2e} <= 1% (k <= 1) and {err_high:.2e} <= 5% (k <= 2), "
        f"origin slope gap {slope_gap:.2e} <= 1e-6, beats quasistatic: {beats}",
    )


def test_criterion_07_modulation_zero_in_window(capsys) -> None:
    _, coeffs = homogenize(BILAMINATE, method="exact")
    k = np.linspace(0.0, 2.0, 201)
    w = np.linspace(0.0, 2.0 * np.pi, 201, endpoint=False)
    m2 = np.abs(modulation_m2(coeffs, k[:, None], w[None, :]))
    smallest = float(np.min(m2))
    ok = smallest < 0.6
    _report(capsys, 7, ok, f"min |modulation| on [0,2]x[0,2pi) = {smallest:.2e} < 0.6")


def test_criterion_08_roots_colocate(capsys) -> None:
    _, coeffs = homogenize(BILAMINATE, method="exact")
    worst_a = worst_b = 0.0
    for k in np.geomspace(2e-5, 1.2e-4, 20):
        omega = two_scale_root(coeffs, float(k))
        scale = (
            abs(coeffs.mu0) * k**2
            + abs(coeffs.rho0) * omega**2
            + abs(coeffs.mu2) * k**4
            + abs(coeffs.rho2) * k**2 * omega**2
        )
        za = willis_impedance_order2(coeffs, k, omega, route="modulated")
        zb = willis_impedance_order2(coeffs, k, omega, route="mean")
        worst_a = max(worst_a, abs(za) / scale)
        worst_b = max(worst_b, abs(za - zb) / scale)
    ok = worst_a <= 1e-10 and worst_b <= 1e-9
    _report(
        capsys, 8, ok,
        f"modulated route vanishes to {worst_a:.2e} <= 1e-10, "
        f"route difference {worst_b:.2e} <= 1e-9 at 20 two-scale roots",
    )


def test_criterion_09_visibility(capsys) -> None:
    # uniform cell: every folded branch is invisible and the impedance is
    # featureless through its eigenvalues
    k = 1.0
    eig = solve_eigensystem(assemble(homogeneous(), k, 16))
    invisible_ok = all(
        classify_visibility(eig, j).classification == "Invisible" for j in (1, 2, 3, 4)
    )
    featureless = 0.0
    lam1 = float(eig.eigenvalues[1])
    for d in (1e-2, 1e-4, 1e-6):
        for s in (-1.0, 1.0):
            omega = np.sqrt(lam1) * (1.0 + s * d)
            z = effective_impedance(homogeneous(), k, omega, method="exact")
            featureless = max(featureless, abs(z - (k**2 - omega**2)) / abs(z))

    # layered cell: the acoustic branch is visible and the mean diverges at
    # first order in the spectral gap
    eig_b = solve_eigensystem(assemble(BILAMINATE, 0.5, 64))
    visible_ok = classify_visibility(eig_b, 0).classification == "Visible"
    w_star = exact_branch(BILAMINATE, np.array([0.5])).omega[0]
    lam = w_star**2
    gaps, mags = [], []
    for d in np.geomspace(1e-2, 1e-5, 7):
        omega = w_star * (1.0 - d)
        gaps.append(abs(lam - omega**2))
        mags.append(abs(solve_monopole_exact(BILAMINATE, 0.5, omega).mean))
    slope = float(np.polyfit(np.log(gaps), np.log(mags), 1)[0])
    ok = invisible_ok and featureless <= 1e-9 and visible_ok and abs(slope + 1.0) <= 0.05
    _report(
        capsys, 9, ok,
        f"uniform folded branches invisible: {invisible_ok}, impedance defect "
        f"{featureless:.2e} <= 1e-9; layered acoustic visible: {visible_ok}, "
        f"mean blow-up slope {slope:.3f} within -1 +/- 0.05",
    )


def test_criterion_10_spectral_routes(capsys) -> None:
    rng = np.random.default_rng(7)
    worst = 0.0
    n_done = 0
    while n_done < 20:
        k = rng.uniform(0.05, np.pi - 0.05)
        omega = rng.uniform(0.05, 3.0)
        op = assemble(BILAMINATE, k, 64)
        rel, _ = op.resonance_distance(omega**2)
        if rel < 1e-3:
            continue
        n_done += 1
        eig = solve_eigensystem(op)
        load = op.load(_LOADS["monopole"])
        modal = eig.modal_solution(load, omega**2)
        direct = resolvent_solve(op, omega, load)
        worst = max(worst, rho_norm(op, modal - direct) / max(rho_norm(op, direct), 1e-30))

    exact_mean = solve_monopole_exact(BILAMINATE, 0.5, 0.2).mean
    errs = []
    for n in (32, 64, 128, 256):
        op = assemble(BILAMINATE, 0.5, n)
        c = resolvent_solve(op, 0.2, op.load(_LOADS["monopole"]))
        errs.append(abs(op.response(c, _LOADS["monopole"]).mean - exact_mean))
    monotone = all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
    ok = worst <= 1e-8 and monotone
    _report(
        capsys, 10, ok,
        f"eigen vs resolvent {worst:.2e} <= 1e-8 over 20 points, "
        f"mean error monotone over N=32..256: {monotone}",
    )
