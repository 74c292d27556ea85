from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from test_asymptotics import ORACLE_CELLS
from willis_homog.cell_functions import (
    averages,
    solve_v_exact,
    solve_w_exact,
    solve_zeta_exact,
)
from willis_homog.dispersion import exact_branch
from willis_homog.errors import ResonanceError, ZeroMeanImpedanceError
from willis_homog.exact import solve_monopole_exact
from willis_homog.material import Phase, UnitCell1D, bilaminate, cell_digest, homogeneous
from willis_homog.willis import effective_impedance

BILAMINATE = bilaminate(0.1, 0.1)


def homogeneous_means(G: float, rho: float, k: float, omega: float) -> dict[str, complex]:
    """Closed-form averages of a uniform cell, an oracle for the exact solver.

    w = 1/(G k^2 - rho omega^2), v = i k G/(rho omega^2 - G k^2) and
    zeta = -i/k are constants, so every average is elementary.
    """
    w = 1.0 / (G * k**2 - rho * omega**2)
    v = -1j * k * G * w
    return {
        "mean_w": w,
        "mean_v": v,
        "mean_rho_w": rho * w,
        "mean_rho_v": rho * v,
        "mean_G_dkw": G * 1j * k * w,
        "mean_G_dkv": G * 1j * k * v,
        "mean_G": complex(G),
    }


CELLS = {
    "bilaminate": BILAMINATE,
    "three": UnitCell1D((Phase(0.3, 2.0, 0.5), Phase(0.45, 0.3, 3.0), Phase(0.25, 5.0, 1.2))),
    "six": UnitCell1D(
        (
            Phase(0.1, 1.0, 1.0),
            Phase(0.2, 8.0, 0.4),
            Phase(0.15, 0.2, 2.5),
            Phase(0.25, 3.0, 7.0),
            Phase(0.05, 0.6, 0.3),
            Phase(0.25, 1.5, 1.1),
        )
    ),
}

AVERAGE_KEYS = ("mean_w", "mean_v", "mean_rho_w", "mean_rho_v", "mean_G_dkw", "mean_G_dkv")

# Recorded with the Gauss-Legendre quadrature route this module replaced:
# the six response averages, then <rho w conj zeta> and <rho v conj zeta>,
# which the 1D static dipole zeta = -i/k turns into (i/k) <rho w> and
# (i/k) <rho v>.
# The mid-band omegas are 0.6 times the exact branch; omega = 0.5 on the
# bilaminate is q = k in both phases; 1e-6 and 1e-9 approach the static limit.
FROZEN = [
    ("bilaminate", 0.5, 0.2, (
        43.134823182681956 - 4.674755483840617e-14j,
        -1.2340074639778564e-14 - 3.90789548046099j,
        23.848693505762434 - 2.5091257196963035e-14j,
        -6.906774414547345e-15 - 2.156741159134095j,
        2.7973824904145315e-15 + 3.9078954804609953j,
        0.7225392927307275 - 1.0417998571049457e-15j,
        -6.986598799496591e-16 + 47.69738701152484j,
        4.313482318268187 - 9.199929771989968e-15j,
    )),
    ("three", 0.3, 0.05, (
        20.642718227389494 - 1.2137575558339442e-14j,
        -0.001403584694075386 - 3.64269188181564j,
        37.12302581787743 + 0.16843016328752985j,
        -2.2509963253721128e-14 - 6.556694558150985j,
        -0.0014035846940619223 + 3.642691881815646j,
        2.039639121317924 - 1.937037480716954e-15j,
        -0.5614338776250772 + 123.74341939292474j,
        21.855648527169947 - 7.893928972947314e-14j,
    )),
    ("three", 1.7, 0.5812056896184226, (
        0.9134383128241819 - 1.2350417997325502e-16j,
        -0.009106659700888031 - 0.9062397995038467j,
        1.6003776592793355 + 0.04582983727938523j,
        3.065852693245885e-16 - 1.626754287041449j,
        -0.009106659700888137 + 0.9062397995038475j,
        2.3082456973115013 + 2.4053448713064543e-16j,
        -0.02695872781140262 + 0.9413986231054909j,
        0.9569142864949696 - 2.615400571896048e-16j,
    )),
    ("six", 0.3, 0.05, (
        14.708388451540099 - 7.327458409998877e-15j,
        -0.008007278814728321 - 3.6513392238731237j,
        38.16070686477533 + 0.9608734577679394j,
        1.206957151816913e-14 - 9.477034967584526j,
        -0.008007278814731743 + 3.651339223873128j,
        2.9639752913965367 + 1.330550852584781e-15j,
        -3.2029115258927745 + 127.2023562159178j,
        31.590116558615094 - 4.849161301450841e-14j,
    )),
    ("six", 1.7, 0.5454426688107781, (
        0.6357538458392138 - 1.5926591100633158e-16j,
        -0.04634132852777938 - 0.8801995912020415j,
        1.668324203943437 + 0.2648007335069513j,
        6.758679174049403e-16 - 2.3497411849394445j,
        -0.046341328527779474 + 0.8801995912020413j,
        3.2962153571646895 + 1.0756301990592909e-16j,
        -0.15576513735703013 + 0.981367178790257j,
        1.3822006970232028 + 2.8353072656622097e-16j,
    )),
    ("bilaminate", 0.5, 0.5, (
        -10.521847737154918 + 2.407779243996863e-15j,
        9.359689847311683e-16 + 0.9356109536301147j,
        -5.871221907260227 + 1.228482376589013e-15j,
        5.385909817093304e-16 + 0.5260923868577463j,
        -6.646623200223662e-16 - 0.9356109536301138j,
        0.28695380657112696 + 1.4752095712278713e-16j,
        1.0120702019500438e-14 - 11.742443814520449j,
        -1.0521847737154921 - 5.454892180317694e-17j,
    )),
    ("bilaminate", 0.5, 1e-6, (
        22.00000000026901 + 1.4397289144386182e-15j,
        -5.538362705846414e-16 - 2.000000000024281j,
        12.142452850217488 + 1.1668725881375241e-15j,
        -3.7972920584199967e-16 - 1.1000000000134484j,
        -1.0774043291149881e-16 + 2.0000000000242846j,
        0.5500000000021996 - 1.1390128660105859e-16j,
        -2.82801126266774e-14 + 24.28490570043496j,
        2.200000000026895 + 1.5844609837238727e-15j,
    )),
    ("bilaminate", 0.5, 1e-9, (
        22.000000000000004 - 3.975068012148833e-15j,
        -2.123824933228862e-15 - 1.9999999999999991j,
        12.14245285006849 - 2.0409021694867135e-15j,
        -1.1710794572925952e-15 - 1.0999999999999994j,
        2.192704232094554e-16 + 2j,
        0.5499999999999998 - 2.752439897880803e-16j,
        -2.183062758343013e-14 + 24.284905700136967j,
        2.1999999999999975 + 1.757677987994326e-18j,
    )),
]

# static dipole of the bilaminate at k = 0.5: <zeta>, <rho zeta>, <G D_k zeta>
FROZEN_ZETA = (
    -2.123824933228862e-15 - 1.9999999999999991j,
    -1.1710794572925952e-15 - 1.0999999999999994j,
    0.5499999999999998 - 2.752439897880803e-16j,
)


def _assert_rel(got, want, rtol: float) -> None:
    for g, w in zip(got, want):
        assert abs(g - w) <= rtol * abs(w), (g, w)


@pytest.mark.parametrize("name,k,omega,frozen", FROZEN)
def test_closed_form_matches_frozen_quadrature(name, k, omega, frozen) -> None:
    cell = CELLS[name]
    w = solve_w_exact(cell, k, omega)
    v = solve_v_exact(cell, k, omega)
    avg = averages(w, v)
    got = [avg[key] for key in AVERAGE_KEYS]
    got += [1j / k * avg["mean_rho_w"], 1j / k * avg["mean_rho_v"]]
    _assert_rel(got, frozen, 1e-10)


def test_static_dipole_matches_frozen_quadrature() -> None:
    zeta = solve_zeta_exact(BILAMINATE, 0.5)
    _assert_rel((zeta.mean, zeta.mean_rho, zeta.mean_flux), FROZEN_ZETA, 1e-10)


@pytest.mark.parametrize("omega", [1e-6, 1e-9])
def test_uniform_cell_limits_match_closed_form(omega: float) -> None:
    # q = k is a Bloch branch of a uniform cell, so only the small-omega
    # limits and the static dipole apply to it
    G, rho, k = 1.7, 0.9, 0.5
    cell = homogeneous(G, rho)
    got = averages(solve_w_exact(cell, k, omega), solve_v_exact(cell, k, omega))
    for name, value in homogeneous_means(G, rho, k, omega).items():
        assert abs(got[name] - value) <= 1e-12 * abs(value), name


def test_uniform_cell_static_dipole_matches_closed_form() -> None:
    G, rho, k = 1.7, 0.9, 0.5
    zeta = solve_zeta_exact(homogeneous(G, rho), k)
    closed = homogeneous_means(G, rho, k, 0.0)
    got = {"mean_v": zeta.mean, "mean_rho_v": zeta.mean_rho, "mean_G_dkv": zeta.mean_flux}
    for name, value in got.items():
        assert abs(value - closed[name]) <= 1e-12 * abs(closed[name]), name


@pytest.mark.parametrize(
    ("kind", "omega"),
    [("monopole", 1.4), ("dipole", 1.4), ("monopole", 10.0), ("dipole", 10.0)],
    ids=["monopole", "dipole", "monopole-wide", "dipole-wide"],
)
def test_segment_closed_forms_match_direct_quadrature(kind: str, omega: float) -> None:
    # arbitrary start states, so every term of the closed forms counts; at
    # omega = 10, q h = 2.9 and the divided differences split their nodes
    from willis_homog.exact import _Segment

    h, G, rho, x, k = 0.37, 1.3, 0.8, 0.21, 0.9
    seg = _Segment(Phase(h, G, rho), x, k, omega, kind)
    y = (0.3 - 0.2j, -0.7 + 0.4j)
    q, w2 = omega * np.sqrt(rho / G), rho * omega**2
    nodes, weights = np.polynomial.legendre.leggauss(64)
    t = np.append(0.5 * h * (nodes + 1.0), h)  # the quadrature nodes, then the right end
    # (W, P) is the fundamental matrix times y plus the source's convolution,
    # each convolution a Gauss-Legendre sum over [0, t]
    tau = 0.5 * t[:, None] * (nodes + 1.0)
    src = np.exp(1j * k * (x + tau)) * 0.5 * t[:, None] * weights
    cos, sin_q = np.cos(q * (t[:, None] - tau)), np.sin(q * (t[:, None] - tau)) / q
    if kind == "monopole":  # f = 1: the source -exp(ikx) in P'
        W_src, P_src, gamma = -np.sum(sin_q * src, axis=1) / G, -np.sum(cos * src, axis=1), 0.0
    else:  # gamma = 1: the source exp(ikx) in W' = P/G + exp(ikx)
        W_src, P_src, gamma = np.sum(cos * src, axis=1), -w2 * np.sum(sin_q * src, axis=1), 1.0
    W = y[0] * np.cos(q * t) + y[1] * np.sin(q * t) / (q * G) + W_src
    P = -w2 * np.sin(q * t) / q * y[0] + np.cos(q * t) * y[1] + P_src
    wt, phase = 0.5 * h * weights, np.exp(-1j * k * (x + t[:-1]))
    mean = np.sum(wt * phase * W[:-1])
    got_mean, got_flux = seg.integrals(*y)
    assert abs(got_mean - mean) <= 1e-13 * abs(mean)
    # G D_k u = exp(-ikx) P + gamma G
    flux = np.sum(wt * (phase * P[:-1] + gamma * G))
    assert abs(got_flux - flux) <= 1e-13 * abs(flux)
    for got, want in zip(seg.load, (W_src[-1], P_src[-1])):
        assert abs(got - want) <= 1e-13 * abs(want)


#: sha256 over ORACLE_CELLS of repr((Z, <w>, <rho w>)) on the exact route at
#: k = 0.5, 1.5, 2.5 and omega = 0, 0.3 and 0.8 times the exact branch: the
#: monopole response's bits, which the impedance root and every preset read
MONOPOLE_DIGEST = "bc68de0d5b1296bfa560cf269efaccc096b0b5bc11e0a2f52073ae986b439973"


def test_monopole_response_is_pinned_across_cells() -> None:
    ks = (0.5, 1.5, 2.5)
    digest = hashlib.sha256()
    for cell in ORACLE_CELLS:
        for k, w_branch in zip(ks, exact_branch(cell, np.array(ks)).omega):
            for omega in (0.0, 0.3 * float(w_branch), 0.8 * float(w_branch)):
                w = solve_w_exact(cell, k, omega)
                z = effective_impedance(cell, k, omega)
                digest.update(repr((z, w.mean, w.mean_rho)).encode())
    assert digest.hexdigest() == MONOPOLE_DIGEST


def test_resonance_error_names_point_and_cell() -> None:
    with pytest.raises(ResonanceError) as info:
        solve_monopole_exact(BILAMINATE, 0.5, 0.285462817057)
    message = str(info.value)
    assert cell_digest(BILAMINATE) in message
    assert "0.5" in message and "0.285462817057" in message


def test_zero_mean_error_names_point_and_cell() -> None:
    # <w> changes sign between these frequencies at k = 0.5 (a pole of Z)
    k, lo, hi = 0.5, 3.79, 3.80
    f_lo = solve_monopole_exact(BILAMINATE, k, lo).mean.real
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = solve_monopole_exact(BILAMINATE, k, mid).mean.real
        if abs(f_mid) <= 1e-13:
            break
        if f_lo * f_mid <= 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    with pytest.raises(ZeroMeanImpedanceError) as info:
        effective_impedance(BILAMINATE, k, mid)
    message = str(info.value)
    assert cell_digest(BILAMINATE) in message
    assert repr(mid) in message


# --- invariances of exact Z on random cells ----------------------------------

_LOG_CONTRAST = math.log10(1e3) / 2


@st.composite
def cells(draw) -> UnitCell1D:
    n = draw(st.integers(1, 6))
    weights = [draw(st.floats(0.05, 1.0)) for _ in range(n)]
    lengths = [w / sum(weights) for w in weights]
    lengths[-1] = 1.0 - sum(lengths[:-1])
    moduli = [10 ** draw(st.floats(-_LOG_CONTRAST, _LOG_CONTRAST)) for _ in range(n)]
    densities = [10 ** draw(st.floats(-_LOG_CONTRAST, _LOG_CONTRAST)) for _ in range(n)]
    return UnitCell1D(tuple(Phase(h, G, r) for h, G, r in zip(lengths, moduli, densities)))


def _z(cell: UnitCell1D, k: float, omega: float) -> complex:
    try:
        return effective_impedance(cell, k, omega)
    except (ResonanceError, ZeroMeanImpedanceError):
        assume(False)


def _scale(cell: UnitCell1D, k: float, omega: float) -> float:
    return cell.mean("G") * k**2 + cell.mean("rho") * omega**2


_POINTS = dict(k=st.floats(-3.0, 3.0), omega=st.floats(0.01, 4.0))
_SETTINGS = settings(max_examples=40, derandomize=True, deadline=None)


@_SETTINGS
@given(cell=cells(), a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0), **_POINTS)
def test_unit_scaling_maps_impedance(cell, a, b, k, omega) -> None:
    a, b = 10**a, 10**b
    scaled = UnitCell1D(tuple(Phase(p.length, a * p.G, b * p.rho) for p in cell.phases))
    z = _z(cell, k, omega)
    z_scaled = _z(scaled, k, omega * math.sqrt(a / b))
    assert abs(z_scaled - a * z) <= 1e-9 * a * _scale(cell, k, omega)


@_SETTINGS
@given(cell=cells(), shift=st.integers(1, 5), **_POINTS)
def test_cyclic_rotation_keeps_impedance(cell, shift, k, omega) -> None:
    s = shift % len(cell.phases)
    rotated = UnitCell1D(cell.phases[s:] + cell.phases[:s])
    assert abs(_z(rotated, k, omega) - _z(cell, k, omega)) <= 1e-9 * _scale(cell, k, omega)


@_SETTINGS
@given(cell=cells(), **_POINTS)
def test_mirror_with_reversed_wavenumber_keeps_impedance(cell, k, omega) -> None:
    mirrored = UnitCell1D(tuple(reversed(cell.phases)))
    assert abs(_z(mirrored, -k, omega) - _z(cell, k, omega)) <= 1e-9 * _scale(cell, k, omega)
