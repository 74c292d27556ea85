"""Exact closed-form cell responses for piecewise-constant 1D cells.

In the periodic field u and its flux p = G (D_k u - gamma) the Bloch cell
equation

    -omega^2 rho u - D_k (G (D_k u - gamma)) = f,   D_k = d/dx + ik,

is the first-order system

    u' = -ik u + p/G + gamma,   p' = -ik p - omega^2 rho u - f,

whose state (u, p) is continuous at every interface.  A load is the
constant source g = (gamma, -f): the monopole (f = 1) a source in p', the
unit dipole (gamma = 1) a strain source in u'.  A phase steps (u, p) by
exp(-ikh) times its real transfer matrix; the periodic condition
(I - M) y = s closes in adjugate form, det y = adj(I - M) s, and one march
with the load scaled by det sums det times each phase's averages.  A
response divides once by det; Z = det/N, N = det <w>, has no pole.  This
is the oracle the spectral route is validated against.

No quadrature is involved.  On a phase of length h, with wave number
q = omega sqrt(rho/G), the load's end state and every cell average reduce
to the moments int_0^h t^m exp(-ikt) {cos qt, sin(qt)/q} dt, m in {0, 1}.
Written as iterated integrals of exponentials over a simplex, each is h^n
times a divided difference of exp over the nodes {0, (+-iq - ik) h}
(Hermite-Genocchi).  One Newton row of :func:`_dd_exp` per phase gives
them all, evaluated stably, so the removable limits q = 0 (the static
dipole), q -> 0 and q = +-k need no special case anywhere else.
"""

from __future__ import annotations

import bisect
import cmath
import math
from typing import NamedTuple

import numpy as np

from .errors import ResonanceError
from .material import Phase, UnitCell1D, _require_finite, cell_digest

__all__ = [
    "CellResponse",
    "solve_monopole_exact",
    "solve_dipole_exact",
    "solve_static_dipole_exact",
    "monopole_adjugate",
    "dispersion_function",
]

#: the periodic closure is treated as resonant where its determinant
#: 2 exp(-ik) (cos k - D(omega)) is below this fraction of the size of its two
#: products; the ratio does not change under any rescaling of u or p
_RCOND_FLOOR = 1e-10

#: nodes within this distance of their centroid are summed as one Taylor
#: series; a wider set is split, so the recurrence never divides by less
_SERIES_RADIUS = 1.0

_INV_FACTORIAL = tuple(1.0 / math.factorial(j) for j in range(64))

#: 1 + bisect(_SERIES_LIMITS, r) is the first m with r^m / m! < 1e-17, the
#: number of Taylor terms past the n-th that n + 1 nodes within r need
_SERIES_LIMITS = tuple((1e-17 * math.factorial(m)) ** (1.0 / m) for m in range(1, 40))


def _centred(z: tuple[complex, ...]) -> tuple[complex, list[complex], float]:
    c = sum(z) / len(z)
    x = [zi - c for zi in z]
    return c, x, max(map(abs, x))


def _taylor_row(c: complex, x: list[complex], r: float) -> list[complex]:
    """Newton row of exp over the nodes c + x, clustered (r = max |x|).

    exp[z_0, ..., z_i] = e^c sum_j (X^j / j!)_{0i}, X the bidiagonal matrix
    with x on its diagonal (Opitz), summed by Horner on the first row.
    """
    n = len(x) - 1
    terms = n + 1 + bisect.bisect(_SERIES_LIMITS, r)
    x0, x1, x2, x3 = (*x, 0j, 0j, 0j)[:4]
    v0, v1, v2, v3 = _INV_FACTORIAL[terms], 0j, 0j, 0j
    for j in range(terms - 1, -1, -1):
        v3 = v3 * x3 + v2
        v2 = v2 * x2 + v1
        v1 = v1 * x1 + v0
        v0 = v0 * x0 + _INV_FACTORIAL[j]
    e = cmath.exp(c)
    return [e * v for v in (v0, v1, v2, v3)[: n + 1]]


def _dd_last(z: tuple[complex, ...], memo: dict) -> complex:
    """exp[z_0, ..., z_n], splitting wide node sets on their widest pair."""
    got = memo.get(z)
    if got is None:
        c, x, r = _centred(z)
        if r <= _SERIES_RADIUS:
            got = _taylor_row(c, x, r)[-1]
        else:
            # |z[other] - z[far]| >= |z[far] - c| = r > _SERIES_RADIUS
            far = max(range(len(z)), key=lambda i: abs(x[i]))
            other = max(range(len(z)), key=lambda i: abs(z[i] - z[far]))
            got = (
                _dd_last(z[:far] + z[far + 1 :], memo) - _dd_last(z[:other] + z[other + 1 :], memo)
            ) / (z[other] - z[far])
        memo[z] = got
    return got


def _dd_exp(*z: complex) -> list[complex]:
    """Newton row [exp[z_0], exp[z_0, z_1], ..., exp[z_0, ..., z_n]] of exp.

    Divided differences of exp over up to four nodes, which may repeat or
    cluster.  Clustered nodes are summed as one Taylor series about their
    centroid; a wider set is split by the recurrence on its widest pair,
    whose gap exceeds ``_SERIES_RADIUS``.
    """
    c, x, r = _centred(z)
    if r <= _SERIES_RADIUS:
        return _taylor_row(c, x, r)
    memo: dict = {}
    return [_dd_last(z[: i + 1], memo) for i in range(len(z))]


#: each load as the constant source g = (gamma, -f) of the (u, p) system,
#: the one definition both routes read (the spectral route through
#: ``BlochOperator.load`` and ``BlochOperator.response``)
_LOADS = {"monopole": (0.0, -1.0), "dipole": (1.0, 0.0)}


class _Segment:
    """One phase at (k, omega): its step, and the load's end state and integrals.

    Each map of (u, p) has the form [[a, b/G], [-rho omega^2 b, a]]: the step
    (a, b) = exp(-ikh) (cos qh, sin(qh)/q), its integral Phi over [0, h],
    (C0, S0), and Psi = int_0^h (h - t) step(t) dt, (S0 + ik T, T).  Over the
    nodes z, z' = (+-iq - ik) h, S0 = h^2 exp[0, z, z'], C0 = h exp[0, z'] +
    iq S0 and T = h^3 exp[0, 0, z, z'].  The load ``g`` = (gamma, -f) ends at
    ``load`` = Phi g from a zero start and adds Psi g to the integrals.
    """

    def __init__(self, phase: Phase, k: float, omega: float, g: tuple[float, float]):
        h, G, rho = phase.length, phase.G, phase.rho
        q = omega * math.sqrt(rho / G)
        w2 = rho * omega * omega
        e = cmath.exp(-1j * k * h)
        b = e * (math.sin(q * h) / q if q else h)
        self.rho, self.a = rho, e * math.cos(q * h)
        self.b_G, self.w2_b = b / G, -w2 * b
        _, e0b, e0ab, e00ab = _dd_exp(-1j * (q + k) * h, 0.0, 1j * (q - k) * h, 0.0)
        S0, T = h * h * e0ab, h**3 * e00ab
        self.C0 = C0 = h * e0b + 1j * q * S0
        self.S0_G, self.w2_S0 = S0 / G, -w2 * S0
        tail = S0 + 1j * k * T
        g0, g1 = g
        self.load = (C0 * g0 + self.S0_G * g1, self.w2_S0 * g0 + C0 * g1)
        self.mean_load, self.flux_load = tail * g0 + T / G * g1, -w2 * T * g0 + tail * g1

    def step(self, y0: complex, y1: complex) -> tuple[complex, complex]:
        """Homogeneous propagation of (u, p) across the segment."""
        return self.a * y0 + self.b_G * y1, self.w2_b * y0 + self.a * y1

    def integrals(self, y0: complex, y1: complex, det: complex) -> tuple[complex, complex]:
        """det times the integrals over the segment of u and of its flux
        p = G (D_k u - gamma), from the start state det (u, p)."""
        return (
            self.C0 * y0 + self.S0_G * y1 + det * self.mean_load,
            self.w2_S0 * y0 + self.C0 * y1 + det * self.flux_load,
        )


class CellResponse(NamedTuple):
    """A cell response u as the three averages the effective model reads.

    Both routes fill it where their solve ends: the exact route sums the
    segments' closed forms, the spectral route by ``BlochOperator.response``.
    """

    mean: complex  #: <u>
    mean_rho: complex  #: <rho u>
    mean_flux: complex  #: <G (D_k u - gamma)>, its own flux: <G D_k w>, <G (D_k v - 1)>


def _solve(cell: UnitCell1D, k: float, omega: float, kind: str, scaled: bool = False) -> tuple[complex, ...]:
    """det and det <u>, det <rho u>, det <G (D_k u - gamma)>; ResonanceError where det
    and, if ``scaled``, z det <u> (z = ``cell.impedance_scale``) are both below
    _RCOND_FLOOR of det's scale; ValidationError where k or omega has no finite square."""
    k, omega = float(k), float(omega)
    _require_finite(k=k, omega=omega)
    segments = [_Segment(p, k, omega, _LOADS[kind]) for p in cell.phases]

    # march the affine map y_end = M y_0 + s across the cell
    m00, m01, m10, m11 = 1.0 + 0j, 0j, 0j, 1.0 + 0j
    s0, s1 = 0j, 0j
    for seg in segments:
        m00, m10 = seg.step(m00, m10)
        m01, m11 = seg.step(m01, m11)
        s0, s1 = seg.step(s0, s1)
        s0, s1 = s0 + seg.load[0], s1 + seg.load[1]

    # periodic closure: (I - M) y = s
    a00, a01, a10, a11 = 1.0 - m00, -m01, -m10, 1.0 - m11
    det = a00 * a11 - a01 * a10
    y = (a11 * s0 - a01 * s1, a00 * s1 - a10 * s0)  # adj(I - M) s

    # march the periodic state det y across the cell, summing each segment's
    # averages; the end state is the start, so the last step is left out
    mean = mean_rho = mean_flux = 0
    for seg in segments:
        u, flux = seg.integrals(*y, det)
        mean, mean_rho, mean_flux = mean + u, mean_rho + seg.rho * u, mean_flux + flux
        if seg is not segments[-1]:
            y0, y1 = seg.step(*y)
            y = (y0 + det * seg.load[0], y1 + det * seg.load[1])
    mean_scale = cell.impedance_scale(k, omega) if scaled else 0.0
    if max(abs(det), abs(mean) * mean_scale) <= _RCOND_FLOOR * (abs(a00 * a11) + abs(a01 * a10)):
        raise ResonanceError(
            f"(k, omega) = ({k!r}, {omega!r}) lies on a Bloch branch of cell "
            f"{cell_digest(cell)}; the {kind} cell response is resonant"
        )
    return det, complex(mean), complex(mean_rho), complex(mean_flux)


def _response(cell: UnitCell1D, k: float, omega: float, kind: str) -> CellResponse:
    det, *sums = _solve(cell, k, omega, kind)
    return CellResponse(*(s / det for s in sums))


def solve_monopole_exact(cell: UnitCell1D, k: float, omega: float) -> CellResponse:
    """Cell response w to a unit mean load f = 1 (off resonance)."""
    return _response(cell, k, omega, "monopole")


def solve_dipole_exact(cell: UnitCell1D, k: float, omega: float) -> CellResponse:
    """Cell response v to a unit dipole load (off resonance)."""
    return _response(cell, k, omega, "dipole")


def solve_static_dipole_exact(cell: UnitCell1D, k: float) -> CellResponse:
    """Static dipole response zeta (the omega = 0 dipole solve, k != 0)."""
    return _response(cell, k, 0.0, "dipole")


def monopole_adjugate(cell: UnitCell1D, k: float, omega: float) -> tuple[complex, complex]:
    """(det, N = det <w>); ResonanceError where det and z N, z = ``cell.impedance_scale``,
    both vanish: Z = det/N is 0/0 there, at an eigenvalue invisible to <w>."""
    det, n, _, _ = _solve(cell, k, omega, "monopole", scaled=True)
    return det, n


def dispersion_function(cell: UnitCell1D, omega):
    """Half-trace D(omega) of the cell monodromy matrix.

    Bloch waves exist where D(omega) = cos k; pass bands are |D| <= 1.
    The periodic gauge's monodromy M is exp(-ik) times this matrix, so the
    closure's determinant is det(I - M) = 2 exp(-ik) (cos k - D).
    Valid for any number of phases.  ``omega`` may be an array: each
    phase's transfer matrices are stacked into one ``(..., 2, 2)`` matmul,
    and every element equals the scalar call bit for bit.  A scalar
    ``omega`` returns a float.
    """
    w = np.asarray(omega, dtype=float)
    # libm pow, which a Python float ** 2 calls; an array w ** 2 is w * w and rounds differently
    w2 = np.float_power(w, 2)
    M = np.eye(2)
    for p in cell.phases:
        qh = w * np.sqrt(p.rho / p.G) * p.length
        c = np.cos(qh)
        s = p.length * np.sinc(qh / np.pi)
        step = np.empty(w.shape + (2, 2))
        step[..., 0, 0] = c
        step[..., 0, 1] = s / p.G
        step[..., 1, 0] = -p.rho * w2 * s
        step[..., 1, 1] = c
        M = step @ M
    d = 0.5 * (M[..., 0, 0] + M[..., 1, 1])
    return d if np.ndim(omega) else float(d)
