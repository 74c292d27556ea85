"""Exact closed-form cell responses for piecewise-constant 1D cells.

In W = exp(ikx) u and the flux P = exp(ikx) G (D_k u - gamma) the Bloch
cell equation

    -omega^2 rho u - D_k (G (D_k u - gamma)) = f,   D_k = d/dx + ik,

is the first-order system

    W' = P/G + gamma exp(ikx),   P' = -omega^2 rho W - f exp(ikx),

whose state (W, P) is continuous at every interface.  The monopole load
(f = 1) is a source in P', the unit dipole load (gamma = 1) a strain source
in W'.  Segment solutions are propagated with the trigonometric fundamental
matrix; the Floquet condition A y = r closes in adjugate form, det y =
adj(A) r, and one march with the loads scaled by det sums det times each
segment's averages.  A response divides once by det; Z = det/N, N = det <w>,
has no pole.  This is the oracle the spectral route is validated against.

No quadrature is involved.  On segment j (left end x_j, length h, wave
number q = omega sqrt(rho/G)) either load's contribution to the end state
and every cell average reduce to moments

    int_0^h t^m exp(-ikt) {cos qt, sin(qt)/q} dt,   m in {0, 1}.

Written as iterated integrals of exponentials over a simplex, each moment
is h^n times a divided difference of exp over the nodes
{0, (+-iq - ik) h} (Hermite-Genocchi); for example
int_0^h (h - t) exp(-ikt) sin(qt)/q dt = h^3 exp[0, 0, a, b] with
a, b = (+-iq - ik) h.  One Newton row of :func:`_dd_exp` per segment gives
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
from .material import Phase, UnitCell1D, cell_digest

__all__ = [
    "CellResponse",
    "solve_monopole_exact",
    "solve_dipole_exact",
    "solve_static_dipole_exact",
    "monopole_adjugate",
    "dispersion_function",
]

#: the Floquet closure is treated as resonant where its determinant
#: 2 exp(-ik) (cos k - D(omega)) is below this fraction of the size of its two
#: products; the ratio does not change under any rescaling of W or P
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


class _Segment:
    """One phase at (k, omega): propagator, load moments and the load's terms.

    With a, b = (+-iq - ik) h, the kappa = k moments over [0, h] are
    S0 = int exp(-ikt) sin(qt)/q = h^2 exp[0, a, b],
    C0 = int exp(-ikt) cos qt = h exp[0, b] + iq S0,
    T = int (h - t) exp(-ikt) sin(qt)/q = h^3 exp[0, 0, a, b] and, by parts,
    tail = int (h - t) exp(-ikt) cos qt = S0 + ik T.  ``kind`` is "monopole"
    or "dipole"; ``load`` is its end state from a zero start.
    """

    def __init__(self, phase: Phase, x: float, k: float, omega: float, kind: str):
        h, G, rho = phase.length, phase.G, phase.rho
        q = omega * math.sqrt(rho / G)
        self.G, self.rho = G, rho
        self.w2 = w2 = rho * omega * omega
        self.cos = math.cos(q * h)
        self.sin_q = math.sin(q * h) / q if q else h
        self.gauge = cmath.exp(-1j * k * x)  # back from W to u at x_j
        _, e0b, e0ab, e00ab = _dd_exp(-1j * (q + k) * h, 0.0, 1j * (q - k) * h, 0.0)
        self.S0 = S0 = h * h * e0ab
        self.C0 = C0 = h * e0b + 1j * q * S0
        T = h**3 * e00ab
        tail = S0 + 1j * k * T
        end = cmath.exp(1j * k * (x + h))
        if kind == "monopole":
            # f = 1: the source -exp(ikx) in P'
            self.load, self.mean_load, self.flux_load = (-end * S0 / G, -end * C0), -T / G, -tail
        else:
            # gamma = 1: the source exp(ikx) in W'
            self.load, self.mean_load, self.flux_load = (end * C0, -w2 * end * S0), tail, -w2 * T

    def step(self, y0: complex, y1: complex) -> tuple[complex, complex]:
        """Homogeneous propagation of (W, P) across the segment."""
        c, s = self.cos, self.sin_q
        return c * y0 + (s / self.G) * y1, -self.w2 * s * y0 + c * y1

    def integrals(self, y0: complex, y1: complex, det: complex) -> tuple[complex, complex]:
        """det times the integrals over the segment of u = exp(-ikx) W and of
        its flux G (D_k u - gamma) = exp(-ikx) P, from the start state det (W, P)."""
        return (
            self.gauge * (y0 * self.C0 + y1 * self.S0 / self.G) + det * self.mean_load,
            self.gauge * (-self.w2 * self.S0 * y0 + self.C0 * y1) + det * self.flux_load,
        )


class CellResponse(NamedTuple):
    """A cell response u as the three averages the effective model reads.

    Both routes fill it where their solve ends: the exact route sums the
    segments' closed forms, the spectral route reads its operator.
    """

    mean: complex  #: <u>
    mean_rho: complex  #: <rho u>
    mean_flux: complex  #: <G (D_k u - gamma)>, its own flux: <G D_k w>, <G (D_k v - 1)>


def _solve(cell: UnitCell1D, k: float, omega: float, kind: str, mean_scale: float = 0.0) -> tuple[complex, ...]:
    """det and det <u>, det <rho u>, det <G (D_k u - gamma)>; ResonanceError where det
    and ``mean_scale`` det <u> are both below _RCOND_FLOOR of det's scale."""
    k, omega = float(k), float(omega)
    segments = []
    x = 0.0
    for p in cell.phases:
        segments.append(_Segment(p, x, k, omega, kind))
        x += p.length

    # march the affine map y_end = M y_0 + s across the cell
    m00, m01, m10, m11 = 1.0 + 0j, 0j, 0j, 1.0 + 0j
    s0, s1 = 0j, 0j
    for seg in segments:
        m00, m10 = seg.step(m00, m10)
        m01, m11 = seg.step(m01, m11)
        s0, s1 = seg.step(s0, s1)
        s0, s1 = s0 + seg.load[0], s1 + seg.load[1]

    # Floquet closure: z = exp(-ik) (M z + s)
    phase = cmath.exp(-1j * k)
    a00, a01, a10, a11 = 1.0 - phase * m00, -phase * m01, -phase * m10, 1.0 - phase * m11
    det = a00 * a11 - a01 * a10
    y = (phase * (a11 * s0 - a01 * s1), phase * (a00 * s1 - a10 * s0))  # adj(A) exp(-ik) s

    # march the periodic state det y across the cell, summing each segment's
    # averages; the end state is exp(ik) times the start, so the last step is left out
    mean = mean_rho = mean_flux = 0
    for seg in segments:
        u, flux = seg.integrals(*y, det)
        mean, mean_rho, mean_flux = mean + u, mean_rho + seg.rho * u, mean_flux + flux
        if seg is not segments[-1]:
            y0, y1 = seg.step(*y)
            y = (y0 + det * seg.load[0], y1 + det * seg.load[1])
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
    """(det, N = det <w>); ResonanceError where det and z N, z = <rho> ((c k)^2 + omega^2),
    both vanish: Z = det/N is 0/0 there, at an eigenvalue invisible to <w>."""
    det, n, _, _ = _solve(cell, k, omega, "monopole", cell.scales["rho"] * ((cell.c * k) ** 2 + omega**2))
    return det, n


def dispersion_function(cell: UnitCell1D, omega):
    """Half-trace D(omega) of the cell monodromy matrix.

    Bloch waves exist where D(omega) = cos k; pass bands are |D| <= 1.
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
