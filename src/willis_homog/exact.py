"""Exact closed-form cell responses for piecewise-constant 1D cells.

On each homogeneous segment the substitution W(x) = exp(ikx) u(x) turns the
Bloch cell equation

    -omega^2 rho u - D_k (G (D_k u - gamma)) = f,   D_k = d/dx + ik,

into a constant-coefficient ODE  -(G W')' - omega^2 rho W = g(x)  with
g = f exp(ikx) for the monopole load (f = 1) and g = -ik G exp(ikx) for the
unit dipole load (gamma = 1).  Segment solutions are propagated with the
trigonometric fundamental matrix, and interface and Floquet conditions
close a 2x2 linear system.  This module is the reference oracle the
spectral route is validated against.

No quadrature is involved.  On segment j (left end x_j, length h, wave
number q = omega sqrt(rho/G)) the load's contribution to the end state and
every cell average reduce to moments

    int_0^h t^m exp(-ikt) {cos qt, sin(qt)/q} dt,   m in {0, 1}.

Written as iterated integrals of exponentials over a simplex, each moment
is h^n times a divided difference of exp over the nodes
{0, (+-iq - ik) h} (Hermite-Genocchi); for example
int_0^h (h - t) exp(-ikt) sin(qt)/q dt = h^3 exp[0, 0, a, b] with
a, b = (+-iq - ik) h.  One helper, :func:`_dd_exp`, evaluates those
divided differences stably, so the removable limits q = 0 (the static
dipole), q -> 0 and q = +-k need no special case anywhere else.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ResonanceError, ValidationError
from .material import Phase, UnitCell1D, cell_digest

__all__ = [
    "ExactField",
    "solve_monopole_exact",
    "solve_dipole_exact",
    "solve_static_dipole_exact",
    "dispersion_function",
]

#: the Floquet closure is treated as resonant where its determinant
#: 2 exp(-ik) (cos k - D(omega)) is below this fraction of the size of its two
#: products; the ratio does not change under any rescaling of W or GW'
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
    """One phase at (k, omega): propagator, load moments and load term.

    With a, b = (+-iq - ik) h, the kappa = k moments over [0, h] are
    S0 = int exp(-ikt) sin(qt)/q = h^2 exp[0, a, b],
    C0 = int exp(-ikt) cos qt = h exp[0, b] + iq S0 and
    T = int (h - t) exp(-ikt) sin(qt)/q = h^3 exp[0, 0, a, b].
    """

    def __init__(self, phase: Phase, x: float, k: float, omega: float, amp: complex):
        h, G, rho = phase.length, phase.G, phase.rho
        q = omega * math.sqrt(rho / G)
        self.x, self.h, self.G, self.rho = x, h, G, rho
        self.k, self.q, self.amp = k, q, amp
        self.w2 = rho * omega * omega
        self.cos = math.cos(q * h)
        self.sin_q = math.sin(q * h) / q if q else h
        a, self.b = 1j * (q - k) * h, -1j * (q + k) * h
        _, e0b, e0ab, e00ab = _dd_exp(self.b, 0.0, a, 0.0)
        self.S0 = h * h * e0ab
        self.C0 = h * e0b + 1j * q * self.S0
        self.T = h**3 * e00ab
        end = -amp * cmath.exp(1j * k * (x + h))
        self.load = (end * self.S0 / G, end * self.C0)

    def step(self, y0: complex, y1: complex) -> tuple[complex, complex]:
        """Homogeneous propagation of (W, GW') across the segment."""
        c, s = self.cos, self.sin_q
        return c * y0 + (s / self.G) * y1, -self.w2 * s * y0 + c * y1

    def mean(self, y0: complex, y1: complex) -> complex:
        """int over the segment of u = exp(-ikx) W, from the start state."""
        phase = cmath.exp(-1j * self.k * self.x)
        return phase * (y0 * self.C0 + y1 * self.S0 / self.G) - self.amp * self.T / self.G

    def mean_flux(self, y0: complex, y1: complex) -> complex:
        """int over the segment of G D_k u = exp(-ikx) GW', from the start state."""
        h = self.h
        # int_0^h (h - t) exp(-ikt) cos qt dt = h^2 (exp[0, 0, b] + (a - b)/2 exp[0, 0, a, b])
        tail = h * h * _dd_exp(0.0, self.b, 0.0)[2] + 1j * self.q * self.T
        phase = cmath.exp(-1j * self.k * self.x)
        return phase * (-self.w2 * self.S0 * y0 + self.C0 * y1) - self.amp * tail


@dataclass(eq=False)
class ExactField:
    """Closed-form cell response.

    ``starts[j]`` is (W, GW') at the left end of segment j, in the
    W = exp(ikx) u gauge; cell averages are sums of per-segment closed forms.
    """

    starts: tuple[tuple[complex, complex], ...]
    segments: tuple[_Segment, ...]

    @cached_property
    def _segment_means(self) -> list[complex]:
        return [seg.mean(*y) for seg, y in zip(self.segments, self.starts)]

    @property
    def mean(self) -> complex:
        """<u>"""
        return complex(sum(self._segment_means))

    @property
    def mean_rho(self) -> complex:
        """<rho u>"""
        return complex(sum(seg.rho * m for seg, m in zip(self.segments, self._segment_means)))

    @property
    def mean_flux(self) -> complex:
        """<G D_k u>"""
        return complex(sum(seg.mean_flux(*y) for seg, y in zip(self.segments, self.starts)))

    @property
    def mean_G(self) -> float:
        """<G>, as ``UnitCell1D.mean("G")`` forms it"""
        return float(np.dot([seg.h for seg in self.segments], [seg.G for seg in self.segments]))


def _load_amplitude(kind: str, G: float, k: float) -> complex:
    if kind == "monopole":
        return 1.0 + 0.0j
    if kind == "dipole":
        return -1j * k * G
    raise ValidationError(f"unknown load kind {kind!r}")


def _solve(cell: UnitCell1D, k: float, omega: float, kind: str) -> ExactField:
    k, omega = float(k), float(omega)
    phases = cell.phases
    segments = []
    x = 0.0
    for p in phases:
        segments.append(_Segment(p, x, k, omega, _load_amplitude(kind, p.G, k)))
        x += p.length
    # dipole load: GW' jumps by exp(ikx) [G] at the interior interfaces
    jumps = [0j] * len(segments)
    if kind != "monopole":
        for j in range(len(segments) - 1):
            nxt = segments[j + 1]
            jumps[j] = cmath.exp(1j * k * nxt.x) * (nxt.G - segments[j].G)

    # march the affine map y_end = M y_0 + s across the cell
    m00, m01, m10, m11 = 1.0 + 0j, 0j, 0j, 1.0 + 0j
    s0, s1 = 0j, 0j
    for seg, jump in zip(segments, jumps):
        m00, m10 = seg.step(m00, m10)
        m01, m11 = seg.step(m01, m11)
        s0, s1 = seg.step(s0, s1)
        s0, s1 = s0 + seg.load[0], s1 + seg.load[1] + jump

    # Floquet closure: z = exp(-ik) (M z + s) + d0
    d1 = phases[0].G - phases[-1].G if kind != "monopole" else 0.0
    phase = cmath.exp(-1j * k)
    a00, a01, a10, a11 = 1.0 - phase * m00, -phase * m01, -phase * m10, 1.0 - phase * m11
    r0, r1 = phase * s0, phase * s1 + d1
    det = a00 * a11 - a01 * a10
    if abs(det) <= _RCOND_FLOOR * (abs(a00 * a11) + abs(a01 * a10)):
        raise ResonanceError(
            f"(k, omega) = ({k!r}, {omega!r}) lies on a Bloch branch of cell "
            f"{cell_digest(cell)}; the {kind} cell response is resonant"
        )
    y = ((a11 * r0 - a01 * r1) / det, (a00 * r1 - a10 * r0) / det)

    starts = []
    for seg, jump in zip(segments, jumps):
        starts.append(y)
        y0, y1 = seg.step(*y)
        y = (y0 + seg.load[0], y1 + seg.load[1] + jump)

    return ExactField(starts=tuple(starts), segments=tuple(segments))


def solve_monopole_exact(cell: UnitCell1D, k: float, omega: float) -> ExactField:
    """Cell response w to a unit mean load f = 1 (off resonance)."""
    return _solve(cell, k, omega, "monopole")


def solve_dipole_exact(cell: UnitCell1D, k: float, omega: float) -> ExactField:
    """Cell response v to a unit dipole load (off resonance)."""
    return _solve(cell, k, omega, "dipole")


def solve_static_dipole_exact(cell: UnitCell1D, k: float) -> ExactField:
    """Static dipole response zeta (the omega = 0 dipole solve, k != 0)."""
    return _solve(cell, k, 0.0, "dipole")


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
