"""The verification report: exact Willis ``Z`` against the spectral route and
the two-scale order-2 polynomials.

``build_verification_report`` runs one table of check groups.  A row is
``(name, route, tolerance, residuals)``: ``residuals()`` returns
``{check name: residual}``, and each of those checks passes where its
residual is within the row's tolerance.  The rows run in the table's order,
and a row that raises NumericalError becomes one failing check named after
the row, with residual inf, its message on stderr; the report goes on.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from functools import cache
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .asymptotics import (
    dipole_mean_n2, homogenize, identity_suite, two_scale_impedance, two_scale_root, willis_impedance_order2
)
from .cell_functions import responses
from .dispersion import ROOT_BRACKET, exact_branch, spectral_acoustic_branch, willis_exact_root
from .errors import NumericalError
from .material import UnitCell1D, cell_digest
from .spectral import BRANCH_RTOL, DEFAULT_ORDER
from .willis import dynamic_identity_residuals, impedance_from_mean

__all__ = ["TOLERANCES", "CheckResult", "VerificationReport", "build_verification_report"]

#: the named tolerances of the table's rows; every CSV header records them
TOLERANCES = {
    "exact": 1e-8,
    "spectral": 1e-5,
    "triangle": ROOT_BRACKET,
    "polynomial_match": 1e-8,
    "root_construction": 1e-10,
    "root_dual_route": 1e-9,
}

#: the wavenumbers of the oracle triangle; the default probe sits at the first
K_TRIANGLE = (0.5, 1.5)


@dataclass(frozen=True)
class CheckResult:
    name: str
    route: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance)


@dataclass(frozen=True)
class VerificationReport:
    """Named residual checks; overall pass iff every check passes."""

    version: str
    digest: str
    basis_n: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        checks = [{**asdict(c), "passed": c.passed} for c in self.checks]
        return {**asdict(self), "passed": self.passed, "checks": checks}

    def table(self) -> str:
        lines = [f"{'check':52s} {'route':9s} {'residual':>12s} {'tolerance':>10s}  status"]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(
                f"{c.name:52s} {c.route:9s} {c.residual:12.3e} {c.tolerance:10.1e}  {status}"
            )
        n_fail = sum(not c.passed for c in self.checks)
        verdict = "PASS" if self.passed else f"FAIL ({n_fail} failing)"
        lines.append(f"overall: {verdict} ({len(self.checks)} checks)")
        return "\n".join(lines)


class _Row(NamedTuple):
    name: str
    route: str
    tolerance: float
    residuals: Callable[[], dict[str, float]]


def _one(name: str, route: str, tolerance: float, residual: Callable[[], float]) -> _Row:
    """A row of one check, named as the row."""
    return _Row(name, route, tolerance, lambda: {name: residual()})


def _response_gap(cell: UnitCell1D, k: float, omega: float, basis_n: int) -> float:
    """The largest gap between the routes over the six averages of w and v at (k, omega),
    each relative to its exact size; the dipole's flux vanishes with omega, so its size
    is floored at mu_h, as in the identities."""
    (w, v), (ws, vs) = (responses(cell, k, omega, ("monopole", "dipole"), m, basis_n) for m in ("exact", "spectral"))
    floors = (0.0,) * 5 + (cell.scales["G"],)
    return max(abs(s - e) / max(abs(e), f, sys.float_info.min) for e, s, f in zip(w + v, ws + vs, floors))


def _oracle_residuals(cell: UnitCell1D, coeffs) -> dict[str, float]:
    """The polynomial observables against exact Z and <v> in the long-wave window."""
    eps = 0.02
    k, w = eps, 0.3 * eps * cell.c0
    mean_w, mean_v = (r.mean for r in responses(cell, k, w, ("monopole", "dipole"), "exact"))
    z_exact = impedance_from_mean(mean_w, cell, k, w)
    z2 = willis_impedance_order2(coeffs, k, w, route="modulated")
    n2 = dipole_mean_n2(coeffs, k, w)
    return {
        "polynomial/impedance_matches_oracle": abs(z_exact - z2) / abs(z_exact),
        "polynomial/dipole_matches_oracle": abs(two_scale_impedance(coeffs, k, w) * mean_v - n2) / abs(n2),
    }


def _root_residuals(coeffs) -> dict[str, float]:
    """Zero-level co-location of the two impedance routes at two-scale roots."""
    worst = {"root_construction": 0.0, "root_dual_route": 0.0}
    for k in np.geomspace(2e-5, 1.2e-4, 20):
        w = two_scale_root(coeffs, float(k))
        scale = (
            abs(coeffs.mu0) * k**2
            + abs(coeffs.rho0) * w**2
            + abs(coeffs.mu2) * k**4
            + abs(coeffs.rho2) * k**2 * w**2
        )
        za = willis_impedance_order2(coeffs, k, w, route="modulated")
        zb = willis_impedance_order2(coeffs, k, w, route="mean")
        worst["root_construction"] = max(worst["root_construction"], abs(za) / scale)
        worst["root_dual_route"] = max(worst["root_dual_route"], abs(za - zb) / scale)
    return worst


def _rows(cell: UnitCell1D, basis_n: int, probe: tuple[float, float], w_exact: np.ndarray) -> list[_Row]:
    """The table, in report order: each route's identities (``dynamic`` at ``probe``,
    ``static``), the routes' responses at ``probe``, the oracle triangle at K_TRIANGLE
    on the exact branch ``w_exact``, then the polynomials against the exact table."""
    tables = cache(lambda route: homogenize(cell, method=route, order=basis_n))
    roots = cache(lambda: _root_residuals(tables("exact")[1]))
    rows = []
    for route in ("exact", "spectral"):
        rows += [
            _Row("dynamic", route, TOLERANCES[route], lambda route=route: {
                f"dynamic/{n}": v
                for n, v in dynamic_identity_residuals(cell, *probe, method=route, order=basis_n).items()
            }),
            _Row("static", route, TOLERANCES[route], lambda route=route: {
                f"static/{n}": v for n, v in identity_suite(cell, *tables(route)).items()
            }),
        ]
    rows.append(_one(
        "dynamic/route_agreement_responses", "spectral", TOLERANCES["spectral"],
        lambda: _response_gap(cell, *probe, basis_n),
    ))
    for k, w in zip(K_TRIANGLE, w_exact):
        rows += [
            _one(f"triangle/impedance_root_k={k:g}", "exact", TOLERANCES["triangle"],
                 lambda k=k, w=w: abs(w - willis_exact_root(cell, k, w)) / w),
            _one(f"triangle/spectral_branch_k={k:g}", "spectral", BRANCH_RTOL,
                 lambda k=k, w=w: abs(spectral_acoustic_branch(cell, [k], order=basis_n).omega[0] - w) / w),
        ]
    rows.append(_Row("polynomial", "exact", TOLERANCES["polynomial_match"],
                     lambda: _oracle_residuals(cell, tables("exact")[1])))
    rows += [
        _one(f"polynomial/{key}", "exact", TOLERANCES[key], lambda key=key: roots()[key])
        for key in ("root_construction", "root_dual_route")
    ]
    return rows


def build_verification_report(
    cell: UnitCell1D,
    basis_n: int = DEFAULT_ORDER,
    probe: tuple[float, float] | None = None,
) -> VerificationReport:
    """Run the table of dynamic, static, dispersion and polynomial check groups.

    The exact branch omega_1 at K_TRIANGLE comes first; the triangle tests
    the sign change of exact Z across it, and the dynamic checks run at the
    caller's ``probe``, by default at (0.5, 0.7 omega_1(0.5)), below the
    lowest branch.  So a probe on a Bloch branch fails the dynamic groups.
    """
    w_exact = exact_branch(cell, np.array(K_TRIANGLE)).omega
    probe = probe or (K_TRIANGLE[0], 0.7 * float(w_exact[0]))
    checks = []
    for name, route, tolerance, residuals in _rows(cell, basis_n, probe, w_exact):
        try:
            values = residuals()
        except NumericalError as exc:
            print(f"check {name} ({route}) could not run: {exc}", file=sys.stderr)
            values = {name: math.inf}
        checks += (CheckResult(n, route, float(v), tolerance) for n, v in values.items())
    return VerificationReport(version=__version__, digest=cell_digest(cell), basis_n=basis_n, checks=tuple(checks))
