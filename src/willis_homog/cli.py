"""Command-line surface: coefficients, dispersion curves, polynomial maps,
and the verification report (:mod:`~willis_homog.verify`).

Exit codes: 0 success; 1 verification failure; 2 usage or config error (a
bad command line, an invalid or unreadable --config, an --out that cannot be
a directory); 3 numerical error (resonance, solvability, zero mean impedance).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from ._svg import Frame, axes, document, heat_image, legend, polyline
from .asymptotics import homogenize, modulation_m2, two_scale_impedance
from .dispersion import exact_branch, order2_branch, quasistatic_branch
from .errors import ConfigError, WillisHomogError
from .material import (
    UnitCell1D,
    bilaminate,
    cell_digest,
    cell_from_dict,
    cell_to_dict,
    homogeneous,
)
from .spectral import DEFAULT_ORDER, MIN_ORDER
# build_verification_report is bound here because perfbench/tracer.py wraps it
# as cli.build_verification_report
from .verify import TOLERANCES, build_verification_report
# effective_impedance is bound here, unused, because perfbench/selftest.py
# checks that the tracer wraps it at this binding site too
from .willis import effective_impedance, require_identity_point  # noqa: F401

#: the config's basis_n when it sets none.  Every CSV header records it, and
#: the preset CSVs are pinned byte for byte, so it keeps the value they were
#: made with; verify, which writes no CSV, then runs at DEFAULT_ORDER
_DEFAULT_BASIS_N = 128

_PRESETS: dict[str, dict] = {
    "fig2": {
        "cell": {"bilaminate": [0.1, 0.1]},
        "cell_label": "bilaminate(0.1,0.1)",
        "k_range": [0.0, math.pi, 64],
        "extra_cells": [
            {
                "label": "bilaminate(0.5,0.5) [non-paper]",
                "cell": {"bilaminate": [0.5, 0.5]},
            }
        ],
    },
    "fig3": {
        "cell": {"bilaminate": [0.1, 0.1]},
        "cell_label": "bilaminate(0.1,0.1)",
        "k_range": [0.0, 2.0 * math.pi, 96],
        "omega_range": [0.0, 2.0 * math.pi, 96],
    },
}
_PRESETS["fig4"] = _PRESETS["fig3"]

_CONFIG_KEYS = {
    "cell",
    "cell_label",
    "extra_cells",
    "basis_n",
    "route",
    "k_range",
    "omega_range",
    "probe",
}


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters shared by every command."""

    cell: UnitCell1D
    cell_label: str
    extra_cells: tuple[tuple[str, UnitCell1D], ...]
    basis_n: int
    #: the truncation of verify's spectral checks: basis_n if the config sets it
    verify_n: int
    route: str
    k_range: tuple[float, float, int]
    omega_range: tuple[float, float, int]
    probe: tuple[float, float] | None

    def k_grid(self) -> np.ndarray:
        lo, hi, n = self.k_range
        return np.linspace(lo, hi, n, endpoint=False)

    def omega_grid(self) -> np.ndarray:
        lo, hi, n = self.omega_range
        return np.linspace(lo, hi, n, endpoint=False)


def _parse_cell(spec, where: str) -> UnitCell1D:
    if isinstance(spec, dict):
        try:
            if "bilaminate" in spec:
                gr, gg = spec["bilaminate"]
                return bilaminate(float(gr), float(gg))
            if "homogeneous" in spec:
                g, rho = spec["homogeneous"]
                return homogeneous(float(g), float(rho))
            if "phases" in spec:
                return cell_from_dict(spec)
        except (TypeError, ValueError, WillisHomogError) as exc:
            raise ConfigError(f"config field {where!r}: {exc}") from exc
    raise ConfigError(
        f"config field {where!r}: expected {{'phases': [...]}}, "
        "{'bilaminate': [g_rho, g_G]} or {'homogeneous': [G, rho]}"
    )


def _parse_range(value, where: str, default: tuple[float, float, int]) -> tuple[float, float, int]:
    if value is None:
        return default
    try:
        lo, hi, steps = float(value[0]), float(value[1]), float(value[2])
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"config field {where!r}: expected [min, max, steps]") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"config field {where!r}: bounds must be finite, got [{lo}, {hi}]")
    if not (hi > lo):
        raise ConfigError(f"config field {where!r}: range must be ordered, got [{lo}, {hi}]")
    if not (steps >= 1 and steps.is_integer()):
        raise ConfigError(f"config field {where!r}: steps must be an integer >= 1, got {value[2]!r}")
    return (lo, hi, int(steps))


def build_config(data: dict) -> RunConfig:
    """Validate a config dict (preset already merged) into a RunConfig."""
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    if "cell" not in data:
        raise ConfigError("config field 'cell' is required (or use --preset)")
    cell = _parse_cell(data["cell"], "cell")
    label = str(data.get("cell_label", cell_digest(cell)))

    extras = []
    for i, entry in enumerate(data.get("extra_cells", [])):
        if not isinstance(entry, dict) or "cell" not in entry:
            raise ConfigError(f"config field 'extra_cells[{i}]': expected {{'label', 'cell'}}")
        extra_cell = _parse_cell(entry["cell"], f"extra_cells[{i}].cell")
        extras.append((str(entry.get("label", cell_digest(extra_cell))), extra_cell))

    basis_n = data.get("basis_n", _DEFAULT_BASIS_N)
    if not isinstance(basis_n, int) or basis_n < MIN_ORDER:
        raise ConfigError(f"config field 'basis_n': must be an integer >= {MIN_ORDER}, got {basis_n!r}")

    route = data.get("route", "exact")
    if route not in ("exact", "spectral"):
        raise ConfigError(f"config field 'route': must be 'exact' or 'spectral', got {route!r}")

    probe = None
    if "probe" in data:
        try:
            probe = (float(data["probe"][0]), float(data["probe"][1]))
            require_identity_point(cell, *probe)
        except (TypeError, ValueError, IndexError) as exc:
            raise ConfigError("config field 'probe': expected [k, omega]") from exc
        except WillisHomogError as exc:
            raise ConfigError(f"config field 'probe': {exc}") from exc

    return RunConfig(
        cell=cell,
        cell_label=label,
        extra_cells=tuple(extras),
        basis_n=basis_n,
        verify_n=basis_n if "basis_n" in data else DEFAULT_ORDER,
        route=route,
        k_range=_parse_range(data.get("k_range"), "k_range", (0.0, math.pi, 64)),
        omega_range=_parse_range(
            data.get("omega_range"), "omega_range", (0.0, 2.0 * math.pi, 96)
        ),
        probe=probe,
    )


def load_config(path: str | None, preset: str | None, basis_n: int | None) -> RunConfig:
    data: dict = {}
    if preset is not None:
        if preset not in _PRESETS:
            raise ConfigError(f"unknown preset {preset!r}, expected one of {sorted(_PRESETS)}")
        data.update(_PRESETS[preset])
    if path is not None:
        try:
            loaded = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path}: invalid JSON at line {exc.lineno}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path}: top level must be a JSON object")
        data.update(loaded)
    if not data:
        raise ConfigError("need --config and/or --preset")
    if basis_n is not None:
        data["basis_n"] = basis_n
    return build_config(data)


# ---------------------------------------------------------------------------
# output helpers


def _csv_header(config: RunConfig) -> list[str]:
    return [
        f"# willis-homog {__version__}",
        f"# cell: {cell_digest(config.cell)} {json.dumps(cell_to_dict(config.cell), separators=(',', ':'))}",
        f"# basis_n: {config.basis_n}",
        f"# tolerances: {json.dumps(TOLERANCES, sort_keys=True, separators=(',', ':'))}",
    ]


#: CSV format of a column, by numpy dtype kind: text, bool, int, float
_CSV_FORMATS = {"U": "%s", "b": "%d", "i": "%d", "f": "%.17g"}


def _write_csv(path: Path, header: list[str], names: list[str], columns) -> None:
    """Header, names, then row i from entry i of each column, flattened row-major."""
    columns = [np.ravel(c) for c in columns]
    row = ",".join(_CSV_FORMATS[c.dtype.kind] for c in columns) + "\n"
    cells = [None] * (len(columns) * columns[0].size)
    for j, c in enumerate(columns):
        cells[j :: len(columns)] = c.tolist()
    body = row * columns[0].size % tuple(cells)
    path.write_text("\n".join([*header, ",".join(names)]) + "\n" + body, encoding="utf-8")


def _grid_nodes(k: np.ndarray, w: np.ndarray) -> list[np.ndarray]:
    """The k and omega CSV columns of a row-major (k, omega) grid, as text:
    each grid value is formatted once, not once per node."""
    k_text, w_text = (np.array([_CSV_FORMATS["f"] % v for v in a.tolist()]) for a in (k, w))
    return [np.repeat(k_text, w.size), np.tile(w_text, k.size)]


def _write_heat_maps(out: Path, config: RunConfig, k: np.ndarray, w: np.ndarray, maps) -> str:
    """One heat-map SVG per (name, values, flagged) of ``maps`` over the (k, omega)
    grid, flagged nodes grey; returns the written paths, comma-separated."""
    dk = float(k[1] - k[0]) if k.size > 1 else 1.0
    dw = float(w[1] - w[0]) if w.size > 1 else 1.0
    frame = Frame(x_min=float(k[0]), x_max=float(k[-1]) + dk, y_min=float(w[0]), y_max=float(w[-1]) + dw)
    for name, values, flagged in maps:
        body = [heat_image(values, flagged=flagged), *axes(frame, "k", "omega")]
        (out / name).write_text(
            document(body, name.removesuffix(".svg"), desc=cell_digest(config.cell)),
            encoding="utf-8",
        )
    return ", ".join(str(out / name) for name, _, _ in maps)


# ---------------------------------------------------------------------------
# commands


def cmd_coeffs(config: RunConfig, out: Path) -> int:
    _, coeffs = homogenize(config.cell, method=config.route, order=config.basis_n)
    record = {
        "version": __version__,
        "digest": cell_digest(config.cell),
        "cell": cell_to_dict(config.cell),
        "route": config.route,
        "basis_n": config.basis_n if config.route == "spectral" else None,
        "coefficients": coeffs.to_dict(),
    }
    (out / "coeffs.json").write_text(
        json.dumps(record, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    _write_csv(
        out / "coeffs.csv",
        _csv_header(config),
        ["name", "value"],
        list(zip(*coeffs.to_dict().items())),
    )
    print(f"cell {record['digest']} route={config.route}")
    for name, value in coeffs.to_dict().items():
        print(f"  {name:10s} = {value:.12g}")
    print(f"wrote {out / 'coeffs.json'} and {out / 'coeffs.csv'}")
    return 0


def cmd_dispersion(config: RunConfig, out: Path) -> int:
    k = config.k_grid()
    cells = [(config.cell_label, config.cell), *config.extra_cells]
    curves = []
    for label, cell in cells:
        _, coeffs = homogenize(cell, method="exact")
        branches = [
            exact_branch(cell, k),
            order2_branch(coeffs, k),
            quasistatic_branch(coeffs, k),
        ]
        for branch in branches:
            curves.append((label, branch))
    _write_csv(
        out / "dispersion.csv",
        _csv_header(config),
        ["cell", "branch", "k", "omega"],
        [
            [label for label, b in curves for _ in b.k],
            [b.label for _, b in curves for _ in b.k],
            np.concatenate([b.k for _, b in curves]),
            np.concatenate([b.omega for _, b in curves]),
        ],
    )

    w_max = max(float(np.max(b.omega)) for _, b in curves if b.omega.size)
    frame = Frame(x_min=float(k[0]), x_max=float(k[-1]), y_min=0.0, y_max=1.05 * w_max)
    colors = {"exact": "#1f77b4", "order2": "#d62728", "quasistatic": "#2ca02c"}
    body = axes(frame, "k", "omega")
    for label, branch in curves:
        dash = "" if label == config.cell_label else "6,4"
        if branch.omega.size:
            body.append(polyline(frame, branch.k, branch.omega, colors[branch.label], dash=dash))
    body += legend(
        [(f"{lbl}: {br}", colors[br], "" if lbl == config.cell_label else "6,4")
         for lbl, b in curves for br in [b.label]],
    )
    (out / "dispersion.svg").write_text(
        document(body, "lowest dispersion branch", desc=cell_digest(config.cell)),
        encoding="utf-8",
    )
    print(f"wrote {out / 'dispersion.csv'} and {out / 'dispersion.svg'}")
    return 0


def cmd_modulation_map(config: RunConfig, out: Path) -> int:
    _, coeffs = homogenize(config.cell, method="exact")
    k = config.k_grid()
    w = config.omega_grid()
    m2 = np.asarray([modulation_m2(coeffs, ki, w) for ki in k])
    _write_csv(
        out / "modulation.csv",
        _csv_header(config),
        ["k", "omega", "re_m2", "abs_m2"],
        [*_grid_nodes(k, w), m2, np.abs(m2)],
    )
    svgs = _write_heat_maps(
        out, config, k, w, [("modulation_re.svg", m2, None), ("modulation_abs.svg", np.abs(m2), None)]
    )
    print(f"wrote {out / 'modulation.csv'}, {svgs}")
    return 0


def cmd_impedance_map(config: RunConfig, out: Path) -> int:
    _, coeffs = homogenize(config.cell, method="exact")
    k = config.k_grid()
    w = config.omega_grid()
    # row by row: one broadcast over the grid rounds differently
    cal = np.asarray([two_scale_impedance(coeffs, ki, w) for ki in k], dtype=float)
    m2 = np.asarray([modulation_m2(coeffs, ki, w) for ki in k], dtype=float)
    m2_scale = 1.0 + np.abs(np.subtract.outer(coeffs.s_g * k**2, coeffs.s_rho * w**2))
    near_zero = np.abs(m2) <= 1e-9 * m2_scale
    z2 = np.where(near_zero, np.nan, cal / np.where(near_zero, 1.0, m2))
    sign = np.sign(m2)
    crossing = np.zeros_like(m2, dtype=bool)
    crossing[:-1, :] |= sign[:-1, :] != sign[1:, :]
    crossing[1:, :] |= sign[1:, :] != sign[:-1, :]
    crossing[:, :-1] |= sign[:, :-1] != sign[:, 1:]
    crossing[:, 1:] |= sign[:, 1:] != sign[:, :-1]

    _write_csv(
        out / "impedance.csv",
        _csv_header(config),
        ["k", "omega", "cal_z2", "m2", "z2", "near_zero", "zero_crossing"],
        [*_grid_nodes(k, w), cal, m2, z2, near_zero, crossing],
    )
    svgs = _write_heat_maps(
        out, config, k, w, [("impedance_z2.svg", z2, near_zero | crossing), ("impedance_cal.svg", cal, None)]
    )
    print(f"wrote {out / 'impedance.csv'}, {svgs}")
    return 0


def cmd_verify(config: RunConfig, out: Path) -> int:
    report = build_verification_report(config.cell, basis_n=config.verify_n, probe=config.probe)
    print(report.table())
    (out / "verification.json").write_text(
        json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {out / 'verification.json'}")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# entry point

_COMMANDS = {
    "coeffs": cmd_coeffs,
    "dispersion": cmd_dispersion,
    "modulation-map": cmd_modulation_map,
    "impedance-map": cmd_impedance_map,
    "verify": cmd_verify,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="willis-homog",
        description="Effective dynamic description of 1D periodic cells.",
        epilog="commands:\n"
        "  coeffs          homogenized coefficient table of a cell\n"
        "  dispersion      lowest branch: exact, order-2 and quasistatic\n"
        "  modulation-map  source modulation polynomial on a (k, omega) grid\n"
        "  impedance-map   paired impedance polynomials on a (k, omega) grid\n"
        "  verify          run the identity and oracle check suites",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, metavar="command", help="one of the commands below")
    parser.add_argument("--config", help="JSON config path")
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory (default: current)")
    parser.add_argument("--basis-n", type=int, dest="basis_n", help="Fourier truncation order")
    parser.add_argument("--preset", choices=sorted(_PRESETS), help="paper-pinned parameter set")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config, args.preset, args.basis_n)
        try:
            args.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"output directory {str(args.out)!r}: {exc.strerror}") from exc
        return _COMMANDS[args.command](config, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except WillisHomogError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
