"""The column-wise CSV writer and the array-coloured heat map, compared byte
for byte with the per-value code they replace, kept here as the reference."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from willis_homog._svg import Frame, heat_cells
from willis_homog.cli import _grid_nodes, _write_csv

# ---------------------------------------------------------------------------
# reference: one formatting decision per value


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _reference_csv(header: list[str], columns: list[str], rows) -> str:
    lines = list(header)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(f"{v:.17g}" if type(v) is float else _fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _reference_grid_columns(k: np.ndarray, w: np.ndarray, *values: np.ndarray) -> list[list]:
    kk, ww = np.meshgrid(k, w, indexing="ij")
    return [a.ravel().tolist() for a in (kk, ww, *values)]


def _diverging(t: float) -> str:
    t = min(max(t, -1.0), 1.0)
    if t < 0.0:
        s = 1.0 + t
        r, g, b = 48 + s * 207, 98 + s * 157, 182 + s * 73
    else:
        s = 1.0 - t
        r, g, b = 196 + s * 59, 42 + s * 213, 42 + s * 213
    return f"rgb({int(r)},{int(g)},{int(b)})"


def _reference_heat_cells(frame: Frame, xs, ys, values, flagged=None) -> list[str]:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    vals = np.asarray(values, dtype=float)
    finite = np.isfinite(vals)
    vmax = float(np.max(np.abs(vals[finite]))) if np.any(finite) else 1.0
    vmax = vmax or 1.0
    dx = xs[1] - xs[0] if xs.size > 1 else (frame.x_max - frame.x_min)
    dy = ys[1] - ys[0] if ys.size > 1 else (frame.y_max - frame.y_min)
    bad = ~finite if flagged is None else ~finite | np.asarray(flagged, dtype=bool)
    scaled = np.where(finite, vals, 0.0) / vmax
    y_attrs = []
    for y in ys:
        y1 = frame.py(y + dy)
        y_attrs.append((f"{y1:.2f}", f"{frame.py(y) - y1:.2f}"))
    out = []
    for i, x in enumerate(xs):
        x0 = frame.px(x)
        w = f"{frame.px(x + dx) - x0:.2f}"
        x0 = f"{x0:.2f}"
        for (y1, h), t, is_bad in zip(y_attrs, scaled[i].tolist(), bad[i].tolist()):
            color = "rgb(128,128,128)" if is_bad else _diverging(t)
            out.append(
                f'<rect x="{x0}" y="{y1}" width="{w}" height="{h}"'
                f' fill="{color}" stroke="none"/>'
            )
    return out


# ---------------------------------------------------------------------------
# grids

_SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2e-308, 1e308, -1.0, 1.0 / 3.0]


def _grid(shape: tuple[int, int], seed: int, special: float = 0.3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
    mask = rng.random(shape) < special
    values[mask] = rng.choice(_SPECIAL, size=int(mask.sum()))
    return values


GRIDS = {
    **{
        f"mixed-{n}x{m}": _grid((n, m), seed)
        for seed, (n, m) in enumerate([(7, 5), (12, 12), (3, 20), (20, 3)])
    },
    "all-special": _grid((6, 6), 11, special=1.0),
    "all-nan": np.full((4, 3), np.nan),
    "all-non-finite": np.array([[np.inf, -np.inf, np.nan]] * 2),
    "all-zero": np.zeros((3, 4)),
    "signed-zeros": np.array([[0.0, -0.0], [-0.0, 0.0]]),
    "subnormal-only": np.array([[5e-324, -1e-320, 2e-310]]),
    "1x1": np.array([[0.25]]),
    "1x1-nan": np.array([[np.nan]]),
    "1xN": _grid((1, 9), 21),
    "Nx1": _grid((9, 1), 22),
}


def _axes_for(shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray, Frame]:
    xs = np.linspace(0.0, 2.0 * np.pi, shape[0], endpoint=False)
    ys = np.linspace(-1.0, 3.0, shape[1], endpoint=False)
    dx = xs[1] - xs[0] if xs.size > 1 else 1.0
    dy = ys[1] - ys[0] if ys.size > 1 else 1.0
    return xs, ys, Frame(float(xs[0]), float(xs[-1]) + dx, float(ys[0]), float(ys[-1]) + dy)


# ---------------------------------------------------------------------------
# CSV


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_grid_csv_matches_per_value_rows(tmp_path: Path, name: str) -> None:
    values = GRIDS[name]
    xs, ys, _ = _axes_for(values.shape)
    flags = np.random.default_rng(len(name)).random(values.shape) < 0.5
    counts = np.arange(values.size, dtype=np.int64).reshape(values.shape) - 3
    header = ["# a header", "# tolerances: {}"]
    names = ["k", "omega", "value", "abs", "flag", "count"]
    grid = (values, np.abs(values), flags, counts)
    _write_csv(tmp_path / "new.csv", header, names, [*_grid_nodes(xs, ys), *grid])
    expected = _reference_csv(header, names, zip(*_reference_grid_columns(xs, ys, *grid)))
    assert (tmp_path / "new.csv").read_text(encoding="utf-8") == expected


def test_string_bool_int_and_float_columns_match_per_value_rows(tmp_path: Path) -> None:
    floats = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.1, 1e22, -7.0])
    labels = ["a", "bilaminate(0.1,0.1)", "x y", "", "é", "1", "nan", "-0"]
    flags = [True, False, True, True, False, False, True, False]
    ints = [0, -1, 2**40, 7, 3, -9, 12, 1]
    rows = list(zip(labels, flags, ints, floats.tolist(), [float(f) for f in floats]))
    header = ["# h"]
    names = ["label", "flag", "count", "value", "again"]
    _write_csv(
        tmp_path / "new.csv", header, names, [labels, np.array(flags), np.array(ints), floats, floats]
    )
    assert (tmp_path / "new.csv").read_text(encoding="utf-8") == _reference_csv(header, names, rows)


def test_csv_of_python_scalars_and_an_empty_table(tmp_path: Path) -> None:
    table = {"mu0": 0.18181818181818182, "rho0": 0.55, "mu2": -1e-300, "rho2": 0.0}
    _write_csv(tmp_path / "coeffs.csv", [], ["name", "value"], list(zip(*table.items())))
    assert (tmp_path / "coeffs.csv").read_text(encoding="utf-8") == _reference_csv(
        [], ["name", "value"], table.items()
    )
    _write_csv(tmp_path / "empty.csv", ["# h"], ["k", "omega"], [np.array([]), np.array([])])
    assert (tmp_path / "empty.csv").read_text(encoding="utf-8") == _reference_csv(
        ["# h"], ["k", "omega"], []
    )


# ---------------------------------------------------------------------------
# SVG heat map


@pytest.mark.parametrize("name", sorted(GRIDS))
@pytest.mark.parametrize("flagged", ["none", "random", "all"])
def test_heat_cells_match_per_cell_colours(name: str, flagged: str) -> None:
    values = GRIDS[name]
    xs, ys, frame = _axes_for(values.shape)
    flags = {
        "none": None,
        "random": np.random.default_rng(values.size).random(values.shape) < 0.3,
        "all": np.ones(values.shape, dtype=bool),
    }[flagged]
    assert heat_cells(frame, xs, ys, values, flagged=flags) == _reference_heat_cells(
        frame, xs, ys, values, flagged=flags
    )


def test_heat_cells_cover_the_whole_ramp() -> None:
    # t = value / 1.5 runs finely through [-1, 1], both zeros and both ends included
    values = np.concatenate([np.linspace(-1.5, 1.5, 3001), [-0.0, 0.0, -1.0, 1.0]])[None, :]
    xs, ys, frame = _axes_for(values.shape)
    new = heat_cells(frame, xs, ys, values)
    assert new == _reference_heat_cells(frame, xs, ys, values)
    assert len({cell.split('fill="')[1] for cell in new}) > 500
