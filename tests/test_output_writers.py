"""The column-wise CSV writer, compared byte for byte with the per-value code
it replaced, and the heat-map PNG, decoded here and compared pixel by pixel
with the per-value colour ramp; both references are kept here."""

from __future__ import annotations

import base64
import struct
import xml.etree.ElementTree as ElementTree
import zlib
from pathlib import Path

import numpy as np
import pytest

from willis_homog._svg import HEIGHT, MARGIN, WIDTH, heat_image
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


def _reference_colours(values, flagged=None) -> list[list[str]]:
    """colour of node (i, j): grey where flagged or non-finite, else _diverging(value / vmax)."""
    vals = np.asarray(values, dtype=float)
    finite = np.isfinite(vals)
    vmax = float(np.max(np.abs(vals[finite]))) if np.any(finite) else 1.0
    vmax = vmax or 1.0
    bad = ~finite if flagged is None else ~finite | np.asarray(flagged, dtype=bool)
    return [
        ["rgb(128,128,128)" if b else _diverging(v / vmax) for v, b in zip(row, bad_row)]
        for row, bad_row in zip(vals.tolist(), bad.tolist())
    ]


PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


def _png_chunks(png: bytes) -> list[tuple[bytes, bytes]]:
    """(type, data) of every chunk, each CRC checked."""
    assert png[:8] == PNG_SIGNATURE
    chunks, pos = [], 8
    while pos < len(png):
        (length,) = struct.unpack(">I", png[pos : pos + 4])
        tag, data = png[pos + 4 : pos + 8], png[pos + 8 : pos + 8 + length]
        (crc,) = struct.unpack(">I", png[pos + 8 + length : pos + 12 + length])
        assert crc == zlib.crc32(tag + data), tag
        chunks.append((tag, data))
        pos += 12 + length
    assert pos == len(png)
    return chunks


def _decode_png(png: bytes, shape: tuple[int, int]) -> np.ndarray:
    """(rows, columns, 3) pixels of an 8-bit RGB PNG of ``shape`` = (columns, rows)."""
    chunks = _png_chunks(png)
    tags = [tag for tag, _ in chunks]
    assert tags[0] == b"IHDR" and tags[-1] == b"IEND" and set(tags) == {b"IHDR", b"IDAT", b"IEND"}
    # width, height, bit depth 8, colour type 2 (RGB), deflate, filter method 0, no interlace
    assert struct.unpack(">IIBBBBB", chunks[0][1]) == (*shape, 8, 2, 0, 0, 0)
    raw = zlib.decompress(b"".join(data for tag, data in chunks if tag == b"IDAT"))
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(shape[1], 1 + 3 * shape[0])
    assert not rows[:, 0].any()  # filter type 0 on every row
    return rows[:, 1:].reshape(shape[1], shape[0], 3)


def _heat_png(values, flagged=None) -> bytes:
    """The PNG of heat_image, its <image> checked to cover the plot area."""
    image = ElementTree.fromstring(heat_image(values, flagged=flagged))
    scheme, data = image.attrib.pop("href").split(",")
    assert scheme == "data:image/png;base64"
    assert image.tag == "image" and image.attrib == {
        "x": str(MARGIN),
        "y": str(MARGIN),
        "width": str(WIDTH - 2 * MARGIN),
        "height": str(HEIGHT - 2 * MARGIN),
        "preserveAspectRatio": "none",
        "style": "image-rendering:pixelated",
    }
    return base64.b64decode(data, validate=True)


def _assert_pixels_match(values, flagged=None) -> np.ndarray:
    pixels = _decode_png(_heat_png(values, flagged), values.shape)
    expected = _reference_colours(values, flagged)
    # x (axis 0) runs left to right, y (axis 1) bottom to top
    for i, column in enumerate(expected):
        for j, colour in enumerate(column):
            r, g, b = pixels[-1 - j, i].tolist()
            assert f"rgb({r},{g},{b})" == colour, (i, j)
    return pixels


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


def _axes_for(shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.linspace(0.0, 2.0 * np.pi, shape[0], endpoint=False),
        np.linspace(-1.0, 3.0, shape[1], endpoint=False),
    )


# ---------------------------------------------------------------------------
# CSV


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_grid_csv_matches_per_value_rows(tmp_path: Path, name: str) -> None:
    values = GRIDS[name]
    xs, ys = _axes_for(values.shape)
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
def test_heat_image_pixels_match_per_node_colours(name: str, flagged: str) -> None:
    values = GRIDS[name]
    flags = {
        "none": None,
        "random": np.random.default_rng(values.size).random(values.shape) < 0.3,
        "all": np.ones(values.shape, dtype=bool),
    }[flagged]
    _assert_pixels_match(values, flags)


def test_heat_image_covers_the_whole_ramp() -> None:
    # t = value / 1.5 runs finely through [-1, 1], both zeros and both ends included
    values = np.concatenate([np.linspace(-1.5, 1.5, 3001), [-0.0, 0.0, -1.0, 1.0]])[None, :]
    pixels = _assert_pixels_match(values)
    assert len(np.unique(pixels.reshape(-1, 3), axis=0)) > 500


def test_heat_image_pixel_data_is_stored_deflate_blocks() -> None:
    # 160 x 160 RGB rows are 77,000 bytes: two stored blocks of at most 65,535
    values = _grid((160, 160), 31)
    _assert_pixels_match(values)
    (idat,) = [data for tag, data in _png_chunks(_heat_png(values)) if tag == b"IDAT"]
    raw = 160 * (1 + 3 * 160)
    # zlib header, one 5-byte header per block, the raw bytes, adler32
    assert idat[:2] == b"\x78\x01" and len(idat) == 2 + 2 * 5 + raw + 4
    assert idat[2] == 0 and idat[2 + 5 + 65535] == 1  # BTYPE 00; BFINAL only on the last block
    assert idat[-4:] == struct.pack(">I", zlib.adler32(zlib.decompress(idat)))
