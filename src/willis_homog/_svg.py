"""Hand-rolled SVG primitives for the CLI plots.

Deliberately tiny: a fixed frame mapping data coordinates to the page,
polylines for branches, one embedded PNG image for maps.  Output is a
single self-contained document with no external dependencies.
"""

from __future__ import annotations

import base64
import struct
import zlib
from dataclasses import dataclass

import numpy as np

#: stroke width of a branch polyline
STROKE_WIDTH = 1.8

#: ticks per axis
N_TICKS = 6

#: page size and margin of every plot, px; the plot area is the page less the margins
WIDTH, HEIGHT, MARGIN = 720, 520, 64
_PLOT_AREA = f'x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" height="{HEIGHT - 2 * MARGIN}"'


def _unit(v: float, lo: float, hi: float) -> float:
    """(v - lo) / (hi - lo), a zero span read as 1 so that a one-point window draws."""
    return (v - lo) / ((hi - lo) or 1.0)


@dataclass(frozen=True)
class Frame:
    """Data window mapped onto the plot area of the fixed page."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def px(self, x: float) -> float:
        return MARGIN + _unit(x, self.x_min, self.x_max) * (WIDTH - 2 * MARGIN)

    def py(self, y: float) -> float:
        return HEIGHT - MARGIN - _unit(y, self.y_min, self.y_max) * (HEIGHT - 2 * MARGIN)


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def polyline(frame: Frame, xs, ys, color: str, dash: str = "") -> str:
    pts = " ".join(
        f"{frame.px(float(x)):.2f},{frame.py(float(y)):.2f}" for x, y in zip(xs, ys)
    )
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="{STROKE_WIDTH}"'
        f'{dash_attr} points="{pts}"/>'
    )


#: diverging ramp ``rgb = base + s * slope``: blue with s = 1 + t for t < 0,
#: red with s = 1 - t otherwise, so both reach white at t = 0
_BLUE = (np.array([48, 98, 182]), np.array([207, 157, 73]))
_RED = (np.array([196, 42, 42]), np.array([59, 213, 213]))
_GREY = (128, 128, 128)  # flagged and non-finite nodes


def _png_chunk(tag: bytes, data: bytes) -> bytes:
    return struct.pack(">I", len(data)) + tag + data + struct.pack(">I", zlib.crc32(tag + data))


def heat_image(values, flagged=None) -> str:
    """The (x, y) grid of ``values`` as one PNG pixel per node over the plot area,
    x to the right and y up, on a blue-white-red ramp; grey where flagged or non-finite."""
    vals = np.asarray(values, dtype=float)
    finite = np.isfinite(vals)
    vmax = float(np.max(np.abs(vals[finite]), initial=0.0)) or 1.0
    bad = ~finite if flagged is None else ~finite | np.asarray(flagged, dtype=bool)
    # |t| <= 1: vmax bounds every finite |value|
    t = (np.where(finite, vals, 0.0) / vmax)[..., None]
    rgb = np.where(t < 0.0, _BLUE[0] + (1.0 + t) * _BLUE[1], _RED[0] + (1.0 - t) * _RED[1])
    rgb = np.where(bad[..., None], _GREY, rgb).astype(np.uint8)
    # PNG rows run from the top, so the last y first; each row opens with filter type 0
    raw = np.pad(rgb.transpose(1, 0, 2)[::-1].reshape(vals.shape[1], -1), ((0, 0), (1, 0))).tobytes()
    # stored deflate blocks: the bytes depend on the pixels alone, not on the zlib build
    blocks = [raw[i : i + 65535] for i in range(0, len(raw), 65535)]
    idat = b"\x78\x01" + b"".join(
        struct.pack("<BHH", n == len(blocks) - 1, len(b), len(b) ^ 0xFFFF) + b
        for n, b in enumerate(blocks)
    ) + struct.pack(">I", zlib.adler32(raw))
    png = b"\x89PNG\r\n\x1a\n" + b"".join([
        _png_chunk(b"IHDR", struct.pack(">IIBBBBB", vals.shape[0], vals.shape[1], 8, 2, 0, 0, 0)),
        _png_chunk(b"IDAT", idat),
        _png_chunk(b"IEND", b""),
    ])
    return (
        f'<image {_PLOT_AREA} preserveAspectRatio="none" style="image-rendering:pixelated"'
        f' href="data:image/png;base64,{base64.b64encode(png).decode("ascii")}"/>'
    )


def axes(frame: Frame, xlabel: str, ylabel: str) -> list[str]:
    out = [f'<rect {_PLOT_AREA} fill="none" stroke="black" stroke-width="1"/>']
    for t in np.linspace(frame.x_min, frame.x_max, N_TICKS):
        x = frame.px(t)
        y0 = HEIGHT - MARGIN
        out.append(f'<line x1="{x:.2f}" y1="{y0}" x2="{x:.2f}" y2="{y0 + 5}" stroke="black"/>')
        out.append(
            f'<text x="{x:.2f}" y="{y0 + 18}" font-size="11" text-anchor="middle">{t:.3g}</text>'
        )
    for t in np.linspace(frame.y_min, frame.y_max, N_TICKS):
        y = frame.py(t)
        out.append(
            f'<line x1="{MARGIN - 5}" y1="{y:.2f}" x2="{MARGIN}" y2="{y:.2f}" stroke="black"/>'
        )
        out.append(
            f'<text x="{MARGIN - 8}" y="{y + 4:.2f}" font-size="11" text-anchor="end">{t:.3g}</text>'
        )
    out.append(
        f'<text x="{WIDTH / 2:.0f}" y="{HEIGHT - 16}" font-size="13"'
        f' text-anchor="middle">{_escape(xlabel)}</text>'
    )
    out.append(
        f'<text x="18" y="{HEIGHT / 2:.0f}" font-size="13" text-anchor="middle"'
        f' transform="rotate(-90 18 {HEIGHT / 2:.0f})">{_escape(ylabel)}</text>'
    )
    return out


def legend(entries: list[tuple[str, str, str]]) -> list[str]:
    """entries: (label, color, dash)."""
    out = []
    x0 = MARGIN + 12
    y = MARGIN + 16
    for label, color, dash in entries:
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        out.append(
            f'<line x1="{x0}" y1="{y - 4}" x2="{x0 + 28}" y2="{y - 4}"'
            f' stroke="{color}" stroke-width="2"{dash_attr}/>'
        )
        out.append(f'<text x="{x0 + 34}" y="{y}" font-size="12">{_escape(label)}</text>')
        y += 18
    return out


def document(body: list[str], title: str, desc: str = "") -> str:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}"'
        f' height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f"<desc>{_escape(desc)}</desc>" if desc else "",
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="28" font-size="15" text-anchor="middle">{_escape(title)}</text>',
        *body,
        "</svg>",
    ]
    return "\n".join(p for p in parts if p) + "\n"
