"""Hand-rolled SVG primitives for the CLI plots.

Deliberately tiny: a fixed frame mapping data coordinates to the page,
polylines for branches, one rect per grid cell for maps.  Output is a
single self-contained document with no external dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: stroke width of a branch polyline
STROKE_WIDTH = 1.8

#: ticks per axis
N_TICKS = 6


@dataclass(frozen=True)
class Frame:
    """Data window mapped onto a fixed-size page with margins."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    width: int = 720
    height: int = 520
    margin: int = 64

    def px(self, x: float) -> float:
        span = self.x_max - self.x_min
        return self.margin + (x - self.x_min) / span * (self.width - 2 * self.margin)

    def py(self, y: float) -> float:
        span = self.y_max - self.y_min
        return self.height - self.margin - (y - self.y_min) / span * (
            self.height - 2 * self.margin
        )


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
_GREY = 0x808080  # rgb(128,128,128) packed as 0xRRGGBB: flagged and non-finite cells


def heat_cells(frame: Frame, xs, ys, values, flagged=None) -> list[str]:
    """One rect per (x, y) grid node on a blue-white-red ramp; grey where flagged or non-finite."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    vals = np.asarray(values, dtype=float)
    finite = np.isfinite(vals)
    vmax = float(np.max(np.abs(vals[finite]))) if np.any(finite) else 1.0
    vmax = vmax or 1.0
    dx = xs[1] - xs[0] if xs.size > 1 else (frame.x_max - frame.x_min)
    dy = ys[1] - ys[0] if ys.size > 1 else (frame.y_max - frame.y_min)
    bad = ~finite if flagged is None else ~finite | np.asarray(flagged, dtype=bool)
    # |t| <= 1: vmax bounds every finite |value|
    t = (np.where(finite, vals, 0.0) / vmax)[..., None]
    rgb = np.where(
        t < 0.0, _BLUE[0] + (1.0 + t) * _BLUE[1], _RED[0] + (1.0 - t) * _RED[1]
    ).astype(int)
    packed = np.where(bad, _GREY, rgb @ [1 << 16, 1 << 8, 1])
    # each distinct colour is formatted once
    colors, which = np.unique(packed.ravel(), return_inverse=True)
    fills = [f"rgb({c >> 16},{c >> 8 & 255},{c & 255})" for c in colors.tolist()]
    x_attrs = []
    for x in xs:
        x0 = frame.px(x)
        x_attrs.append((f"{x0:.2f}", f"{frame.px(x + dx) - x0:.2f}"))
    # y and height depend only on the row
    y_attrs = []
    for y in ys:
        y1 = frame.py(y + dy)
        y_attrs.append((f"{y1:.2f}", f"{frame.py(y) - y1:.2f}"))
    return [
        f'<rect x="{x0}" y="{y1}" width="{w}" height="{h}" fill="{fills[c]}" stroke="none"/>'
        for (x0, w), row in zip(x_attrs, which.reshape(vals.shape).tolist())
        for (y1, h), c in zip(y_attrs, row)
    ]


def axes(frame: Frame, xlabel: str, ylabel: str) -> list[str]:
    out = [
        f'<rect x="{frame.margin}" y="{frame.margin}"'
        f' width="{frame.width - 2 * frame.margin}"'
        f' height="{frame.height - 2 * frame.margin}"'
        f' fill="none" stroke="black" stroke-width="1"/>'
    ]
    for t in np.linspace(frame.x_min, frame.x_max, N_TICKS):
        x = frame.px(t)
        y0 = frame.height - frame.margin
        out.append(f'<line x1="{x:.2f}" y1="{y0}" x2="{x:.2f}" y2="{y0 + 5}" stroke="black"/>')
        out.append(
            f'<text x="{x:.2f}" y="{y0 + 18}" font-size="11" text-anchor="middle">{t:.3g}</text>'
        )
    for t in np.linspace(frame.y_min, frame.y_max, N_TICKS):
        y = frame.py(t)
        out.append(
            f'<line x1="{frame.margin - 5}" y1="{y:.2f}" x2="{frame.margin}" y2="{y:.2f}" stroke="black"/>'
        )
        out.append(
            f'<text x="{frame.margin - 8}" y="{y + 4:.2f}" font-size="11" text-anchor="end">{t:.3g}</text>'
        )
    out.append(
        f'<text x="{frame.width / 2:.0f}" y="{frame.height - 16}" font-size="13"'
        f' text-anchor="middle">{_escape(xlabel)}</text>'
    )
    out.append(
        f'<text x="18" y="{frame.height / 2:.0f}" font-size="13" text-anchor="middle"'
        f' transform="rotate(-90 18 {frame.height / 2:.0f})">{_escape(ylabel)}</text>'
    )
    return out


def legend(frame: Frame, entries: list[tuple[str, str, str]]) -> list[str]:
    """entries: (label, color, dash)."""
    out = []
    x0 = frame.margin + 12
    y = frame.margin + 16
    for label, color, dash in entries:
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        out.append(
            f'<line x1="{x0}" y1="{y - 4}" x2="{x0 + 28}" y2="{y - 4}"'
            f' stroke="{color}" stroke-width="2"{dash_attr}/>'
        )
        out.append(f'<text x="{x0 + 34}" y="{y}" font-size="12">{_escape(label)}</text>')
        y += 18
    return out


def document(frame: Frame, body: list[str], title: str, desc: str = "") -> str:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{frame.width}"'
        f' height="{frame.height}" viewBox="0 0 {frame.width} {frame.height}">',
        f"<desc>{_escape(desc)}</desc>" if desc else "",
        f'<rect width="{frame.width}" height="{frame.height}" fill="white"/>',
        f'<text x="{frame.width / 2:.0f}" y="28" font-size="15" text-anchor="middle">{_escape(title)}</text>',
        *body,
        "</svg>",
    ]
    return "\n".join(p for p in parts if p) + "\n"
