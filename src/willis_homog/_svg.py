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


def polyline(frame: Frame, xs, ys, color: str, dash: str = "") -> str:
    pts = " ".join(
        f"{frame.px(float(x)):.2f},{frame.py(float(y)):.2f}" for x, y in zip(xs, ys)
    )
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="{STROKE_WIDTH}"'
        f'{dash_attr} points="{pts}"/>'
    )


def _diverging(t: float) -> str:
    """Blue-white-red ramp for t in [-1, 1]."""
    t = min(max(t, -1.0), 1.0)
    if t < 0.0:
        s = 1.0 + t
        r, g, b = 48 + s * 207, 98 + s * 157, 182 + s * 73
    else:
        s = 1.0 - t
        r, g, b = 196 + s * 59, 42 + s * 213, 42 + s * 213
    return f"rgb({int(r)},{int(g)},{int(b)})"


def heat_cells(frame: Frame, xs, ys, values, flagged=None) -> list[str]:
    """One rect per (x, y) grid node; grey where flagged or non-finite."""
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
    # y and height depend only on the row
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
        f' text-anchor="middle">{xlabel}</text>'
    )
    out.append(
        f'<text x="18" y="{frame.height / 2:.0f}" font-size="13" text-anchor="middle"'
        f' transform="rotate(-90 18 {frame.height / 2:.0f})">{ylabel}</text>'
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
        out.append(f'<text x="{x0 + 34}" y="{y}" font-size="12">{label}</text>')
        y += 18
    return out


def document(frame: Frame, body: list[str], title: str, desc: str = "") -> str:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{frame.width}"'
        f' height="{frame.height}" viewBox="0 0 {frame.width} {frame.height}">',
        f"<desc>{desc}</desc>" if desc else "",
        f'<rect width="{frame.width}" height="{frame.height}" fill="white"/>',
        f'<text x="{frame.width / 2:.0f}" y="28" font-size="15" text-anchor="middle">{title}</text>',
        *body,
        "</svg>",
    ]
    return "\n".join(p for p in parts if p) + "\n"
