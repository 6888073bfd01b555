"""Dependency-light SVG 1.1 line plots.

Only what the command-line front end needs: a generic polyline plot with
axes and tick labels, a time-series convenience wrapper, and a cobweb
diagram for the piecewise affine map. Output is deterministic: fixed
canvas size, fixed formatting, no timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .pam import PamCoefficients, pam_eval

WIDTH, HEIGHT = 640, 420
MARGIN = 50
PALETTE = ("#1f6fb2", "#c24a3a", "#3a8f5a", "#8758a8")


@dataclass(frozen=True)
class Axes:
    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def to_px(self, x: float, y: float) -> tuple[float, float]:
        sx = MARGIN + (x - self.x_min) / (self.x_max - self.x_min) * (WIDTH - 2 * MARGIN)
        sy = HEIGHT - MARGIN - (y - self.y_min) / (self.y_max - self.y_min) * (HEIGHT - 2 * MARGIN)
        return sx, sy


def _axes_for(curves) -> Axes:
    xs = [float(v) for c in curves for v in c[0]]
    ys = [float(v) for c in curves for v in c[1]]
    if not xs:
        raise DomainError("nothing to plot")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    pad_x = 0.05 * (x_hi - x_lo) or 1.0
    pad_y = 0.05 * (y_hi - y_lo) or 1.0
    return Axes(x_lo - pad_x, x_hi + pad_x, y_lo - pad_y, y_hi + pad_y)


def _polyline(ax: Axes, xs, ys, color: str, width: float = 1.2) -> str:
    pts = " ".join(
        f"{px:.2f},{py:.2f}" for px, py in (ax.to_px(x, y) for x, y in zip(xs, ys))
    )
    return f'<polyline fill="none" stroke="{color}" stroke-width="{width}" points="{pts}"/>'


def _frame(ax: Axes, x_label: str, y_label: str, title: str) -> list[str]:
    parts = [
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
        f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="#333" stroke-width="1"/>'
    ]
    for i in range(5):
        fx = ax.x_min + i * (ax.x_max - ax.x_min) / 4
        fy = ax.y_min + i * (ax.y_max - ax.y_min) / 4
        px, _ = ax.to_px(fx, ax.y_min)
        _, py = ax.to_px(ax.x_min, fy)
        parts.append(
            f'<text x="{px:.1f}" y="{HEIGHT - MARGIN + 16}" font-size="10" '
            f'text-anchor="middle" font-family="sans-serif">{fx:.3g}</text>'
        )
        parts.append(
            f'<text x="{MARGIN - 6}" y="{py + 3:.1f}" font-size="10" '
            f'text-anchor="end" font-family="sans-serif">{fy:.3g}</text>'
        )
    parts.append(
        f'<text x="{WIDTH / 2}" y="{HEIGHT - 12}" font-size="12" text-anchor="middle" '
        f'font-family="sans-serif">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{HEIGHT / 2}" font-size="12" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 16 {HEIGHT / 2})">{y_label}</text>'
    )
    if title:
        parts.append(
            f'<text x="{WIDTH / 2}" y="24" font-size="13" text-anchor="middle" '
            f'font-family="sans-serif">{title}</text>'
        )
    return parts


def line_plot(
    curves: list[tuple],
    path: str,
    x_label: str = "",
    y_label: str = "",
    title: str = "",
) -> None:
    """Write an SVG with one polyline per (xs, ys) pair in ``curves``."""
    ax = _axes_for(curves)
    body = _frame(ax, x_label, y_label, title)
    for i, (xs, ys) in enumerate(curves):
        body.append(_polyline(ax, xs, ys, PALETTE[i % len(PALETTE)]))
    _write_svg(path, body)


def time_series_plot(series, path: str, title: str = "") -> None:
    """x, y, z against slow time, as three stacked-scale polylines."""
    line_plot(
        [(series.t, series.x), (series.t, series.y), (series.t, series.z)],
        path,
        x_label="t",
        y_label="x, y, z",
        title=title,
    )


def projection_plot(series, path: str, coords: str = "xz", title: str = "") -> None:
    axes = {"x": series.x, "y": series.y, "z": series.z, "t": series.t}
    if len(coords) != 2 or any(c not in axes for c in coords):
        raise DomainError(f"coords must be two of t/x/y/z, got {coords!r}")
    a, b = coords
    line_plot([(axes[a], axes[b])], path, x_label=a, y_label=b, title=title)


def cobweb_plot(pam: PamCoefficients, iterates: list[float], path: str, title: str = "") -> None:
    """Cobweb diagram: both affine branches, the diagonal, and the orbit staircase."""
    if not iterates:
        raise DomainError("need at least one iterate for a cobweb")
    lo = min(min(iterates), 0.0)
    hi = max(max(iterates), 0.0)
    pad = 0.1 * (hi - lo) or 1.0
    lo, hi = lo - pad, hi + pad
    ax = Axes(lo, hi, lo, hi)
    body = _frame(ax, "Z", "M(Z)", title)
    # diagonal
    body.append(_polyline(ax, [lo, hi], [lo, hi], "#999", 0.8))
    # branches (left of and right of the jump)
    if lo < 0.0:
        xs = _linspace(lo, -1e-9, 50)
        body.append(_polyline(ax, xs, [pam.a11 * x + pam.a12 for x in xs], PALETTE[0]))
    if hi > 0.0:
        xs = _linspace(1e-9, hi, 50)
        body.append(_polyline(ax, xs, [pam.a21 * x + pam.a22 for x in xs], PALETTE[1]))
    # staircase
    px, py = [iterates[0]], [iterates[0]]
    z = iterates[0]
    for _ in range(len(iterates) - 1):
        w = pam_eval(pam, z)
        px.extend([z, w])
        py.extend([w, w])
        z = w
    body.append(_polyline(ax, px, py, PALETTE[2], 0.9))
    _write_svg(path, body)


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """linspace's points: i * step + start, with the last point set to stop."""
    step = (stop - start) / (num - 1)
    return [i * step + start for i in range(num - 1)] + [stop]


def _write_svg(path: str, body: list[str]) -> None:
    content = "\n".join(
        [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            '<rect width="100%" height="100%" fill="white"/>',
            *body,
            "</svg>",
        ]
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(content + "\n")
