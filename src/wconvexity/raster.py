"""Region raster over a (p, q) window: CSV data contract plus an SVG map.

The CSV (header ``p,q,class``, shortest round-trip decimals, one row per
cell) is the machine-readable artifact; the SVG is a fixed 800x800 visual
with one fill colour per class and the boundary curve q = 1 - 2*sqrt(-p)
drawn over -1 < p < 0.  Each distinct p and q is formatted once, not once
per cell; a signed zero keeps its sign in the CSV.
"""

import math
from dataclasses import dataclass

from ._checks import finite
from .theory import ConvexityClass, c_of_p, classify

__all__ = ["RegionRaster", "build_raster", "write_csv", "write_svg"]

COLOR_CONVEX = "#2b6cb0"
COLOR_CONCAVE = "#dd6b20"
COLOR_NEITHER = "#e2e8f0"
COLOR_CURVE = "#111111"

# Keyed by label in legend order: a member's _value_ is a plain attribute,
# while hashing the member or reading .value runs Python code once per cell.
_FILL = {
    ConvexityClass.STRICTLY_CONVEX.value: COLOR_CONVEX,
    ConvexityClass.STRICTLY_CONCAVE.value: COLOR_CONCAVE,
    ConvexityClass.NEITHER.value: COLOR_NEITHER,
}

_SIZE = 800
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 24, 24, 60


@dataclass(frozen=True)
class RegionRaster:
    """Classification of every lattice point of a closed (p, q) window."""

    p_min: float
    p_max: float
    q_min: float
    q_max: float
    step: float
    cells: tuple


def _axis(lo, hi, step):
    n = int(math.floor((hi - lo) / step + 1e-9))
    values = [lo + i * step for i in range(n + 1)]
    # Snap the last lattice point onto the window edge when it belongs there.
    if values and abs(values[-1] - hi) <= 1e-9 * max(1.0, abs(hi)):
        values[-1] = hi
    return values


def build_raster(p_min, p_max, q_min, q_max, step):
    """Classify the closed lattice (inclusive of both endpoints)."""
    p_min, p_max, q_min, q_max, step = (
        finite(v, "raster window and step") for v in (p_min, p_max, q_min, q_max, step)
    )
    if p_min > p_max or q_min > q_max:
        raise ValueError("raster window must satisfy p_min <= p_max and q_min <= q_max")
    if step <= 0.0:
        raise ValueError("step must be > 0")
    qs = _axis(q_min, q_max, step)
    cells = tuple((p, q, classify(p, q)) for p in _axis(p_min, p_max, step) for q in qs)
    return RegionRaster(p_min=p_min, p_max=p_max, q_min=q_min, q_max=q_max, step=step, cells=cells)


def write_csv(raster, path):
    # 0.0 == -0.0 as dict keys, so a zero takes its own repr, never a cached one.
    text = {v: repr(v) for v in {c[0] for c in raster.cells} | {c[1] for c in raster.cells}}
    lines = ["p,q,class"] + [
        f"{text[p] if p else repr(p)},{text[q] if q else repr(q)},{cls._value_}"
        for p, q, cls in raster.cells
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def write_svg(raster, path):
    half = raster.step / 2.0
    x_lo, x_hi = raster.p_min - half, raster.p_max + half
    y_lo, y_hi = raster.q_min - half, raster.q_max + half
    plot_w = _SIZE - _MARGIN_L - _MARGIN_R
    plot_h = _SIZE - _MARGIN_T - _MARGIN_B

    def sx(p):
        return _MARGIN_L + (p - x_lo) / (x_hi - x_lo) * plot_w

    def sy(q):
        return _MARGIN_T + (y_hi - q) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect x="0" y="0" width="{_SIZE}" height="{_SIZE}" fill="#ffffff"/>',
    ]
    # x and width depend on p alone, y and height on q alone: format each once.
    # The two zeros give equal sx and sy, so here they may share a key.
    ps = {cell[0] for cell in raster.cells}
    qs = {cell[1] for cell in raster.cells}
    xs = {p: f"{sx(p - half):.2f}" for p in ps}
    ws = {p: f"{sx(p + half) - sx(p - half):.2f}" for p in ps}
    ys = {q: f"{sy(q + half):.2f}" for q in qs}
    hs = {q: f"{sy(q - half) - sy(q + half):.2f}" for q in qs}
    out += [
        f'<rect x="{xs[p]}" y="{ys[q]}" width="{ws[p]}" height="{hs[q]}" '
        f'fill="{_FILL[cls._value_]}"/>'
        for p, q, cls in raster.cells
    ]
    curve_lo = max(x_lo, -1.0)
    curve_hi = min(x_hi, 0.0)
    if curve_lo < curve_hi:
        pts = []
        n = 256
        for i in range(n + 1):
            p = curve_lo + (curve_hi - curve_lo) * i / n
            q = c_of_p(max(-1.0, min(0.0, p)))
            if y_lo <= q <= y_hi:
                pts.append(f"{sx(p):.2f},{sy(q):.2f}")
        if len(pts) >= 2:
            out.append(
                f'<polyline points="{" ".join(pts)}" fill="none" '
                f'stroke="{COLOR_CURVE}" stroke-width="2"/>'
            )
    # Frame and axis ticks at integers.
    out.append(
        f'<rect x="{sx(x_lo):.2f}" y="{sy(y_hi):.2f}" '
        f'width="{sx(x_hi) - sx(x_lo):.2f}" height="{sy(y_lo) - sy(y_hi):.2f}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    for t in range(math.ceil(x_lo), math.floor(x_hi) + 1):
        out.append(
            f'<text x="{sx(t):.2f}" y="{_SIZE - _MARGIN_B + 22}" font-size="14" '
            f'text-anchor="middle" fill="#333333">{t:g}</text>'
        )
    for t in range(math.ceil(y_lo), math.floor(y_hi) + 1):
        out.append(
            f'<text x="{_MARGIN_L - 10}" y="{sy(t) + 5:.2f}" font-size="14" '
            f'text-anchor="end" fill="#333333">{t:g}</text>'
        )
    out.append(
        f'<text x="{(_MARGIN_L + _SIZE - _MARGIN_R) / 2:.2f}" y="{_SIZE - 14}" '
        f'font-size="16" text-anchor="middle" fill="#111111">p</text>'
    )
    out.append(
        f'<text x="20" y="{(_MARGIN_T + _SIZE - _MARGIN_B) / 2:.2f}" font-size="16" '
        f'text-anchor="middle" fill="#111111" '
        f'transform="rotate(-90 20 {(_MARGIN_T + _SIZE - _MARGIN_B) / 2:.2f})">q</text>'
    )
    lx = _SIZE - _MARGIN_R - 150
    for i, (label, color) in enumerate(_FILL.items()):
        ly = _MARGIN_T + 12 + 24 * i
        out.append(
            f'<rect x="{lx}" y="{ly}" width="18" height="18" fill="{color}" '
            f'stroke="#333333" stroke-width="0.5"/>'
        )
        out.append(
            f'<text x="{lx + 26}" y="{ly + 14}" font-size="14" fill="#111111">{label}</text>'
        )
    out.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(out) + "\n")
